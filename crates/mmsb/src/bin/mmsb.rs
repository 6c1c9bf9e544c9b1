//! `mmsb` — command-line interface to the workspace.
//!
//! ```text
//! mmsb datasets                                   # list the Table II stand-ins
//! mmsb generate --dataset syn-dblp --out g.txt    # write a SNAP edge list
//! mmsb generate --vertices 2000 --communities 16 --out g.txt
//! mmsb convert --input g.txt --out g.ooc          # compressed on-disk graph
//! mmsb train --input g.txt --k 16 --iters 2000 --out communities.txt
//! mmsb train --input g.ooc --graph-format ooc --k 16 --iters 2000
//! mmsb train --dataset syn-youtube --driver parallel --eval-every 200
//! mmsb train --input g.txt --k 16 --checkpoint model.ckpt --checkpoint-every 500
//! mmsb simulate --workers 16 --k 64 --iters 50 --pipeline off
//! mmsb serve --model model.ckpt --addr 127.0.0.1:7070 --threads 4
//! ```

use mmsb::graph::io;
use mmsb::graph::stats::summarize;
use mmsb::prelude::*;
use std::collections::HashMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once stdout is found closed (a reader such as `head` has gone):
/// later output is dropped and the command runs to its end.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Write `text` to stdout, the one path every line of output takes. A
/// closed pipe stops the printing but not the command, so a run still
/// writes its files and exits 0; any other write error is the command's
/// error.
fn emit(text: std::fmt::Arguments) -> Result<(), String> {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let mut out = std::io::stdout().lock();
    match out.write_fmt(text).and_then(|()| out.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
            Ok(())
        }
        written => written.map_err(|e| format!("stdout: {e}")),
    }
}

/// `println!` through [`emit`], returning its error from the caller.
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))?
    };
}

/// Minimal `--flag value` parser: positional subcommand + flag map.
struct Args {
    command: String,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut argv = argv.peekable();
        let command = argv.next().ok_or_else(usage)?;
        let mut flags = HashMap::new();
        while let Some(arg) = argv.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {arg:?}"))?;
            let value = match argv.peek() {
                Some(v) if !v.starts_with("--") => argv.next().expect("peeked"),
                _ => "true".to_string(), // boolean flag
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(format!("duplicate flag --{name}"));
            }
        }
        Ok(Self { command, flags })
    }

    /// Refuse any flag outside `known` (space-separated names) and
    /// `--help`: a misspelt or retired flag is an error rather than
    /// silently ignored.
    fn only(&self, known: &str) -> Result<(), String> {
        let known = |f: &&String| *f == "help" || known.split_whitespace().any(|k| k == f.as_str());
        match self.flags.keys().filter(|f| !known(f)).min() {
            Some(flag) => Err(format!("unknown flag --{flag} for mmsb {}", self.command)),
            None => Ok(()),
        }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a {}", std::any::type_name::<T>())),
        }
    }
}

fn usage() -> String {
    "usage: mmsb <datasets|generate|convert|train|simulate|serve> [--flags]\n\
     observability (train/simulate): --obs-level off|metrics|spans \
     --metrics-out FILE --trace-out FILE (serve: --obs-level only)\n\
     run `mmsb <command> --help` for the command's flags"
        .to_string()
}

/// Parse `--simd`, validating the choice against the running CPU up
/// front so a forced-but-unavailable backend fails with the kernel
/// layer's own message instead of a sampler construction error later.
fn simd_from_args(args: &Args) -> Result<SimdPolicy, String> {
    let policy: SimdPolicy = match args.get("simd") {
        None => SimdPolicy::Auto,
        Some(v) => v.parse()?,
    };
    policy.resolve().map_err(|e| e.to_string())?;
    Ok(policy)
}

/// Where the observability flags said to write exports at exit.
struct ObsOutputs {
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

/// Parse `--obs-level/--metrics-out/--trace-out` and initialise the
/// global obs pipeline. Requesting an output file implies the level
/// that feeds it, so `--trace-out t.json` alone captures spans.
fn obs_setup(args: &Args) -> Result<ObsOutputs, String> {
    let metrics_out = args.get("metrics-out").map(str::to_string);
    let trace_out = args.get("trace-out").map(str::to_string);
    let implied = if trace_out.is_some() {
        ObsLevel::Spans
    } else if metrics_out.is_some() {
        ObsLevel::Metrics
    } else {
        ObsLevel::Off
    };
    let level = match args.get("obs-level") {
        None => implied,
        Some(v) => v.parse::<ObsLevel>()?.max(implied),
    };
    mmsb::obs::init(ObsConfig::at(level));
    Ok(ObsOutputs {
        metrics_out,
        trace_out,
    })
}

/// Write whatever exports the flags requested. `threads` lands in the
/// metrics snapshot's `threads` field (bench-output convention).
fn obs_finish(outputs: &ObsOutputs, threads: usize) -> Result<(), String> {
    let Some(obs) = mmsb::obs::get() else {
        return Ok(());
    };
    if let Some(path) = &outputs.trace_out {
        mmsb::obs::export::write_chrome_trace(std::path::Path::new(path), &obs.spans)
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
        outln!(
            "chrome trace ({} spans, {} dropped) written to {path}",
            obs.spans.len(),
            obs.spans.dropped()
        );
    }
    if let Some(path) = &outputs.metrics_out {
        let json = mmsb::obs::export::metrics_json(&obs.metrics, Some(&obs.spans), threads);
        std::fs::write(path, json).map_err(|e| format!("--metrics-out {path}: {e}"))?;
        outln!("metrics snapshot written to {path}");
    }
    Ok(())
}

/// What `train` and `simulate` set up alike: the obs pipeline, the
/// seed, and the sampler config at `--k` (default `default_k`) with the
/// `--simd` backend.
struct RunSetup {
    obs: ObsOutputs,
    seed: u64,
    config: SamplerConfig,
}

fn run_setup(args: &Args, default_k: usize) -> Result<RunSetup, String> {
    let obs = obs_setup(args)?;
    let seed: u64 = args.parsed("seed", 42)?;
    let k: usize = args.parsed("k", default_k)?;
    let simd = simd_from_args(args)?;
    let config = SamplerConfig::new(k).with_seed(seed).with_simd(simd);
    Ok(RunSetup { obs, seed, config })
}

/// The held-out pairs a run sets aside unless told otherwise: one per 50
/// edges, at least 16.
fn default_heldout(num_edges: u64) -> usize {
    (num_edges / 50).max(16) as usize
}

/// The held-out links `--heldout` asks for (by default
/// [`default_heldout`]), refused unless a graph of `num_vertices`
/// vertices and `num_edges` edges can supply them and as many non-links.
fn heldout_links(args: &Args, num_vertices: u32, num_edges: u64) -> Result<usize, String> {
    let links = args.parsed("heldout", default_heldout(num_edges))?;
    HeldOut::check_size(num_vertices, num_edges, links).map_err(|e| match args.get("heldout") {
        Some(_) => format!("--heldout {links}: {e}"),
        None => format!("--heldout defaults to {links} (one per 50 edges, at least 16): {e}"),
    })?;
    Ok(links)
}

/// The stream a run's held-out pairs are drawn from.
fn heldout_rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x5EED)
}

/// Save `ckpt` to `path` and say so.
fn save_checkpoint(ckpt: &Checkpoint, path: &str) -> Result<(), String> {
    ckpt.save(std::path::Path::new(path))
        .map_err(|e| e.to_string())?;
    outln!(
        "checkpoint (iteration {}) written to {path}",
        ckpt.iteration()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "datasets" => args.only("").and_then(|()| cmd_datasets()),
        "generate" => cmd_generate(&args),
        "convert" => cmd_convert(&args),
        "train" => cmd_train(&args),
        "simulate" => cmd_simulate(&args),
        "serve" => cmd_serve(&args),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_datasets() -> Result<(), String> {
    outln!(
        "{:<18} {:>14} {:>14} {:>12}   description",
        "stand-in",
        "orig vertices",
        "orig edges",
        "divisor"
    );
    for s in standins() {
        outln!(
            "{:<18} {:>14} {:>14} {:>12}   {}",
            s.name,
            s.original_vertices,
            s.original_edges,
            s.scale_divisor,
            s.description
        );
    }
    Ok(())
}

fn generated_from_args(args: &Args) -> Result<GeneratedGraph, String> {
    if let Some(name) = args.get("dataset") {
        let spec = by_name(name).ok_or_else(|| {
            format!(
                "unknown dataset {name:?}; known: {}",
                standins()
                    .iter()
                    .map(|s| s.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
        return Ok(spec.generate());
    }
    let vertices: u32 = args.parsed("vertices", 1000)?;
    let communities: usize = args.parsed("communities", 16)?;
    let mean_degree: f64 = args.parsed("mean-degree", 12.0)?;
    let overlap: f64 = args.parsed("overlap", 1.2)?;
    let seed: u64 = args.parsed("seed", 42)?;
    let config = PlantedConfig {
        num_vertices: vertices,
        num_communities: communities,
        mean_community_size: (vertices as f64 * overlap / communities as f64).max(4.0),
        memberships_per_vertex: overlap,
        internal_degree: 0.8 * mean_degree / overlap,
        background_degree: 0.2 * mean_degree,
    };
    config.check().map_err(|e| {
        let flag = match e.field {
            "num_vertices" => format!("--vertices {vertices}"),
            "num_communities" => format!("--communities {communities}"),
            "memberships_per_vertex" => format!("--overlap {overlap}"),
            // Both degrees scale with --mean-degree; the community size
            // is at least 4 here.
            _ => format!("--mean-degree {mean_degree}"),
        };
        format!("{flag}: {e}")
    })?;
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    Ok(generate_planted(&config, &mut rng))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    args.only("dataset vertices communities mean-degree overlap seed out truth")?;
    if args.get("help").is_some() {
        outln!(
            "mmsb generate [--dataset NAME | --vertices N --communities K \
             --mean-degree D --overlap O --seed S] --out FILE [--truth FILE]"
        );
        return Ok(());
    }
    let out = args.get("out").ok_or("generate needs --out FILE")?;
    let generated = generated_from_args(args)?;
    io::save_edge_list(&generated.graph, out).map_err(|e| e.to_string())?;
    outln!("{}", summarize(out, &generated.graph));
    if let Some(truth_path) = args.get("truth") {
        let mut f = std::fs::File::create(truth_path).map_err(|e| e.to_string())?;
        for members in &generated.ground_truth.communities {
            let line: Vec<String> = members.iter().map(|v| v.0.to_string()).collect();
            writeln!(f, "{}", line.join(" ")).map_err(|e| e.to_string())?;
        }
        outln!(
            "wrote {} ground-truth communities to {truth_path}",
            generated.ground_truth.num_communities()
        );
    }
    Ok(())
}

fn cmd_convert(args: &Args) -> Result<(), String> {
    args.only("input out block-size map")?;
    if args.get("help").is_some() {
        outln!(
            "mmsb convert --input FILE --out FILE [--block-size BYTES] [--map FILE]\n\
             converts a SNAP-format edge list into the compressed on-disk \
             graph (`--graph-format ooc` for `mmsb train`), streaming: \
             bounded memory regardless of edge count. Vertex ids are \
             densified to [0, N) in first-seen order; --map writes the \
             `dense original` id pairs. --block-size must be a power of \
             two >= 4096 (default 65536); every 1 KiB frame of a block \
             carries its own CRC-32 (format version 2: a file from an \
             older build is refused until it is converted again)"
        );
        return Ok(());
    }
    let input = args
        .get("input")
        .ok_or("convert needs --input FILE (a SNAP edge list)")?;
    let out = args.get("out").ok_or("convert needs --out FILE")?;
    let block_size: u32 = args.parsed("block-size", mmsb::ooc::format::DEFAULT_BLOCK_SIZE)?;
    mmsb::ooc::format::check_block_size(block_size).map_err(|e| format!("--block-size: {e}"))?;
    let opts = mmsb::ooc::BuildOptions {
        block_size,
        ..Default::default()
    };
    let (stats, mapping) =
        mmsb::ooc::convert_edge_list(input, out, opts).map_err(|e| e.to_string())?;
    outln!(
        "{out}: {} vertices, {} edges, {} bytes ({:.3} bytes/edge; raw pairs: 8.0)",
        stats.num_vertices,
        stats.num_edges,
        stats.file_bytes,
        stats.bytes_per_edge()
    );
    if stats.self_loops_dropped + stats.duplicates_dropped > 0 {
        outln!(
            "dropped {} self-loops, {} duplicate edges",
            stats.self_loops_dropped,
            stats.duplicates_dropped
        );
    }
    if let Some(map_path) = args.get("map") {
        let mut f =
            std::io::BufWriter::new(std::fs::File::create(map_path).map_err(|e| e.to_string())?);
        writeln!(f, "# dense_id original_id").map_err(|e| e.to_string())?;
        for (dense, original) in mapping.iter().enumerate() {
            writeln!(f, "{dense} {original}").map_err(|e| e.to_string())?;
        }
        outln!(
            "id mapping ({} vertices) written to {map_path}",
            mapping.len()
        );
    }
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    args.only(
        "input dataset vertices communities mean-degree overlap seed graph-format \
         cache-blocks k iters driver eval-every heldout threshold out checkpoint \
         checkpoint-every simd obs-level metrics-out trace-out",
    )?;
    if args.get("help").is_some() {
        outln!(
            "mmsb train [--input FILE | --dataset NAME | generator flags] \
             [--graph-format edges|ooc] [--cache-blocks N] \
             [--k K] [--iters N] [--driver sequential|parallel] [--eval-every N] \
             [--heldout L] [--seed S] [--threshold T] [--out FILE] \
             [--checkpoint FILE] [--checkpoint-every N] \
             [--simd auto|scalar|avx2|neon] \
             [--obs-level off|metrics|spans] [--metrics-out FILE] [--trace-out FILE]\n\
             --graph-format ooc trains out-of-core: --input names a file \
             from `mmsb convert`, adjacency stays on disk behind caches \
             of 1 KiB checksummed frames, --cache-blocks blocks' worth per \
             pool thread plus one share more, split over regions of the \
             file; a cache miss reads and verifies only the frames its \
             list spans (held-out pairs are sampled by access, links stay \
             in the training graph); a frame read that fails \
             mid-training exits 1\n\
             --driver sequential is --driver parallel at one thread: the \
             same chain; `mmsb simulate` runs the master-worker cluster\n\
             --checkpoint writes the final model as a servable checkpoint \
             (`mmsb serve --model FILE`); --checkpoint-every also saves \
             every N iterations"
        );
        return Ok(());
    }
    let RunSetup { obs, seed, config } = run_setup(args, 16)?;
    let driver = args.get("driver").unwrap_or("parallel");
    // One driver: `sequential` is its one-thread spelling (inline
    // execution, no pool threads) and yields the same chain.
    let threads = match driver {
        "sequential" => 1,
        "parallel" => mmsb::obs::export::host_cores(),
        other => return Err(format!("unknown driver {other:?} (sequential, parallel)")),
    };
    let cache_blocks: usize = args.parsed("cache-blocks", mmsb::ooc::DEFAULT_CACHE_BLOCKS)?;
    let (backend, heldout, truth) = match args.get("graph-format").unwrap_or("edges") {
        "edges" => {
            let (graph, truth) = if let Some(path) = args.get("input") {
                let loaded = io::load_edge_list(path).map_err(|e| e.to_string())?;
                (loaded.graph, None)
            } else {
                let generated = generated_from_args(args)?;
                (generated.graph, Some(generated.ground_truth))
            };
            let links = heldout_links(args, graph.num_vertices(), graph.num_edges())?;
            let (train, heldout) = HeldOut::split(&graph, links, &mut heldout_rng(seed));
            (GraphBackend::Resident(train), heldout, truth)
        }
        "ooc" => {
            let path = args
                .get("input")
                .ok_or("--graph-format ooc needs --input FILE (from `mmsb convert`)")?;
            let graph = OocGraph::open(path).map_err(|e| format!("{path}: {e}"))?;
            // Frame CRCs are checked on every cache load; front-load the
            // scan so a corrupt file is a startup error, not one after
            // the set-up. A frame that goes bad later still ends
            // training with an error (`try_step`).
            graph.verify_blocks().map_err(|e| format!("{path}: {e}"))?;
            let links = heldout_links(args, graph.num_vertices(), graph.num_edges())?;
            // Out-of-core held-out pairs are sampled by access (links
            // stay in the training adjacency) — removing edges would
            // mean rewriting the on-disk file.
            let mut cache = BlockCache::for_graph(&graph, cache_blocks, seed ^ 0x0C);
            let heldout = HeldOut::sample_observed(
                mmsb::ooc::OocReader::new(&graph, &mut cache),
                links,
                &mut heldout_rng(seed),
            );
            (GraphBackend::OutOfCore(graph), heldout, None)
        }
        other => return Err(format!("--graph-format expects edges/ooc, got {other:?}")),
    };
    let k = config.k;
    let iters: u64 = args.parsed("iters", 2000)?;
    let eval_every: u64 = args.parsed("eval-every", 250)?;
    // The sampler checks its config again when built; checking it first
    // keeps a bad `--k` from reading as a bad default `--threshold`.
    config
        .validate(backend.num_vertices())
        .map_err(|e| e.to_string())?;
    let threshold: f32 = args.parsed("threshold", (0.5 / k as f64) as f32)?;
    Communities::check_threshold(threshold).map_err(|e| format!("--threshold: {e}"))?;
    let checkpoint_path = args.get("checkpoint");
    let checkpoint_every: u64 = args.parsed("checkpoint-every", 0)?;
    if checkpoint_every > 0 && checkpoint_path.is_none() {
        return Err("--checkpoint-every needs --checkpoint FILE".to_string());
    }

    let num_vertices = backend.num_vertices();
    let config = config.with_graph_cache_blocks(cache_blocks);
    outln!(
        "training on {} vertices / {} edges ({}), K = {k}, {iters} iterations, \
         driver = {driver}, simd = {}",
        backend.num_vertices(),
        backend.num_edges(),
        match &backend {
            GraphBackend::Resident(_) => "resident",
            GraphBackend::OutOfCore(_) => "out-of-core",
        },
        config.backend()
    );

    let mut s = ParallelSampler::with_backend_threads(backend, heldout, config, threads)
        .map_err(|e| e.to_string())?;
    // Evaluate every `eval_every` steps and at the end; save every
    // `checkpoint_every` steps and the final model.
    for done in 1..=iters {
        s.try_step().map_err(|e| e.to_string())?;
        if done % eval_every.max(1) == 0 || done == iters {
            let perplexity = s.evaluate_perplexity();
            outln!("iter {done:>7}  perplexity {perplexity:.4}");
        }
        let due = done < iters && done.checked_rem(checkpoint_every) == Some(0);
        if let Some(path) = checkpoint_path.filter(|_| due) {
            save_checkpoint(&s.checkpoint(), path)?;
        }
    }
    if let Some(path) = checkpoint_path {
        save_checkpoint(&s.checkpoint(), path)?;
    }

    let communities = Communities::from_state(s.state(), threshold);
    outln!(
        "detected {} non-empty communities (threshold {threshold})",
        communities.num_nonempty()
    );
    if let Some(truth) = truth {
        let f1 = eval::best_match_f1(&communities.members, &truth);
        let nmi = eval::overlapping_nmi(&communities.members, &truth, num_vertices);
        outln!("recovery vs planted truth: F1 {f1:.3}, overlapping NMI {nmi:.3}");
    }
    if let Some(out) = args.get("out") {
        let mut f = std::fs::File::create(out).map_err(|e| e.to_string())?;
        writeln!(f, "# community_id\tmembers").map_err(|e| e.to_string())?;
        for (c, members) in communities.members.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let line: Vec<String> = members.iter().map(|v| v.0.to_string()).collect();
            writeln!(f, "{c}\t{}", line.join(" ")).map_err(|e| e.to_string())?;
        }
        outln!("communities written to {out}");
    }
    obs_finish(&obs, mmsb::obs::export::host_cores())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    args.only(
        "dataset vertices communities mean-degree overlap seed workers k iters pipeline \
         faults kill checkpoint-every checkpoint resume simd obs-level metrics-out trace-out",
    )?;
    if args.get("help").is_some() {
        outln!(
            "mmsb simulate [--workers R] [--k K] [--iters N] [--pipeline on|off] \
             [--faults SEED] [--kill ITER:RANK] [--checkpoint-every N] \
             [--checkpoint FILE] [--resume FILE] [generator flags] \
             [--simd auto|scalar|avx2|neon] \
             [--obs-level off|metrics|spans] [--metrics-out FILE] [--trace-out FILE]\n\
             --checkpoint-every N is the modelled rollback cadence of a \
             --kill (the lost worker's steps since the last multiple of N \
             are re-priced); it saves nothing and needs --kill. \
             --checkpoint FILE saves the final model"
        );
        return Ok(());
    }
    let RunSetup { obs, seed, config } = run_setup(args, 32)?;
    let workers: usize = args.parsed("workers", 16)?;
    let iters: u64 = args.parsed("iters", 50)?;
    let pipeline = match args.get("pipeline").unwrap_or("on") {
        "on" | "true" => PipelineMode::Double,
        "off" | "false" => PipelineMode::Single,
        other => return Err(format!("--pipeline expects on/off, got {other:?}")),
    };

    // Failure-layer flags: --faults arms the transient plan, --kill adds a
    // permanent worker loss, --checkpoint-every sets the rollback cadence,
    // --checkpoint/--resume save and restore the full sampler state.
    let mut faults: Option<FaultConfig> = match args.get("faults") {
        None => None,
        Some(v) => {
            let fseed: u64 = v.parse().map_err(|_| "--faults expects a seed (u64)")?;
            Some(FaultConfig::transient(fseed))
        }
    };
    if let Some(spec) = args.get("kill") {
        let (it, rank) = spec
            .split_once(':')
            .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<usize>().ok()?)))
            .ok_or("--kill expects ITER:RANK")?;
        faults = Some(
            faults
                .unwrap_or_else(|| FaultConfig::none(seed))
                .with_kill(it, rank),
        );
    }
    let checkpoint_every: u64 = args.parsed("checkpoint-every", 0)?;
    if checkpoint_every > 0 && args.get("kill").is_none() {
        return Err(
            "--checkpoint-every is the modelled rollback cadence of a --kill \
             and saves nothing: it needs --kill ITER:RANK"
                .to_string(),
        );
    }

    let generated = generated_from_args(args)?;
    let graph = &generated.graph;
    let links = default_heldout(graph.num_edges());
    HeldOut::check_size(graph.num_vertices(), graph.num_edges(), links).map_err(|e| {
        format!("the generated graph cannot supply its {links} held-out links: {e}")
    })?;
    let (train, heldout) = HeldOut::split(graph, links, &mut heldout_rng(seed));
    let backend = config.backend();
    let mut dcfg = DistributedConfig::das5(workers).with_pipeline(pipeline);
    if let Some(fc) = faults {
        dcfg = dcfg.with_faults(fc);
    }
    let mut sampler = match args.get("resume") {
        Some(path) => {
            let ckpt = Checkpoint::load(std::path::Path::new(path)).map_err(|e| e.to_string())?;
            outln!("resuming from {path} at iteration {}", ckpt.iteration());
            DistributedSampler::resume(train, heldout, config, dcfg, &ckpt)
                .map_err(|e| e.to_string())?
        }
        None => DistributedSampler::new(train, heldout, config, dcfg).map_err(|e| e.to_string())?,
    };
    // A kill fires at the start of its iteration, so one this run never
    // steps would leave the run fault-free without a word.
    let start = sampler.iteration();
    let end = start.saturating_add(iters);
    if let Some((it, _)) = faults.and_then(|f| f.kill_worker) {
        if !(start..end).contains(&it) {
            return Err(format!(
                "--kill iteration {it} never runs: this run steps iterations {start}..{end}"
            ));
        }
    }
    if checkpoint_every > 0 {
        sampler = sampler.with_checkpoint_every(checkpoint_every);
    }
    sampler.run(iters);
    let perplexity = sampler.evaluate_perplexity();
    outln!(
        "simulated {workers}-worker cluster, {iters} iterations, pipeline {:?}, simd {backend}:\n",
        pipeline
    );
    let report = sampler.report();
    // Re-emit the virtual-time phase breakdown as obs spans so a
    // --trace-out file shows the same stage boundaries as the printout.
    mmsb::netsim::obs_bridge::emit_trace_as_spans(&report);
    emit(format_args!("{report}"))?;
    outln!("\nvirtual time: {:.4} s", sampler.virtual_time());
    outln!("held-out perplexity: {perplexity:.4}");
    if let Some(dead) = sampler.lost_worker() {
        outln!(
            "worker {dead} was lost; finished degraded on {} workers",
            sampler.workers()
        );
    }
    if let Some(path) = args.get("checkpoint") {
        save_checkpoint(&sampler.checkpoint(), path)?;
    }
    obs_finish(&obs, workers)
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    // No --metrics-out/--trace-out: serve runs until killed, so it never
    // writes them; its metrics are `GET /metricsz`.
    args.only("model addr threads delta k simd deadline-ms obs-level")?;
    if args.get("help").is_some() {
        outln!(
            "mmsb serve --model FILE [--addr HOST:PORT] [--threads N] \
             [--delta D] [--k K] [--simd auto|scalar|avx2|neon] \
             [--deadline-ms MS] [--obs-level off|metrics|spans]\n\
             serves a checkpoint (from `mmsb train --checkpoint` or \
             `mmsb simulate --checkpoint`) over HTTP until killed, with no \
             drain; --k is the default top-k for /v1/membership (1..={cap}: a \
             snapshot ranks each vertex's {cap} heaviest communities, and \
             a ?k= above min(K, {cap}) is clamped to it), --delta the \
             Eq. 7 inter-community link probability.\n\
             overload protection: --threads workers each serve one \
             connection at a time; while all of them are busy, queued \
             connections get a fast-path 503 + Retry-After. --deadline-ms \
             bounds each response (across all its partial writes) and \
             half-received requests (default 5000).\n\
             endpoints: GET /healthz | GET /metricsz | \
             GET /v1/membership/VERTEX?k=N | GET /v1/edge/I/J | \
             GET /v1/community/C?min_weight=W | POST /v1/reload",
            cap = mmsb::serve::TOP_K_CAP
        );
        return Ok(());
    }
    obs_setup(args)?;
    let model = args
        .get("model")
        .ok_or("serve needs --model FILE (a checkpoint; see `mmsb train --help`)")?;
    let simd = simd_from_args(args)?;
    let backend = simd.resolve().map_err(|e| e.to_string())?;
    let cfg = mmsb::serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7070").to_string(),
        threads: args.parsed("threads", 1)?,
        delta: args.parsed("delta", 1e-5)?,
        backend,
        default_k: args.parsed("k", 5)?,
        deadline_ms: args.parsed("deadline-ms", 5_000)?,
    };
    let handle = mmsb::serve::ServeHandle::start(std::path::Path::new(model), &cfg)
        .map_err(|e| e.to_string())?;
    outln!(
        "serving {model} at http://{} — {} worker thread(s), simd {backend}, \
         generation {}",
        handle.addr(),
        cfg.threads.max(1),
        handle.generation()
    );
    outln!(
        "endpoints: /healthz /metricsz /v1/membership/{{v}}?k= \
         /v1/edge/{{i}}/{{j}} /v1/community/{{c}}?min_weight= (POST) /v1/reload"
    );
    // Serve until the process is killed; the handle's workers do all
    // the work, this thread just stays parked.
    loop {
        std::thread::park();
    }
}
