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
     --metrics-out FILE --trace-out FILE\n\
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
        Some(v) => v
            .parse::<ObsLevel>()?
            .max(implied),
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
        println!(
            "chrome trace ({} spans, {} dropped) written to {path}",
            obs.spans.len(),
            obs.spans.dropped()
        );
    }
    if let Some(path) = &outputs.metrics_out {
        let json = mmsb::obs::export::metrics_json(&obs.metrics, Some(&obs.spans), threads);
        std::fs::write(path, json).map_err(|e| format!("--metrics-out {path}: {e}"))?;
        println!("metrics snapshot written to {path}");
    }
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
        "datasets" => cmd_datasets(),
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
    println!(
        "{:<18} {:>14} {:>14} {:>12}   description",
        "stand-in", "orig vertices", "orig edges", "divisor"
    );
    for s in standins() {
        println!(
            "{:<18} {:>14} {:>14} {:>12}   {}",
            s.name, s.original_vertices, s.original_edges, s.scale_divisor, s.description
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
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    Ok(generate_planted(&config, &mut rng))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    if args.get("help").is_some() {
        println!(
            "mmsb generate [--dataset NAME | --vertices N --communities K \
             --mean-degree D --overlap O --seed S] --out FILE [--truth FILE]"
        );
        return Ok(());
    }
    let out = args.get("out").ok_or("generate needs --out FILE")?;
    let generated = generated_from_args(args)?;
    io::save_edge_list(&generated.graph, out).map_err(|e| e.to_string())?;
    println!("{}", summarize(out, &generated.graph));
    if let Some(truth_path) = args.get("truth") {
        let mut f = std::fs::File::create(truth_path).map_err(|e| e.to_string())?;
        for members in &generated.ground_truth.communities {
            let line: Vec<String> = members.iter().map(|v| v.0.to_string()).collect();
            writeln!(f, "{}", line.join(" ")).map_err(|e| e.to_string())?;
        }
        println!(
            "wrote {} ground-truth communities to {truth_path}",
            generated.ground_truth.num_communities()
        );
    }
    Ok(())
}

fn cmd_convert(args: &Args) -> Result<(), String> {
    if args.get("help").is_some() {
        println!(
            "mmsb convert --input FILE --out FILE [--block-size BYTES] [--map FILE]\n\
             converts a SNAP-format edge list into the compressed on-disk \
             graph (`--graph-format ooc` for `mmsb train`), streaming: \
             bounded memory regardless of edge count. Vertex ids are \
             densified to [0, N) in first-seen order; --map writes the \
             `dense original` id pairs. --block-size must be a power of \
             two >= 4096 (default 65536)"
        );
        return Ok(());
    }
    let input = args
        .get("input")
        .ok_or("convert needs --input FILE (a SNAP edge list)")?;
    let out = args.get("out").ok_or("convert needs --out FILE")?;
    let block_size: u32 =
        args.parsed("block-size", mmsb::ooc::format::DEFAULT_BLOCK_SIZE)?;
    let opts = mmsb::ooc::BuildOptions {
        block_size,
        ..Default::default()
    };
    let (stats, mapping) =
        mmsb::ooc::convert_edge_list(input, out, opts).map_err(|e| e.to_string())?;
    println!(
        "{out}: {} vertices, {} edges, {} bytes ({:.3} bytes/edge; raw pairs: 8.0)",
        stats.num_vertices,
        stats.num_edges,
        stats.file_bytes,
        stats.bytes_per_edge()
    );
    if stats.self_loops_dropped + stats.duplicates_dropped > 0 {
        println!(
            "dropped {} self-loops, {} duplicate edges",
            stats.self_loops_dropped, stats.duplicates_dropped
        );
    }
    if let Some(map_path) = args.get("map") {
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(map_path).map_err(|e| e.to_string())?,
        );
        writeln!(f, "# dense_id original_id").map_err(|e| e.to_string())?;
        for (dense, original) in mapping.iter().enumerate() {
            writeln!(f, "{dense} {original}").map_err(|e| e.to_string())?;
        }
        println!("id mapping ({} vertices) written to {map_path}", mapping.len());
    }
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    if args.get("help").is_some() {
        println!(
            "mmsb train [--input FILE | --dataset NAME | generator flags] \
             [--graph-format edges|ooc] [--cache-blocks N] \
             [--k K] [--iters N] [--driver sequential|parallel|threaded] \
             [--workers R] [--pipeline on|off] [--eval-every N] \
             [--heldout L] [--seed S] [--threshold T] [--out FILE] \
             [--checkpoint FILE] [--checkpoint-every N] \
             [--simd auto|scalar|sse2|avx2|neon] \
             [--obs-level off|metrics|spans] [--metrics-out FILE] [--trace-out FILE]\n\
             --graph-format ooc trains out-of-core: --input names a file \
             from `mmsb convert`, adjacency stays on disk behind a \
             --cache-blocks block cache per worker (sequential/parallel \
             drivers; held-out pairs are sampled by access, links stay \
             in the training graph)\n\
             --checkpoint writes the final model as a servable checkpoint \
             (`mmsb serve --model FILE`); --checkpoint-every also saves \
             every N iterations (sequential/parallel drivers; the \
             threaded driver checkpoints once, at the end)"
        );
        return Ok(());
    }
    let obs_out = obs_setup(args)?;
    let seed: u64 = args.parsed("seed", 42)?;
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
            let heldout_links: usize =
                args.parsed("heldout", ((graph.num_edges() / 50).max(16)) as usize)?;
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x5EED);
            let (train, heldout) = HeldOut::split(&graph, heldout_links, &mut rng);
            (GraphBackend::Resident(train), heldout, truth)
        }
        "ooc" => {
            let path = args
                .get("input")
                .ok_or("--graph-format ooc needs --input FILE (from `mmsb convert`)")?;
            let graph = OocGraph::open(path).map_err(|e| format!("{path}: {e}"))?;
            // Block CRCs are normally checked lazily on cache load;
            // front-load the scan so a corrupt file is a clean startup
            // error, not a panic deep in the first mini-batch.
            graph.verify_blocks().map_err(|e| format!("{path}: {e}"))?;
            let heldout_links: usize =
                args.parsed("heldout", ((graph.num_edges() / 50).max(16)) as usize)?;
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x5EED);
            // Out-of-core held-out pairs are sampled by access (links
            // stay in the training adjacency) — removing edges would
            // mean rewriting the on-disk file.
            let mut cache = BlockCache::for_graph(&graph, cache_blocks, seed ^ 0x0C);
            let heldout = HeldOut::sample_observed(
                mmsb::ooc::OocReader::new(&graph, &mut cache),
                heldout_links,
                &mut rng,
            );
            (GraphBackend::OutOfCore(graph), heldout, None)
        }
        other => return Err(format!("--graph-format expects edges/ooc, got {other:?}")),
    };
    let k: usize = args.parsed("k", 16)?;
    let iters: u64 = args.parsed("iters", 2000)?;
    let eval_every: u64 = args.parsed("eval-every", 250)?;
    let threshold: f32 = args.parsed("threshold", (0.5 / k as f64) as f32)?;
    let driver = args.get("driver").unwrap_or("parallel");
    let workers: usize = args.parsed("workers", 4)?;
    let pipeline = match args.get("pipeline").unwrap_or("on") {
        "on" => PipelineMode::Double,
        "off" => PipelineMode::Single,
        other => return Err(format!("--pipeline expects on/off, got {other:?}")),
    };
    let checkpoint_path = args.get("checkpoint").map(str::to_string);
    let checkpoint_every: u64 = args.parsed("checkpoint-every", 0)?;
    if checkpoint_every > 0 && checkpoint_path.is_none() {
        return Err("--checkpoint-every needs --checkpoint FILE".to_string());
    }
    let save_checkpoint = |ckpt: &Checkpoint, iteration: u64| -> Result<(), String> {
        let path = checkpoint_path.as_deref().expect("gated on --checkpoint");
        ckpt.save(std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
        println!("checkpoint (iteration {iteration}) written to {path}");
        Ok(())
    };

    let simd = simd_from_args(args)?;

    let num_vertices = backend.num_vertices();
    let config = SamplerConfig::new(k)
        .with_seed(seed)
        .with_simd(simd)
        .with_graph_cache_blocks(cache_blocks);
    println!(
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

    // Train with the chosen driver; collect the final state plus the
    // perplexity trace printed along the way.
    let state: ModelState = match driver {
        "sequential" | "parallel" => {
            // One driver: `sequential` is its one-thread spelling (inline
            // execution, no pool threads) and yields the same chain.
            let threads = if driver == "sequential" {
                1
            } else {
                mmsb::obs::export::host_cores()
            };
            let mut s = ParallelSampler::with_backend_threads(backend, heldout, config, threads)
                .map_err(|e| e.to_string())?;
            // Step to whichever boundary comes first — evaluation or
            // checkpoint — so both cadences hold without overshooting.
            let mut done = 0u64;
            let mut next_eval = eval_every.max(1);
            let mut next_ckpt = if checkpoint_every > 0 {
                checkpoint_every
            } else {
                u64::MAX
            };
            let mut last_saved: Option<u64> = None;
            while done < iters {
                let stop = iters.min(next_eval).min(next_ckpt);
                s.run(stop - done);
                done = stop;
                if done == next_eval || done == iters {
                    let perplexity = s.evaluate_perplexity();
                    println!("iter {done:>7}  perplexity {perplexity:.4}");
                    next_eval = done + eval_every.max(1);
                }
                if done == next_ckpt {
                    save_checkpoint(&s.checkpoint(), done)?;
                    last_saved = Some(done);
                    next_ckpt = done + checkpoint_every;
                }
            }
            if checkpoint_path.is_some() && last_saved != Some(done) {
                save_checkpoint(&s.checkpoint(), done)?;
            }
            s.state().clone()
        }
        "threaded" => {
            let GraphBackend::Resident(train) = backend else {
                return Err(
                    "--driver threaded requires a resident graph (--graph-format edges); \
                     use sequential or parallel for out-of-core training"
                        .to_string(),
                );
            };
            let outcome =
                train_threaded(train, heldout, config, workers, iters, eval_every, pipeline)
                    .map_err(|e| e.to_string())?;
            for (it, perplexity) in &outcome.perplexity_trace {
                println!("iter {it:>7}  perplexity {perplexity:.4}");
            }
            if checkpoint_path.is_some() {
                save_checkpoint(&outcome.checkpoint, iters)?;
            }
            outcome.state
        }
        other => {
            return Err(format!(
                "unknown driver {other:?} (sequential, parallel, threaded)"
            ))
        }
    };

    let communities = Communities::from_state(&state, threshold);
    println!(
        "detected {} non-empty communities (threshold {threshold})",
        communities.num_nonempty()
    );
    if let Some(truth) = truth {
        let f1 = eval::best_match_f1(&communities.members, &truth);
        let nmi = eval::overlapping_nmi(&communities.members, &truth, num_vertices);
        println!("recovery vs planted truth: F1 {f1:.3}, overlapping NMI {nmi:.3}");
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
        println!("communities written to {out}");
    }
    let threads = if driver == "threaded" {
        workers
    } else {
        mmsb::obs::export::host_cores()
    };
    obs_finish(&obs_out, threads)
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    if args.get("help").is_some() {
        println!(
            "mmsb simulate [--workers R] [--k K] [--iters N] [--pipeline on|off] \
             [--faults SEED] [--kill ITER:RANK] [--checkpoint-every N] \
             [--checkpoint FILE] [--resume FILE] [generator flags] \
             [--simd auto|scalar|sse2|avx2|neon] \
             [--obs-level off|metrics|spans] [--metrics-out FILE] [--trace-out FILE]"
        );
        return Ok(());
    }
    let obs_out = obs_setup(args)?;
    let workers: usize = args.parsed("workers", 16)?;
    let k: usize = args.parsed("k", 32)?;
    let iters: u64 = args.parsed("iters", 50)?;
    let seed: u64 = args.parsed("seed", 42)?;
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

    let simd = simd_from_args(args)?;
    let generated = generated_from_args(args)?;
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x5EED);
    let links = (generated.graph.num_edges() / 50).max(16) as usize;
    let (train, heldout) = HeldOut::split(&generated.graph, links, &mut rng);
    let config = SamplerConfig::new(k).with_seed(seed).with_simd(simd);
    let backend = config.backend();
    let mut dcfg = DistributedConfig::das5(workers).with_pipeline(pipeline);
    if let Some(fc) = faults {
        dcfg = dcfg.with_faults(fc);
    }
    let mut sampler = match args.get("resume") {
        Some(path) => {
            let ckpt =
                Checkpoint::load(std::path::Path::new(path)).map_err(|e| e.to_string())?;
            println!("resuming from {path} at iteration {}", ckpt.iteration());
            DistributedSampler::resume(train, heldout, config, dcfg, &ckpt)
                .map_err(|e| e.to_string())?
        }
        None => DistributedSampler::new(train, heldout, config, dcfg)
            .map_err(|e| e.to_string())?,
    };
    if checkpoint_every > 0 {
        sampler = sampler.with_checkpoint_every(checkpoint_every);
    }
    sampler.run(iters);
    let perplexity = sampler.evaluate_perplexity();
    println!(
        "simulated {workers}-worker cluster, {iters} iterations, pipeline {:?}, simd {backend}:\n",
        pipeline
    );
    let report = sampler.report();
    // Re-emit the virtual-time phase breakdown as obs spans so a
    // --trace-out file shows the same stage boundaries as the printout.
    mmsb::netsim::obs_bridge::emit_trace_as_spans(&report);
    print!("{report}");
    println!("\nvirtual time: {:.4} s", sampler.virtual_time());
    println!("held-out perplexity: {perplexity:.4}");
    if let Some(dead) = sampler.lost_worker() {
        println!(
            "worker {dead} was lost; finished degraded on {} workers",
            sampler.workers()
        );
    }
    if let Some(path) = args.get("checkpoint") {
        sampler
            .checkpoint()
            .save(std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
        println!(
            "checkpoint (iteration {}) written to {path}",
            sampler.iteration()
        );
    }
    obs_finish(&obs_out, workers)
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    if args.get("help").is_some() {
        println!(
            "mmsb serve --model FILE [--addr HOST:PORT] [--threads N] \
             [--delta D] [--k K] [--simd auto|scalar|sse2|avx2|neon] \
             [--max-conns N] [--max-inflight N] [--deadline-ms MS] \
             [--drain-ms MS] [--keepalive-budget N] [--rate-limit QPS] \
             [--obs-level off|metrics|spans]\n\
             serves a checkpoint (from `mmsb train --checkpoint` or \
             `mmsb simulate --checkpoint`) over HTTP until killed; \
             --k is the default top-k for /v1/membership, --delta the \
             Eq. 7 inter-community link probability, --threads the \
             number of concurrently served connections.\n\
             overload protection: --max-conns / --max-inflight cap \
             admitted connections / in-flight requests (0 = auto = \
             threads; excess traffic gets fast-path 503 + Retry-After), \
             --deadline-ms bounds response writes and half-received \
             requests (default 5000), --drain-ms is the graceful-drain \
             budget on shutdown (default 2000), --keepalive-budget \
             closes a connection after N requests so queued peers get a \
             turn (0 = unlimited), --rate-limit answers 429 over QPS \
             requests/second per worker (0 = off).\n\
             endpoints: GET /healthz | GET /metricsz | \
             GET /v1/membership/VERTEX?k=N | GET /v1/edge/I/J | \
             GET /v1/community/C?min_weight=W | POST /v1/reload"
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
        max_conns: args.parsed("max-conns", 0)?,
        max_inflight: args.parsed("max-inflight", 0)?,
        deadline_ms: args.parsed("deadline-ms", 5_000)?,
        drain_ms: args.parsed("drain-ms", 2_000)?,
        keepalive_budget: args.parsed("keepalive-budget", 0)?,
        rate_limit: args.parsed("rate-limit", 0)?,
    };
    let handle = mmsb::serve::ServeHandle::start(std::path::Path::new(model), &cfg)
        .map_err(|e| e.to_string())?;
    println!(
        "serving {model} at http://{} — {} worker thread(s), simd {backend}, \
         generation {}",
        handle.addr(),
        cfg.threads.max(1),
        handle.generation()
    );
    println!(
        "endpoints: /healthz /metricsz /v1/membership/{{v}}?k= \
         /v1/edge/{{i}}/{{j}} /v1/community/{{c}}?min_weight= (POST) /v1/reload"
    );
    // Serve until the process is killed; the handle's workers do all
    // the work, this thread just stays parked.
    loop {
        std::thread::park();
    }
}
