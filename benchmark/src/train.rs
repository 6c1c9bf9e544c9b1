//! The three training workloads: `train_resident`, `train_ooc` and
//! `train_cluster_sim`.
//!
//! Timed-window rule: construct, three warm-up steps, and set-up ends; then
//! step in chunks of `chunk` steps, each chunk timed; after `q` timed steps
//! the held-out perplexity is evaluated between chunks (untimed); the window
//! closes at the first chunk boundary with at least `--seconds` of timed
//! time and the perplexity taken. The rate is the median chunk rate, so a
//! faster commit still gets a full-length window and the perplexity is
//! always taken at the same iteration.

use crate::adapter::{self, Source, StreamShape, TrainConfig, Trainer};
use crate::run::{peak_rss_mb, reset_peak_rss, Run, Unit, Units};
use crate::{probes, stats, verify};
use std::path::Path;

const WARMUP_STEPS: u64 = 3;

#[derive(Debug, Clone, Copy)]
pub enum Backend {
    Resident,
    OutOfCore {
        block_size: u32,
        cache_blocks: usize,
    },
    Cluster {
        workers: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub stream: StreamShape,
    pub heldout_links: usize,
    pub k: usize,
    pub partitions: usize,
    pub anchors: usize,
    /// Steps per timed chunk.
    pub chunk: u64,
    /// Timed steps before the perplexity is taken.
    pub q: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub backend: Backend,
}

/// The fixed sizes of a training workload. `quick` divides the graph by 20.
pub fn shape(workload: &str, quick: bool) -> Shape {
    let graph = StreamShape {
        vertices: 100_000,
        communities: 100,
        emitted_edges: 2_000_000,
    };
    let full = match workload {
        // Kernel-bound: K = 64, so update_phi dominates a step and the graph
        // layers do next to nothing.
        "train_resident" => Shape {
            stream: graph,
            heldout_links: 20_000,
            k: 64,
            partitions: 2_500,
            anchors: 400,
            chunk: 5,
            q: 100,
            setups: 3,
            backend: Backend::Resident,
        },
        // Graph-read-bound: K = 16 and a cache of 64 blocks per worker over a
        // file of several hundred, so a step is mostly block reads.
        "train_ooc" => Shape {
            stream: StreamShape {
                vertices: 120_000,
                communities: 120,
                emitted_edges: 3_000_000,
            },
            heldout_links: 20_000,
            k: 16,
            partitions: 2_400,
            anchors: 12,
            chunk: 2,
            q: 20,
            setups: 3,
            backend: Backend::OutOfCore {
                block_size: 16 * 1024,
                cache_blocks: 64,
            },
        },
        // The paper's master-worker protocol on the resident graph: the only
        // workload in which dkv, comm, netsim and the prefetcher do work.
        "train_cluster_sim" => Shape {
            stream: graph,
            heldout_links: 20_000,
            k: 64,
            partitions: 2_500,
            anchors: 400,
            chunk: 2,
            q: 50,
            setups: 3,
            backend: Backend::Cluster { workers: 8 },
        },
        other => panic!("not a training workload: {other}"),
    };
    if !quick {
        return full;
    }
    Shape {
        stream: StreamShape {
            vertices: full.stream.vertices / 20,
            communities: full.stream.communities / 20,
            emitted_edges: full.stream.emitted_edges / 20,
        },
        heldout_links: full.heldout_links / 20,
        partitions: (full.partitions / 20).max(4),
        q: full.chunk,
        setups: 2,
        backend: match full.backend {
            Backend::OutOfCore { cache_blocks, .. } => Backend::OutOfCore {
                block_size: 4 * 1024,
                cache_blocks: cache_blocks / 4,
            },
            other => other,
        },
        ..full
    }
}

/// Time spent in each program call of one set-up.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    load_s: f64,
    convert_s: f64,
    open_verify_s: f64,
    heldout_s: f64,
    construct_s: f64,
    warmup_s: f64,
    converted_edges: u64,
    converted_bytes: u64,
}

impl SetupTimes {
    /// Every program call between the input file existing and the first
    /// timed chunk.
    fn total(&self) -> f64 {
        self.load_s
            + self.convert_s
            + self.open_verify_s
            + self.heldout_s
            + self.construct_s
            + self.warmup_s
    }
}

/// What the probes need from the last set-up: the workload's own graph and
/// held-out set, kept beside the sampler that consumed its copies.
pub struct ProbeData {
    pub source: Source,
    pub heldout: adapter::HeldOut,
}

struct Setup {
    trainer: Trainer,
    times: SetupTimes,
    probe_data: Option<ProbeData>,
    /// Perplexity before any step (first set-up only).
    initial_perplexity: Option<f64>,
}

/// One set-up: from the text edge list to a warmed-up sampler.
fn setup(
    run: &mut Run,
    shape: &Shape,
    config: &TrainConfig,
    threads: usize,
    edges: &Path,
    keep_probe_data: bool,
    evaluate_initial: bool,
) -> Result<Setup, String> {
    let mut times = SetupTimes::default();
    let outer = run.tracer.begin("bench.setup");
    let heldout_seed = run.seed_for(3);
    let (source, heldout) = match shape.backend {
        Backend::Resident | Backend::Cluster { .. } => {
            let (graph, s) = run
                .tracer
                .time("graph.load_edge_list", || adapter::load_graph(edges));
            times.load_s = s;
            let graph = graph?;
            let ((train, heldout), s) = run.tracer.time("graph.heldout", || {
                adapter::heldout_split(&graph, shape.heldout_links, heldout_seed)
            });
            times.heldout_s = s;
            (Source::Resident(train), heldout)
        }
        Backend::OutOfCore {
            block_size,
            cache_blocks,
        } => {
            let ooc_path = run.dir.join("graph.ooc");
            let dir = run.dir.clone();
            let (converted, s) = run.tracer.time("ooc.convert", || {
                adapter::convert(edges, &ooc_path, block_size, &dir)
            });
            times.convert_s = s;
            let converted = converted?;
            times.converted_edges = converted.edges;
            times.converted_bytes = converted.file_bytes;
            let (file, s) = run
                .tracer
                .time("ooc.open_verify", || adapter::open_verified(&ooc_path));
            times.open_verify_s = s;
            let file = file?;
            let (heldout, s) = run.tracer.time("graph.heldout", || {
                adapter::heldout_observed(&file, shape.heldout_links, cache_blocks, heldout_seed)
            });
            times.heldout_s = s;
            (Source::OutOfCore(file), heldout)
        }
    };
    // The probes' copies are made outside every timed span.
    let probe_data = if keep_probe_data {
        let copy = match &source {
            Source::Resident(graph) => Source::Resident(graph.clone()),
            Source::OutOfCore(_) => {
                Source::OutOfCore(adapter::open_verified(&run.dir.join("graph.ooc"))?)
            }
        };
        Some(ProbeData {
            source: copy,
            heldout: heldout.clone(),
        })
    } else {
        None
    };
    let (trainer, s) = run
        .tracer
        .time("core.construct", || match (shape.backend, source) {
            (Backend::Cluster { workers }, Source::Resident(graph)) => {
                Trainer::cluster(graph, heldout, config, workers)
            }
            (_, source) => Trainer::parallel(source, heldout, config, threads),
        });
    times.construct_s = s;
    let mut trainer = trainer?;
    let initial_perplexity = evaluate_initial.then(|| trainer.perplexity());
    let ((), s) = run.tracer.time("core.warmup", || {
        for _ in 0..WARMUP_STEPS {
            trainer.step();
        }
    });
    times.warmup_s = s;
    run.tracer.end(outer);
    Ok(Setup {
        trainer,
        times,
        probe_data,
        initial_perplexity,
    })
}

/// What the timed window measured besides the chunk rates.
struct Window {
    units: Units,
    step_ms: Vec<f64>,
    steps: u64,
    traced_steps: u64,
    virtual_s: f64,
    netsim_s: [f64; adapter::NETSIM_ROWS.len()],
    perplexity: f64,
    perplexity_eval_s: f64,
}

/// Step in timed chunks until the window is full and the perplexity taken.
/// A traced run's `fine` chunks also record a span per step.
fn timed_window(run: &mut Run, shape: &Shape, trainer: &mut Trainer) -> Result<Window, String> {
    let mut w = Window {
        units: Units::default(),
        step_ms: Vec::new(),
        steps: 0,
        traced_steps: 0,
        virtual_s: 0.0,
        netsim_s: [0.0; adapter::NETSIM_ROWS.len()],
        perplexity: f64::NAN,
        perplexity_eval_s: 0.0,
    };
    let netsim_before = trainer.netsim_seconds();
    let mut perplexity_taken = false;
    w.units = run.timed_window(|run, _index, fine| {
        let virtual_before = trainer.virtual_time();
        let chunk = run.tracer.begin("core.chunk");
        for _ in 0..shape.chunk {
            if fine {
                let step = run.tracer.begin("core.step");
                trainer.step();
                w.step_ms.push(run.tracer.end(step) * 1e3);
            } else {
                trainer.step();
            }
        }
        let chunk_s = run.tracer.end(chunk);
        w.virtual_s += trainer.virtual_time() - virtual_before;
        w.steps += shape.chunk;
        if fine {
            w.traced_steps += shape.chunk;
        }
        if !perplexity_taken && w.steps >= shape.q {
            if fine {
                adapter::obs_metrics(false);
            }
            let (p, s) = run
                .tracer
                .time("core.perplexity_eval", || trainer.perplexity());
            w.perplexity = p;
            w.perplexity_eval_s = s;
            perplexity_taken = true;
        }
        Ok(Unit {
            rate: shape.chunk as f64 / chunk_s,
            seconds: chunk_s,
            may_close: perplexity_taken,
        })
    })?;
    let netsim_after = trainer.netsim_seconds();
    for (slot, (after, before)) in w
        .netsim_s
        .iter_mut()
        .zip(netsim_after.iter().zip(netsim_before))
    {
        *slot = after - before;
    }
    Ok(w)
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let shape = shape(&run.args.workload, run.args.quick);
    let threads = adapter::host_cores();
    let trace = run.args.trace;

    let edges = run.dir.join("edges.txt");
    let stream_seed = run.seed_for(1);
    let (written, gen_s) = run.tracer.time("bench.gen", || {
        adapter::write_stream_edge_list(shape.stream, stream_seed, &edges)
    });
    written.map_err(|e| format!("writing {}: {e}", edges.display()))?;
    reset_peak_rss();

    let config = TrainConfig {
        k: shape.k,
        partitions: shape.partitions,
        anchors: shape.anchors,
        cache_blocks: match shape.backend {
            Backend::OutOfCore { cache_blocks, .. } => cache_blocks,
            _ => 0,
        },
        seed: adapter::CHAIN_SEED,
    };

    // Set up several times and report the median; the last sampler is the
    // one the window times. The first also gives the perplexity at
    // iteration 0 (on a sampler that is then dropped, because evaluating
    // joins the running posterior average).
    let mut all_times = Vec::with_capacity(shape.setups);
    let mut initial_perplexity = f64::NAN;
    let mut last: Option<Setup> = None;
    for rep in 0..shape.setups {
        drop(last.take());
        let is_last = rep + 1 == shape.setups;
        let s = setup(
            run,
            &shape,
            &config,
            threads,
            &edges,
            is_last && trace,
            rep == 0,
        )?;
        if let Some(p) = s.initial_perplexity {
            initial_perplexity = p;
        }
        all_times.push(s.times);
        last = Some(s);
    }
    let Setup {
        mut trainer,
        probe_data,
        ..
    } = last.expect("at least one set-up");
    let setup_totals: Vec<f64> = all_times.iter().map(SetupTimes::total).collect();

    let w = timed_window(run, &shape, &mut trainer)?;

    // train_ooc is the first hop of edge list -> checkpoint -> served query.
    let mut checkpoint: Option<(std::path::PathBuf, u64, f64)> = None;
    if matches!(shape.backend, Backend::OutOfCore { .. }) {
        let path = run.dir.join("model.ckpt");
        let (bytes, s) = run
            .tracer
            .time("core.checkpoint_save", || trainer.save_checkpoint(&path));
        checkpoint = Some((path, bytes?, s));
    }
    let rss_mb = peak_rss_mb();
    // A step that leaves a non-finite state shows in the next perplexity:
    // the one taken at iteration `q` vouches for the steps before it, this
    // one for the rest of the window.
    let end_perplexity = trainer.perplexity();
    let steps = WARMUP_STEPS * shape.setups as u64 + w.steps;
    let finite = w.perplexity.is_finite() && end_perplexity.is_finite();
    run.ops(steps, if finite { 0 } else { steps }, "sampler steps");

    let rate = stats::median(&w.units.plain);
    let (rate_q1, rate_q3) = stats::quartiles(&w.units.plain);
    run.put("setup_s", stats::median(&setup_totals));
    run.put("throughput_per_s", rate);
    run.put("final_perplexity", w.perplexity);
    run.put("peak_rss_mb", rss_mb);
    eprintln!(
        "# {}: {} timed steps in {} chunks, chunk rate q1/median/q3 = {:.3}/{:.3}/{:.3} it/s, perplexity {:.4} -> {:.4}",
        run.args.workload,
        w.steps,
        w.units.count(),
        rate_q1,
        rate,
        rate_q3,
        initial_perplexity,
        w.perplexity,
    );

    if trace {
        let median_of =
            |f: fn(&SetupTimes) -> f64| stats::median(&all_times.iter().map(f).collect::<Vec<_>>());
        run.put("graph.load_edge_list_s", median_of(|t| t.load_s));
        run.put("graph.heldout_s", median_of(|t| t.heldout_s));
        run.put("ooc.convert_s", median_of(|t| t.convert_s));
        run.put("ooc.open_verify_s", median_of(|t| t.open_verify_s));
        let t = all_times[0];
        if t.converted_edges > 0 {
            run.put(
                "ooc.convert_edges_per_s",
                shape.stream.emitted_edges as f64 / median_of(|t| t.convert_s),
            );
            run.put(
                "ooc.bytes_per_edge",
                t.converted_bytes as f64 / t.converted_edges as f64,
            );
        }
        run.put("core.construct_s", median_of(|t| t.construct_s));
        run.put("core.step_ms_p50", stats::median(&w.step_ms));
        run.put("core.step_ms_hi", stats::high_percentile(&w.step_ms));
        run.put("core.perplexity_eval_ms", w.perplexity_eval_s * 1e3);
        run.put_spread_metrics(&w.units, &setup_totals);
        run.put("bench.threads", threads as f64);
        if let Some((_, bytes, save_s)) = &checkpoint {
            run.put("core.checkpoint_save_s", *save_s);
            run.put("core.checkpoint_bytes", *bytes as f64);
        }
        if matches!(shape.backend, Backend::Cluster { .. }) {
            let per_iter_ms = |s: f64| 1e3 * s / w.steps as f64;
            run.put("netsim.virtual_ms_per_iter", per_iter_ms(w.virtual_s));
            for ((metric, _), seconds) in adapter::NETSIM_ROWS.into_iter().zip(w.netsim_s) {
                run.put(metric, per_iter_ms(seconds));
            }
        }
        let counts = probes::program_counts(threads);
        probes::put_step_counts(run, &counts, w.traced_steps);

        let probes_span = run.tracer.begin("bench.probes");
        let data = probe_data.expect("the traced run keeps the last set-up's graph");
        probes::kernels(run, shape.k);
        probes::pool(run, threads);
        probes::graph(run, &data, &config, shape.stream.vertices);
        if let Source::OutOfCore(file) = &data.source {
            probes::ooc(run, file)?;
        }
        if matches!(shape.backend, Backend::Cluster { .. }) {
            probes::dkv(run, shape.stream.vertices, shape.k)?;
        } else {
            // A second sampler on one thread, same graph and seed: how much
            // of `threads` times its rate the pool delivers.
            let t1 = single_thread_rate(run, &shape, &config, data)?;
            run.put("core.t1_iters_per_s", t1);
            run.put("pool.scaling_eff", rate / (threads as f64 * t1));
        }
        run.tracer.end(probes_span);

        let cluster = matches!(shape.backend, Backend::Cluster { .. });
        verify::layer_counts(run, &counts, cluster);
    }

    let verify_span = run.tracer.begin("bench.verify");
    let twin_seed = run.seed_for(4);
    let quick = run.args.quick;
    let twin = verify::twin_backends_agree(&run.dir, twin_seed, threads, quick);
    run.check(
        "resident and out-of-core twins reach bitwise-equal perplexity",
        twin?,
    );
    run.check(
        "final perplexity is finite and below the perplexity at iteration 0",
        w.perplexity.is_finite() && w.perplexity < initial_perplexity,
    );
    if let Some((path, _, _)) = &checkpoint {
        let (_model, load_s) = verify::checkpoint_round_trip(run, path)?;
        if trace {
            run.put("core.checkpoint_load_s", load_s);
        }
    }
    let verify_s = run.tracer.end(verify_span);
    if trace {
        run.put("bench.gen_s", gen_s);
        run.put("bench.verify_s", verify_s);
    }
    Ok(())
}

/// Median chunk rate of a one-thread sampler over the probe copy of the
/// workload's graph (two chunks after the usual warm-up).
fn single_thread_rate(
    run: &mut Run,
    shape: &Shape,
    config: &TrainConfig,
    data: ProbeData,
) -> Result<f64, String> {
    let span = run.tracer.begin("core.t1_sampler");
    let mut trainer = Trainer::parallel(data.source, data.heldout, config, 1)?;
    for _ in 0..WARMUP_STEPS {
        trainer.step();
    }
    let mut rates = Vec::new();
    for _ in 0..2 {
        let chunk = run.tracer.begin("core.chunk");
        for _ in 0..shape.chunk {
            trainer.step();
        }
        rates.push(shape.chunk as f64 / run.tracer.end(chunk));
    }
    run.tracer.end(span);
    run.ops(
        WARMUP_STEPS + 2 * shape.chunk,
        0,
        "one-thread sampler steps",
    );
    Ok(stats::median(&rates))
}
