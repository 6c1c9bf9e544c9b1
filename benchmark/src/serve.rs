//! The two serving workloads: `serve_query` and `serve_reload`.
//!
//! Both serve one model over real localhost sockets: a planted graph is
//! trained for 20 steps and checkpointed (input generation), then the server
//! is started on the checkpoint. Requests come from a ring of 8192 seeded
//! uniform-random requests: 60 % membership top-5, 30 % edge likelihood, 10 %
//! community listing. The server runs `max(1, cores / 2)` workers and the
//! client as many keep-alive connections, so client and server together
//! never use more threads than the host has cores.
//!
//! `serve_query` is a closed loop: each connection keeps up to 512 requests
//! in flight, topped up as responses arrive. Throughput is the median over
//! rounds of 100k requests. `serve_reload` alternates a burst of
//! pipelined requests with one serial `POST /v1/reload`; its throughput
//! counts the burst's requests against burst plus reload time, because the
//! one worker that reloads answers nobody meanwhile.

use crate::adapter::{self, Mix, Server, Snapshot, Source, TrainConfig, Trainer};
use crate::client::{Client, Driven, Keep, Pace};
use crate::json::{self, Access};
use crate::probes;
use crate::run::{peak_rss_mb, reset_peak_rss, Run, Unit, Units};
use crate::{stats, verify};
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

const DEPTH: usize = 512;
const RING: usize = 8192;
/// Ring responses compared with direct snapshot lookups.
const SAMPLE: usize = 1_000;
const K: usize = 64;
const TRAIN_STEPS: u64 = 20;

#[derive(Debug, Clone, Copy)]
struct Shape {
    vertices: u32,
    heldout_links: usize,
    warmup_requests: usize,
    round_requests: usize,
    burst_requests: usize,
    serial_round_trips: usize,
    open_rate: f64,
    open_seconds: f64,
    setups: usize,
}

fn shape(quick: bool) -> Shape {
    let full = Shape {
        vertices: 60_000,
        heldout_links: 10_000,
        warmup_requests: 50_000,
        round_requests: 100_000,
        burst_requests: 100_000,
        serial_round_trips: 20_000,
        open_rate: 50_000.0,
        open_seconds: 2.0,
        setups: 3,
    };
    if !quick {
        return full;
    }
    Shape {
        vertices: full.vertices / 20,
        heldout_links: full.heldout_links / 20,
        warmup_requests: full.warmup_requests / 20,
        round_requests: full.round_requests / 20,
        burst_requests: full.burst_requests / 20,
        serial_round_trips: full.serial_round_trips / 20,
        open_seconds: 0.2,
        setups: 2,
        ..full
    }
}

/// Server workers, and as many client connections: together never more
/// threads than the host has cores.
pub fn workers() -> usize {
    (adapter::host_cores() / 2).max(1)
}

/// The workload's fixed sizes, for the provenance record.
pub fn constants(quick: bool) -> String {
    format!(
        "{:?}, ring {RING}, depth {DEPTH}, K {K}, {TRAIN_STEPS} training steps",
        shape(quick)
    )
}

// -------------------------------------------------------------- closed loop

/// One closed-loop round: every connection sends `per_client` requests from
/// the ring, [`DEPTH`] in flight, starting at `offset`. Returns (requests
/// completed, not-200 responses, seconds).
fn closed_round(
    clients: &mut [Client],
    ring: &[Vec<u8>],
    offset: usize,
    per_client: usize,
) -> Result<(u64, u64, f64), String> {
    let start = Instant::now();
    let results: Vec<std::io::Result<Driven>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                // connections walk the ring from different places
                let from = offset + i * (ring.len() / 7);
                scope.spawn(move || {
                    client.drive(
                        ring,
                        from,
                        per_client,
                        Pace::Window { depth: DEPTH },
                        Keep::default(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut bad = 0;
    for r in results {
        bad += r.map_err(|e| format!("closed loop: {e}"))?.bad;
    }
    Ok(((per_client * clients.len()) as u64, bad, seconds))
}

// ---------------------------------------------------------------- requests

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Membership,
    Edge,
    Community,
}

/// What a ring request asked, kept to check its response.
#[derive(Debug, Clone, Copy)]
struct Asked {
    kind: Kind,
    a: u32,
    b: u32,
}

/// `count` seeded uniform-random requests; `only` restricts them to one kind.
fn request_ring(
    seed: u64,
    vertices: u32,
    count: usize,
    only: Option<Kind>,
) -> (Vec<Vec<u8>>, Vec<Asked>) {
    let mut mix = Mix::new(seed);
    let mut requests = Vec::with_capacity(count);
    let mut asked = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = only.unwrap_or_else(|| match mix.below(10) {
            0..=5 => Kind::Membership,
            6..=8 => Kind::Edge,
            _ => Kind::Community,
        });
        let a = mix.below(vertices as u64) as u32;
        let b = (a as u64 + 1 + mix.below(vertices as u64 - 1)) % vertices as u64;
        let (path, ask) = match kind {
            Kind::Membership => (format!("/v1/membership/{a}?k=5"), Asked { kind, a, b: 0 }),
            Kind::Edge => (
                format!("/v1/edge/{a}/{b}"),
                Asked {
                    kind,
                    a,
                    b: b as u32,
                },
            ),
            Kind::Community => {
                let c = a % K as u32;
                (
                    format!("/v1/community/{c}?min_weight=0.5"),
                    Asked { kind, a: c, b: 0 },
                )
            }
        };
        requests.push(adapter::get_request(&path));
        asked.push(ask);
    }
    (requests, asked)
}

// ------------------------------------------------------------------- model

struct ModelFiles {
    checkpoint: std::path::PathBuf,
    checkpoint_bytes: u64,
    save_s: f64,
    heldout: Vec<(u32, u32, bool)>,
}

/// Input generation: planted graph -> 20 sampler steps -> checkpoint file.
fn train_model(run: &mut Run, shape: &Shape, threads: usize) -> Result<ModelFiles, String> {
    let graph = adapter::planted_graph(shape.vertices, K, run.seed_for(1));
    let (train, heldout) = adapter::heldout_split(&graph, shape.heldout_links, run.seed_for(3));
    let pairs = adapter::heldout_pairs(&heldout);
    let config = TrainConfig {
        k: K,
        partitions: 32,
        anchors: 32,
        cache_blocks: 0,
        seed: adapter::CHAIN_SEED,
    };
    let mut trainer = Trainer::parallel(Source::Resident(train), heldout, &config, threads)?;
    for _ in 0..TRAIN_STEPS {
        trainer.step();
    }
    let checkpoint = run.dir.join("model.ckpt");
    let (bytes, save_s) = run.tracer.time("core.checkpoint_save", || {
        trainer.save_checkpoint(&checkpoint)
    });
    run.ops(TRAIN_STEPS, 0, "sampler steps");
    Ok(ModelFiles {
        checkpoint,
        checkpoint_bytes: bytes?,
        save_s,
        heldout: pairs,
    })
}

/// A started server with its warmed-up connections.
struct Serving {
    server: Server,
    clients: Vec<Client>,
    start_s: f64,
    warmup_s: f64,
}

/// One set-up: checkpoint load, snapshot build and bind (`Server::start`),
/// connect, and the warm-up requests.
fn start_serving(
    run: &mut Run,
    shape: &Shape,
    model: &Path,
    workers: usize,
    ring: &[Vec<u8>],
) -> Result<Serving, String> {
    let outer = run.tracer.begin("bench.setup");
    let (server, start_s) = run
        .tracer
        .time("serve.start", || Server::start(model, workers));
    let server = server?;
    let warm = run.tracer.begin("serve.warmup");
    let mut clients = (0..workers)
        .map(|_| Client::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let (done, bad, _) = closed_round(&mut clients, ring, 0, shape.warmup_requests / workers)?;
    let warmup_s = run.tracer.end(warm);
    run.tracer.end(outer);
    run.ops(done, bad, "warm-up requests");
    Ok(Serving {
        server,
        clients,
        start_s,
        warmup_s,
    })
}

// --------------------------------------------------------------- workloads

pub fn run(run: &mut Run) -> Result<(), String> {
    let shape = shape(run.args.quick);
    let cores = adapter::host_cores();
    let workers = workers();
    let trace = run.args.trace;
    let reload = run.args.workload == "serve_reload";

    let gen = run.tracer.begin("bench.gen");
    let model = train_model(run, &shape, cores)?;
    let (ring, asked) = request_ring(run.seed_for(5), shape.vertices, RING, None);
    let gen_s = run.tracer.end(gen);
    reset_peak_rss();

    let mut setup_totals = Vec::new();
    let mut start_times = Vec::new();
    let mut serving: Option<Serving> = None;
    for _ in 0..shape.setups {
        if let Some(previous) = serving.take() {
            drop(previous.clients);
            run.tracer
                .time("serve.shutdown", || previous.server.shutdown());
        }
        let s = start_serving(run, &shape, &model.checkpoint, workers, &ring)?;
        setup_totals.push(s.start_s + s.warmup_s);
        start_times.push(s.start_s);
        serving = Some(s);
    }
    let Serving {
        server,
        mut clients,
        ..
    } = serving.expect("at least one set-up");

    let units = if reload {
        reload_rounds(run, &shape, &server, &mut clients, &ring)?
    } else {
        query_rounds(run, &shape, &mut clients, &ring)?
    };

    // The held-out perplexity of the served model, from served edge
    // likelihoods: the quality of what a client actually receives.
    let perplexity = served_perplexity(run, &mut clients[0], &model.heldout)?;
    let rss_mb = peak_rss_mb();

    run.put("setup_s", stats::median(&setup_totals));
    run.put("throughput_per_s", stats::median(&units.plain));
    run.put("final_perplexity", perplexity);
    run.put("peak_rss_mb", rss_mb);

    if trace {
        run.put("serve.start_s", stats::median(&start_times));
        run.put("core.checkpoint_save_s", model.save_s);
        run.put("core.checkpoint_bytes", model.checkpoint_bytes as f64);
        run.put_spread_metrics(&units, &setup_totals);
        run.put("bench.threads", workers as f64);
        run.put("bench.connections", clients.len() as f64);
        verify::layer_counts(run, &probes::program_counts(workers), false);
        if !reload {
            let span = run.tracer.begin("bench.probes");
            single_kind_loops(run, &shape, &mut clients)?;
            serial_round_trips(run, &shape, &mut clients[0], &ring)?;
            drop(std::mem::take(&mut clients));
            open_loop(run, &shape, server.addr(), &ring)?;
            run.tracer.end(span);
        }
    }

    // Responses to check are fetched before the server stops, and checked
    // against a snapshot built directly from the checkpoint afterwards.
    let mut bodies = Vec::with_capacity(SAMPLE);
    if clients.is_empty() {
        clients.push(Client::connect(server.addr())?);
    }
    let sampled = clients[0]
        .drive(
            &ring,
            0,
            SAMPLE,
            Pace::Window { depth: DEPTH },
            Keep::bodies(&mut bodies),
        )
        .map_err(|e| format!("sampling responses: {e}"))?;
    run.ops(SAMPLE as u64, sampled.bad, "sampled requests");
    drop(clients);
    run.tracer.time("serve.shutdown", || server.shutdown());

    let verify_span = run.tracer.begin("bench.verify");
    let (loaded, load_s) = verify::checkpoint_round_trip(run, &model.checkpoint)?;
    let (snapshot, build_s) = run
        .tracer
        .time("serve.snapshot_build", || Snapshot::build(&loaded));
    let snapshot = snapshot?;
    let wrong = bodies
        .iter()
        .zip(&asked)
        .filter(|(body, asked)| !response_matches(body, asked, &snapshot))
        .count();
    run.ops(
        SAMPLE as u64,
        wrong as u64,
        "sampled responses compared with direct snapshot lookups",
    );
    run.check(
        "served perplexity is finite",
        perplexity.is_finite() && perplexity > 1.0,
    );
    let verify_s = run.tracer.end(verify_span);

    if trace {
        run.put("core.checkpoint_load_s", load_s);
        run.put("serve.snapshot_build_s", build_s);
        let span = run.tracer.begin("bench.probes");
        probes::serve_lookups(run, &snapshot, &ring);
        probes::kernels(run, K);
        run.tracer.end(span);
        run.put("bench.gen_s", gen_s);
        run.put("bench.verify_s", verify_s);
    }
    Ok(())
}

/// `serve_query`: closed-loop rounds until the window is full.
fn query_rounds(
    run: &mut Run,
    shape: &Shape,
    clients: &mut [Client],
    ring: &[Vec<u8>],
) -> Result<Units, String> {
    let per_client = shape.round_requests / clients.len();
    let units = run.timed_window(|run, round, _fine| {
        let span = run.tracer.begin("serve.closed_round");
        let result = closed_round(clients, ring, round * per_client, per_client);
        run.tracer.end(span);
        let (done, bad, seconds) = result?;
        run.ops(done, bad, "closed-loop requests");
        Ok(Unit {
            rate: (done - bad) as f64 / seconds,
            seconds,
            may_close: true,
        })
    })?;
    let (q1, q3) = stats::quartiles(&units.plain);
    eprintln!(
        "# serve_query: {} rounds of {} requests, round rate q1/median/q3 = {q1:.0}/{:.0}/{q3:.0} req/s",
        units.count(),
        shape.round_requests,
        stats::median(&units.plain),
    );
    Ok(units)
}

/// `serve_reload`: rounds of [burst of pipelined requests, then one serial
/// `POST /v1/reload`], the generation checked to advance by one each time.
fn reload_rounds(
    run: &mut Run,
    shape: &Shape,
    server: &Server,
    clients: &mut [Client],
    ring: &[Vec<u8>],
) -> Result<Units, String> {
    let per_client = shape.burst_requests / clients.len();
    let post = [adapter::post_request("/v1/reload")];
    let (mut burst_rates, mut reload_ms) = (Vec::new(), Vec::new());
    let units = run.timed_window(|run, round, _fine| {
        let span = run.tracer.begin("serve.burst");
        let result = closed_round(clients, ring, round * per_client, per_client);
        run.tracer.end(span);
        let (done, bad, burst_s) = result?;
        run.ops(done, bad, "burst requests");

        let before = server.generation();
        let mut body = Vec::with_capacity(1);
        let (result, reload_s) = run.tracer.time("serve.reload", || {
            clients[0].drive(
                &post,
                0,
                1,
                Pace::Window { depth: 1 },
                Keep::bodies(&mut body),
            )
        });
        let bad_reload = result.map_err(|e| format!("reload: {e}"))?.bad;
        let reported = body
            .first()
            .and_then(|b| json::parse(std::str::from_utf8(b).ok()?).ok())
            .and_then(|v| v.get("generation")?.as_f64());
        let advanced = server.generation() == before + 1 && reported == Some((before + 1) as f64);
        run.ops(
            1,
            u64::from(bad_reload > 0 || !advanced),
            "reloads that advance the generation by one",
        );

        burst_rates.push((done - bad) as f64 / burst_s);
        reload_ms.push(reload_s * 1e3);
        Ok(Unit {
            rate: (done - bad) as f64 / (burst_s + reload_s),
            seconds: burst_s + reload_s,
            may_close: true,
        })
    })?;
    eprintln!(
        "# serve_reload: {} rounds, reload median {:.1} ms, post-reload burst median {:.0} req/s",
        units.count(),
        stats::median(&reload_ms),
        stats::median(&burst_rates)
    );
    if run.args.trace {
        run.put("serve.post_reload_qps", stats::median(&burst_rates));
        run.put("serve.reload_ms", stats::median(&reload_ms));
    }
    Ok(units)
}

/// Held-out perplexity from served `/v1/edge` likelihoods:
/// `exp(-mean ln p(y))` with `p(y) = p` for a link and `1 - p` for a
/// non-link.
fn served_perplexity(
    run: &mut Run,
    client: &mut Client,
    heldout: &[(u32, u32, bool)],
) -> Result<f64, String> {
    let span = run.tracer.begin("serve.heldout_queries");
    let requests: Vec<Vec<u8>> = heldout
        .iter()
        .map(|&(a, b, _)| adapter::get_request(&format!("/v1/edge/{a}/{b}")))
        .collect();
    let mut bodies = Vec::with_capacity(requests.len());
    let bad_total = client
        .drive(
            &requests,
            0,
            requests.len(),
            Pace::Window { depth: DEPTH },
            Keep::bodies(&mut bodies),
        )
        .map_err(|e| format!("held-out queries: {e}"))?
        .bad;
    let mut log_sum = 0.0;
    for (body, &(_, _, linked)) in bodies.iter().zip(heldout) {
        let p = std::str::from_utf8(body)
            .ok()
            .and_then(|t| json::parse(t).ok())
            .and_then(|v| v.get("p")?.as_f64())
            .unwrap_or(f64::NAN);
        let likelihood = if linked { p } else { 1.0 - p };
        log_sum += likelihood.max(1e-300).ln();
    }
    run.tracer.end(span);
    run.ops(heldout.len() as u64, bad_total, "held-out edge queries");
    Ok((-log_sum / heldout.len() as f64).exp())
}

/// Whether a sampled response says what a direct snapshot lookup says.
fn response_matches(body: &[u8], asked: &Asked, snapshot: &Snapshot) -> bool {
    let Some(doc) = std::str::from_utf8(body)
        .ok()
        .and_then(|t| json::parse(t).ok())
    else {
        return false;
    };
    match asked.kind {
        Kind::Membership => {
            let expected = snapshot.top_k(asked.a as usize, 5);
            let Some(listed) = doc.get("communities").and_then(|c| c.as_arr()) else {
                return false;
            };
            listed.len() == expected.len()
                && listed.iter().zip(&expected).all(|(got, &(c, w))| {
                    got.get("community").and_then(|v| v.as_f64()) == Some(c as f64)
                        && got.get("weight").and_then(|v| v.as_f64()).map(f64::to_bits)
                            == Some(w.to_bits())
                })
        }
        Kind::Edge => {
            let expected = snapshot.edge_likelihood(asked.a as usize, asked.b as usize);
            doc.get("p").and_then(|v| v.as_f64()).map(f64::to_bits) == Some(expected.to_bits())
        }
        // listings are checked for shape only: every member at or above the floor
        Kind::Community => doc
            .get("members")
            .and_then(|m| m.as_arr())
            .is_some_and(|members| {
                members.iter().all(|m| {
                    m.get("weight")
                        .and_then(|w| w.as_f64())
                        .is_some_and(|w| w >= 0.5)
                })
            }),
    }
}

// ------------------------------------------------------- traced-run phases

/// `serve.membership_qps`, `serve.edge_qps`, `serve.community_qps`: closed
/// loops of a single request kind.
fn single_kind_loops(run: &mut Run, shape: &Shape, clients: &mut [Client]) -> Result<(), String> {
    for (kind, metric) in [
        (Kind::Membership, "serve.membership_qps"),
        (Kind::Edge, "serve.edge_qps"),
        (Kind::Community, "serve.community_qps"),
    ] {
        let (ring, _) = request_ring(run.seed_for(6), shape.vertices, RING / 4, Some(kind));
        let per_client = shape.round_requests / clients.len();
        let mut rates = Vec::new();
        for round in 0..3 {
            let span = run.tracer.begin("serve.single_kind_round");
            let result = closed_round(clients, &ring, round * per_client, per_client);
            run.tracer.end(span);
            let (done, bad, seconds) = result?;
            run.ops(done, bad, "single-kind requests");
            rates.push((done - bad) as f64 / seconds);
        }
        run.put(metric, stats::median(&rates));
    }
    Ok(())
}

/// `serve.serial_p50_us` / `serve.serial_p99_us`: strictly serial round
/// trips, one request in flight.
fn serial_round_trips(
    run: &mut Run,
    shape: &Shape,
    client: &mut Client,
    ring: &[Vec<u8>],
) -> Result<(), String> {
    let keep = Keep::latencies();
    let (driven, _) = run.tracer.time("serve.serial_round_trips", || {
        client.drive(
            ring,
            0,
            shape.serial_round_trips,
            Pace::Window { depth: 1 },
            keep,
        )
    });
    let driven = driven.map_err(|e| format!("serial round trips: {e}"))?;
    run.ops(
        shape.serial_round_trips as u64,
        driven.bad,
        "serial round trips",
    );
    run.put("serve.serial_p50_us", stats::median(&driven.latency_us));
    run.put(
        "serve.serial_p99_us",
        stats::percentile(&driven.latency_us, 0.99),
    );
    Ok(())
}

/// The open loop: requests from the seeded ring are due on a fixed timeline
/// (`open_rate` per second) whatever the server does, and each is timed from
/// its due time. If the generator itself ran later than 1 ms at p99, the
/// latencies say more about the generator than the server, and
/// `serve.open_valid` marks them invalid (0) beside the measured values. A
/// late generator is the host's doing, not a failed operation of the program.
fn open_loop(
    run: &mut Run,
    shape: &Shape,
    addr: SocketAddr,
    ring: &[Vec<u8>],
) -> Result<(), String> {
    let total = (shape.open_rate * shape.open_seconds) as usize;
    let mut client = Client::connect(addr)?;
    let keep = Keep::latencies();
    let (driven, _) = run.tracer.time("serve.open_loop", || {
        client.drive(
            ring,
            0,
            total,
            Pace::Timeline {
                rate: shape.open_rate,
            },
            keep,
        )
    });
    let driven = driven.map_err(|e| format!("open loop: {e}"))?;
    run.ops(total as u64, driven.bad, "open-loop requests");
    let late_p99 = stats::percentile(&driven.late_us, 0.99);
    let valid = late_p99 <= 1_000.0;
    run.put("serve.open_late_p99_us", late_p99);
    run.put("serve.open_valid", f64::from(u8::from(valid)));
    run.put("serve.open_p50_us", stats::median(&driven.latency_us));
    run.put(
        "serve.open_p99_us",
        stats::percentile(&driven.latency_us, 0.99),
    );
    if !valid {
        eprintln!("# serve_query: open-loop generator ran {late_p99:.0} us late at p99; latencies marked invalid");
    }
    Ok(())
}
