//! Adversarial clients against a live server: every misbehaving
//! species in `loadgen::ALL_CHAOS` must be disposed of within the
//! configured deadline, and the server must keep answering well-formed
//! traffic perfectly throughout.
//!
//! One `#[test]` function: obs is process-global and the deadline
//! counter assertions only make sense when this test owns all traffic.

use mmsb_obs::id as obs_id;
use mmsb_obs::{ObsConfig, ObsLevel};
use mmsb_serve::loadgen::{self, ChaosKind, ALL_CHAOS};
use mmsb_serve::{ServeConfig, ServeHandle};

mod common;
use common::{tmp_model, train_checkpoint, wait_until};

#[test]
fn misbehaving_clients_cannot_pin_workers() {
    mmsb_obs::init(ObsConfig::at(ObsLevel::Metrics));
    let model_path = tmp_model("chaos");
    train_checkpoint(7, 8).save(&model_path).unwrap();

    // Short deadline so each chaos client is resolved quickly; two
    // workers so a pinned worker would still leave one for the health
    // probes — the assertions below then catch the pin via `stuck`.
    let handle = ServeHandle::start(
        &model_path,
        &ServeConfig {
            threads: 2,
            deadline_ms: 150,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let probe = [loadgen::get_request("/healthz")];

    for (i, kind) in ALL_CHAOS.iter().enumerate() {
        let clients = 3;
        // Budget must cover: the server's deadline, plus the previous
        // client's teardown, plus scheduler noise.
        let report = loadgen::chaos(addr, *kind, clients, 0x9e37 + i as u64, 5_000);
        assert_eq!(
            report.stuck, 0,
            "{kind:?}: a client outlived its disposal budget: {report:?}"
        );
        assert_eq!(
            report.server_closed, report.clients,
            "{kind:?}: every connected client must be torn down: {report:?}"
        );
        assert!(
            report.clients + report.refused == clients as u64,
            "{kind:?}: accounting must cover all clients: {report:?}"
        );

        // The server still answers well-formed traffic perfectly.
        let lat = loadgen::latency(addr, &probe, 5).expect("healthy probe after chaos");
        assert_eq!(lat.errors, 0, "{kind:?}: probes must all be 200s");
    }

    // The deadline machinery demonstrably fired: slow-loris, idle, and
    // never-read clients are all disposed of by the receive/write
    // deadlines rather than by their own goodwill.
    let m = &mmsb_obs::get().unwrap().metrics;
    assert!(
        m.counter_total(obs_id::C_SERVE_DEADLINE_CLOSES) >= 3,
        "deadline closes should have fired for loris/idle/never-read"
    );

    // Quiescent: no admission slots leaked by any chaos path. The last
    // probe's slot releases asynchronously (the client has closed; the
    // worker may still be waking to the EOF), so allow a bounded
    // settle — a *leaked* slot stays charged forever and still fails.
    wait_until(
        "all chaos conns are released",
        || handle.overload_stats(),
        || handle.conns_open() == 0,
    );
    let stats = handle.overload_stats();
    handle.shutdown();
    std::fs::remove_file(&model_path).ok();
    assert_eq!(stats.drain_aborted, 0, "no drain ran during chaos");
}

/// The old shutdown protocol woke blocked accepts with one dummy
/// connect per worker — which silently failed when the listener
/// backlog was full, stranding the worker. The non-blocking accept
/// poll must shut down promptly under a connect flood.
#[test]
fn shutdown_completes_under_connect_flood() {
    let model_path = tmp_model("flood");
    train_checkpoint(11, 6).save(&model_path).unwrap();
    let handle = ServeHandle::start(
        &model_path,
        &ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Saturate the backlog from another thread, repeatedly, while the
    // main thread shuts down mid-flood.
    let flood = std::thread::spawn(move || {
        let mut connected = 0usize;
        for _ in 0..6 {
            connected += loadgen::connect_flood(addr, 64);
        }
        connected
    });
    // Mid-flood: the server has met the first of the 384 connections.
    wait_until(
        "the flood reaches the server",
        || handle.overload_stats(),
        || {
            let stats = handle.overload_stats();
            stats.admitted + stats.shed_conns > 0
        },
    );

    let sw = mmsb_obs::clock::Stopwatch::start();
    let report = handle.drain(500);
    let elapsed_ms = sw.elapsed_ns() / 1_000_000;
    assert!(
        elapsed_ms < 5_000,
        "shutdown under connect flood took {elapsed_ms}ms: {report:?}"
    );
    let connected = flood.join().unwrap();
    assert!(connected > 0, "the flood must actually have connected");
    std::fs::remove_file(&model_path).ok();
}

/// Garbage on the wire must never panic the worker — `Malformed` is a
/// total verdict (pinned again, property-style, in `http_prop.rs`).
#[test]
fn garbage_storm_then_healthy() {
    let model_path = tmp_model("garbage");
    train_checkpoint(13, 6).save(&model_path).unwrap();
    let handle = ServeHandle::start(
        &model_path,
        &ServeConfig {
            threads: 1,
            deadline_ms: 100,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for seed in 0..8u64 {
        let report = loadgen::chaos(handle.addr(), ChaosKind::GarbageBytes, 2, seed, 3_000);
        assert_eq!(report.stuck, 0, "seed {seed}: {report:?}");
    }
    let probe = [loadgen::get_request("/healthz")];
    let lat = loadgen::latency(handle.addr(), &probe, 3).unwrap();
    assert_eq!(lat.errors, 0);
    handle.shutdown();
    std::fs::remove_file(&model_path).ok();
}
