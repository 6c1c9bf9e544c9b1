//! Cost of the failure layer: modeled virtual time of a clean run vs the
//! same chain under an injected transient-fault plan, and vs a permanent
//! worker kill with checkpoint rollback.
//!
//! The faulty runs produce the *bitwise-identical* chain (that is the
//! failure layer's contract, pinned by `fault_determinism.rs`); what this
//! suite measures is the price: `recovery_s` (the trace's recovery
//! phase), `overhead_ratio` (faulty virtual time / clean virtual time),
//! and for the kill scenario the re-run cost of rewinding to the last
//! checkpoint. One JSON line per scenario is appended to
//! `BENCH_faults.json`.

use mmsb::prelude::*;
use mmsb_bench::timing::append_json;
use std::path::Path;

struct Scenario {
    id: String,
    workers: usize,
    iters: u64,
    /// Transient-fault plan seed; `None` leaves the fabric healthy.
    faults: Option<u64>,
    /// Permanent loss `(iteration, rank)` with a checkpoint cadence.
    kill: Option<(u64, usize, u64)>,
}

struct Row {
    id: String,
    clean_vt: f64,
    faulty_vt: f64,
    recovery_s: f64,
    recovery_events: u64,
    overhead_ratio: f64,
}

fn build(workers: usize, faults: Option<FaultConfig>, ckpt_every: Option<u64>) -> DistributedSampler {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
    let generated = generate_planted(
        &PlantedConfig {
            num_vertices: 600,
            num_communities: 8,
            mean_community_size: 80.0,
            memberships_per_vertex: 1.2,
            internal_degree: 10.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (train, heldout) = HeldOut::split(&generated.graph, 120, &mut rng);
    let config = SamplerConfig::new(8).with_seed(3);
    let mut dcfg = DistributedConfig::das5(workers);
    if let Some(fc) = faults {
        dcfg = dcfg.with_faults(fc);
    }
    let sampler = DistributedSampler::new(train, heldout, config, dcfg).expect("valid config");
    match ckpt_every {
        Some(every) => sampler.with_checkpoint_every(every),
        None => sampler,
    }
}

fn run_scenario(s: &Scenario) -> Row {
    let mut clean = build(s.workers, None, None);
    clean.run(s.iters);

    let fc = match (s.faults, s.kill) {
        (Some(seed), Some((it, rank, _))) => Some(FaultConfig::transient(seed).with_kill(it, rank)),
        (Some(seed), None) => Some(FaultConfig::transient(seed)),
        (None, Some((it, rank, _))) => Some(FaultConfig::none(1).with_kill(it, rank)),
        (None, None) => None,
    };
    let mut faulty = build(s.workers, fc, s.kill.map(|(_, _, every)| every));
    faulty.run(s.iters);

    let recovery_s = faulty.report().phases.total(Phase::Recovery);
    let recovery_events = faulty.report().phases.count(Phase::Recovery);
    Row {
        id: s.id.clone(),
        clean_vt: clean.virtual_time(),
        faulty_vt: faulty.virtual_time(),
        recovery_s,
        recovery_events,
        overhead_ratio: faulty.virtual_time() / clean.virtual_time(),
    }
}

fn append_rows(path: &Path, rows: &[Row]) {
    for r in rows {
        append_json(
            path,
            "bench_faults",
            &format!(
                "\"id\":\"{}\",\"clean_vt_s\":{:.6},\"faulty_vt_s\":{:.6},\"recovery_s\":{:.6},\"recovery_events\":{},\"overhead_ratio\":{:.4}",
                r.id, r.clean_vt, r.faulty_vt, r.recovery_s, r.recovery_events, r.overhead_ratio
            ),
            1,
        );
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters = if quick { 10 } else { 40 };
    let scenarios = [
        Scenario {
            id: format!("faults/transient_w4_i{iters}"),
            workers: 4,
            iters,
            faults: Some(777),
            kill: None,
        },
        Scenario {
            id: format!("faults/transient_w8_i{iters}"),
            workers: 8,
            iters,
            faults: Some(777),
            kill: None,
        },
        Scenario {
            id: format!("faults/kill_midrun_w4_i{iters}"),
            workers: 4,
            iters,
            faults: None,
            kill: Some((iters / 2, 1, 4)),
        },
        Scenario {
            id: format!("faults/transient_plus_kill_w4_i{iters}"),
            workers: 4,
            iters,
            faults: Some(778),
            kill: Some((iters / 2, 2, 4)),
        },
    ];

    let mut rows = Vec::new();
    for s in &scenarios {
        let row = run_scenario(s);
        println!(
            "{:<36} clean {:>9.4}s  faulty {:>9.4}s  recovery {:>9.4}s ({} events)  x{:.3}",
            row.id, row.clean_vt, row.faulty_vt, row.recovery_s, row.recovery_events, row.overhead_ratio
        );
        rows.push(row);
    }
    let out = Path::new("BENCH_faults.json");
    append_rows(out, &rows);
    eprintln!("appended {} rows to {}", rows.len(), out.display());
}
