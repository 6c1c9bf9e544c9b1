//! End-to-end observability round-trip through the `mmsb` binary:
//! `simulate --obs-level spans --trace-out --metrics-out` must produce a
//! chrome-trace file the in-tree parser validates and a metrics snapshot
//! covering every sampler phase, the DKV ops (one priced latency per
//! batch, no span), the collectives and its one checkpoint save; `train --metrics-out` counts every checkpoint it
//! saves; and the CLI sizes span rings only when it records spans.

use std::path::PathBuf;
use std::process::Command;

fn out_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mmsb-obs-cli-{}-{name}", std::process::id()));
    p
}

/// The integer after `"{key}": ` (a counter) or `"{key}": {"count": `
/// (a histogram's count) in a metrics snapshot.
fn metric(json: &str, key: &str) -> u64 {
    let at = json.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
    let rest = json[at..].trim_start_matches("{\"count\": ");
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().expect(key)
}

#[test]
fn simulate_exports_valid_trace_and_metrics() {
    let trace = out_path("t.json");
    let metrics = out_path("m.json");
    let ckpt = out_path("c.ckpt");
    let out = Command::new(env!("CARGO_BIN_EXE_mmsb"))
        .args([
            "simulate",
            "--workers",
            "4",
            "--k",
            "8",
            "--iters",
            "10",
            "--vertices",
            "300",
            "--obs-level",
            "spans",
        ])
        .arg("--trace-out")
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .expect("run mmsb binary");
    assert!(
        out.status.success(),
        "mmsb simulate failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // ---- trace: parse with the in-tree parser and validate it ----
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let events = mmsb::obs::export::parse_chrome_trace(&text).expect("trace parses");
    mmsb::obs::export::validate_trace(&events).expect("trace validates");
    let names: std::collections::HashSet<&str> = events.iter().map(|e| e.name.as_str()).collect();
    for required in ["step", "draw_minibatch", "update_phi", "checkpoint"] {
        assert!(names.contains(required), "trace has no {required:?} span");
    }
    // The price does no I/O, so it opens no DKV span.
    for priced in ["dkv_read", "dkv_write"] {
        assert!(!names.contains(priced), "trace times a priced {priced:?}");
    }
    // The virtual-timeline track (re-emitted breakdown) is present.
    assert!(
        events
            .iter()
            .any(|e| e.ph == 'M' && e.tid == mmsb::obs::VIRTUAL_TID),
        "virtual-cluster metadata track missing"
    );

    // ---- metrics: every phase histogram, dkv op, collective counted ----
    let m = std::fs::read_to_string(&metrics).expect("metrics file written");
    for field in [
        "\"schema\": 2",
        "\"kind\": \"obs_metrics\"",
        "\"threads\": 4",
        "\"host_cores\":",
        "\"sampler_steps\": 10",
        // The one `--checkpoint` save at the end.
        "\"checkpoints\": 1",
        "\"dkv_read_batches\":",
        "\"dkv_write_batches\":",
        "\"comm_collectives\":",
        "\"phase_draw_minibatch_ns\":",
        "\"phase_update_phi_ns\":",
        "\"phase_update_pi_ns\":",
        "\"phase_update_beta_theta_ns\":",
        "\"phase_perplexity_ns\":",
        "\"dkv_read_ns\":",
        "\"dkv_write_ns\":",
        "\"comm_collective_ns\":",
        "\"step_ns\":",
        "\"spans\":",
    ] {
        assert!(m.contains(field), "metrics snapshot missing {field}:\n{m}");
    }
    // A priced DKV access records its modelled time, once per batch.
    for (hist, batches) in [
        ("dkv_read_ns", "dkv_read_batches"),
        ("dkv_write_ns", "dkv_write_batches"),
    ] {
        assert!(metric(&m, batches) > 0, "no {batches}:\n{m}");
        assert_eq!(metric(&m, hist), metric(&m, batches), "{hist}:\n{m}");
    }
    // Phase histograms actually accumulated (counts are per-iteration).
    assert!(
        !m.contains("\"phase_update_phi_ns\": {\"count\": 0"),
        "update_phi phase never recorded"
    );

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_file(&ckpt);
}

/// `mmsb train --checkpoint-every 30` over 60 iterations saves twice, and
/// the metrics snapshot counts both saves.
#[test]
fn train_counts_its_checkpoints() {
    let ckpt = out_path("train.ckpt");
    let metrics = out_path("train-m.json");
    let out = Command::new(env!("CARGO_BIN_EXE_mmsb"))
        .args(["train", "--vertices", "300", "--k", "6", "--iters", "60"])
        .args(["--checkpoint-every", "30", "--obs-level", "metrics"])
        .arg("--checkpoint")
        .arg(&ckpt)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("run mmsb binary");
    assert!(
        out.status.success(),
        "mmsb train failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let saves = stdout.matches("checkpoint (iteration").count();
    assert_eq!(saves, 2, "{stdout}");
    let m = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(m.contains("\"checkpoints\": 2"), "{m}");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&metrics);
}

/// The span rings are sized at start-up for the level the run records:
/// one slot a shard unless it records spans (the CLI never raises the
/// level later), the full 65,536 when it does.
#[test]
fn span_rings_are_sized_only_when_spans_are_recorded() {
    for (level, capacity) in [("metrics", 1), ("spans", 65_536)] {
        let metrics = out_path(&format!("rings-{level}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_mmsb"))
            .args(["train", "--vertices", "300", "--k", "4", "--iters", "2"])
            .args(["--obs-level", level])
            .arg("--metrics-out")
            .arg(&metrics)
            .output()
            .expect("run mmsb binary");
        assert!(
            out.status.success(),
            "mmsb train failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let m = std::fs::read_to_string(&metrics).expect("metrics file written");
        let field = format!("\"capacity\": {capacity}}}");
        let spans = m.lines().find(|l| l.contains("\"spans\":")).unwrap_or("");
        assert!(spans.contains(&field), "--obs-level {level}: {spans}");
        let _ = std::fs::remove_file(&metrics);
    }
}
