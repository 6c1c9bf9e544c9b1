//! `mmsb train --driver sequential` is the one-thread spelling of
//! `--driver parallel`: on the same planted graph and seed the two must
//! print byte-identical perplexity traces. `mmsb simulate` runs the same
//! chain on a simulated cluster: its checkpoint is byte-identical to
//! `train`'s, across a worker loss too.

use std::process::{Command, Output};

/// The small planted graph, model and chain every run here trains.
const RUN: [&str; 10] = [
    "--vertices", "300", "--communities", "6", "--k", "6", "--iters", "60", "--seed", "9",
];

/// Run `mmsb <command> RUN.. <extra..>`, which must succeed.
fn mmsb(command: &str, extra: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_mmsb"))
        .arg(command)
        .args(RUN)
        .args(extra)
        .output()
        .expect("run mmsb binary");
    assert!(
        out.status.success(),
        "mmsb {command} {extra:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The `iter ... perplexity ...` lines `mmsb train --driver <driver>`
/// prints on a small planted graph.
fn perplexity_trace(driver: &str) -> Vec<String> {
    let out = mmsb("train", &["--eval-every", "15", "--driver", driver]);
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .filter(|l| l.starts_with("iter "))
        .map(str::to_string)
        .collect()
}

/// Any other `--driver` (the master–worker protocol runs under
/// `mmsb simulate`) fails before a graph is generated or trained on.
#[test]
fn unknown_driver_is_rejected_before_training() {
    let out = Command::new(env!("CARGO_BIN_EXE_mmsb"))
        .args(["train", "--vertices", "300", "--driver", "threaded"])
        .output()
        .expect("run mmsb binary");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown driver \"threaded\""));
    assert!(out.stdout.is_empty(), "nothing may be trained");
}

#[test]
fn sequential_and_parallel_print_identical_perplexity_traces() {
    let sequential = perplexity_trace("sequential");
    assert_eq!(sequential.len(), 4, "one line per evaluation: {sequential:?}");
    assert_eq!(sequential, perplexity_trace("parallel"));
}

/// The checkpoint `mmsb <command> RUN.. <extra..> --checkpoint F` writes.
fn checkpoint_bytes(command: &str, extra: &[&str]) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!(
        "mmsb-driver-cli-{}-{command}-{}.ckpt",
        std::process::id(),
        extra.join("_").replace(':', "-")
    ));
    let file = path.to_str().expect("utf-8 temp path");
    mmsb(command, &[extra, &["--checkpoint", file]].concat());
    let bytes = std::fs::read(&path).expect("read checkpoint");
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn simulated_cluster_writes_the_pool_drivers_checkpoint() {
    let trained = checkpoint_bytes("train", &[]);
    for extra in [
        &["--workers", "3"][..],
        &["--workers", "3", "--faults", "7", "--kill", "20:1", "--checkpoint-every", "5"],
    ] {
        assert!(
            checkpoint_bytes("simulate", extra) == trained,
            "mmsb simulate {extra:?} left the pool driver's chain"
        );
    }
}

/// A `--kill` at an iteration the run never steps is refused before
/// training: `RUN` steps iterations 0..60, so a kill at 60 could never
/// fire and the run would finish fault-free without a word.
#[test]
fn a_kill_the_run_never_reaches_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_mmsb"))
        .arg("simulate")
        .args(RUN)
        .args(["--workers", "3", "--faults", "7", "--kill", "60:1"])
        .output()
        .expect("run mmsb binary");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("iteration 60 never runs"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may be trained");
    // The last iteration the run steps still loses its worker.
    let kill_last = ["--workers", "3", "--faults", "7", "--kill", "59:1"];
    let out = mmsb("simulate", &kill_last);
    assert!(String::from_utf8_lossy(&out.stdout).contains("worker 1 was lost"));
}
