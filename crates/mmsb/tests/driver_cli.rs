//! `mmsb train --driver sequential` is the one-thread spelling of
//! `--driver parallel`: on the same planted graph and seed the two must
//! print byte-identical perplexity traces.

use std::process::Command;

/// The `iter ... perplexity ...` lines `mmsb train --driver <driver>`
/// prints on a small planted graph.
fn perplexity_trace(driver: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_mmsb"))
        .args([
            "train",
            "--vertices",
            "300",
            "--communities",
            "6",
            "--k",
            "6",
            "--iters",
            "60",
            "--eval-every",
            "15",
            "--seed",
            "9",
            "--driver",
            driver,
        ])
        .output()
        .expect("run mmsb binary");
    assert!(
        out.status.success(),
        "mmsb train --driver {driver} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .filter(|l| l.starts_with("iter "))
        .map(str::to_string)
        .collect()
}

#[test]
fn sequential_and_parallel_print_identical_perplexity_traces() {
    let sequential = perplexity_trace("sequential");
    assert_eq!(sequential.len(), 4, "one line per evaluation: {sequential:?}");
    assert_eq!(sequential, perplexity_trace("parallel"));
}
