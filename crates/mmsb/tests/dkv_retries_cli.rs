//! DKV retries are counted where they are priced: `mmsb simulate
//! --faults SEED` must report failed read *and* write attempts in its
//! metrics snapshot, and a fault-free run must report none.

use std::path::PathBuf;
use std::process::Command;

fn out_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mmsb-retries-{}-{name}", std::process::id()));
    p
}

/// The `dkv_read_retries` and `dkv_write_retries` counters of one
/// `simulate` run with `extra` arguments.
fn retries(name: &str, extra: &[&str]) -> (u64, u64) {
    let metrics = out_path(name);
    let out = Command::new(env!("CARGO_BIN_EXE_mmsb"))
        .args([
            "simulate",
            "--workers",
            "4",
            "--k",
            "8",
            "--iters",
            "30",
            "--vertices",
            "300",
        ])
        .args(extra)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("run mmsb binary");
    assert!(
        out.status.success(),
        "mmsb simulate failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let m = std::fs::read_to_string(&metrics).expect("metrics file written");
    let _ = std::fs::remove_file(&metrics);
    let counter = |field: &str| -> u64 {
        let key = format!("\"{field}\": ");
        let at = m
            .find(&key)
            .unwrap_or_else(|| panic!("no {field} in:\n{m}"))
            + key.len();
        let digits: String = m[at..].chars().take_while(char::is_ascii_digit).collect();
        digits
            .parse()
            .unwrap_or_else(|_| panic!("{field} is not a count"))
    };
    (counter("dkv_read_retries"), counter("dkv_write_retries"))
}

#[test]
fn faulty_runs_count_read_and_write_retries() {
    let (reads, writes) = retries("faulty.json", &["--faults", "7"]);
    assert!(reads > 0, "no read retry counted under --faults 7");
    assert!(writes > 0, "no write retry counted under --faults 7");
}

#[test]
fn fault_free_runs_count_no_retries() {
    assert_eq!(retries("clean.json", &[]), (0, 0));
}
