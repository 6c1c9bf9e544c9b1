//! `mmsb serve --k` is the default top-k of `/v1/membership`, and a
//! snapshot ranks at most 16 communities per vertex: `--k 0` (every
//! plain membership query answered with an empty list) and `--k 17`
//! (silently answered with 16) are refused at start-up with a non-zero
//! exit, while `--k 16` serves. A flag `serve` does not read — the
//! retired overload knobs, and the export files a server that runs until
//! killed never writes — exits 1 naming it.

use std::io::{BufRead as _, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn model_path() -> PathBuf {
    std::env::temp_dir().join(format!("mmsb-serve-cli-{}.ckpt", std::process::id()))
}

fn mmsb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mmsb"))
}

#[test]
fn serve_refuses_a_default_k_the_snapshot_cannot_serve() {
    let model = model_path();
    let out = mmsb()
        .args([
            "train",
            "--vertices",
            "200",
            "--communities",
            "20",
            "--k",
            "20",
        ])
        .args(["--iters", "2", "--seed", "3", "--checkpoint"])
        .arg(&model)
        .output()
        .expect("run mmsb train");
    assert!(
        out.status.success(),
        "mmsb train failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for k in ["0", "17"] {
        let out = mmsb()
            .args(["serve", "--addr", "127.0.0.1:0", "--k", k, "--model"])
            .arg(&model)
            .output()
            .expect("run mmsb serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--k {k}: {stderr}");
        assert!(
            stderr.contains(&format!("default top-k {k} is outside 1..=16")),
            "--k {k}: {stderr}"
        );
    }

    // The cap itself is a valid default: the server comes up.
    let mut server = mmsb()
        .args(["serve", "--addr", "127.0.0.1:0", "--k", "16", "--model"])
        .arg(&model)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mmsb serve");
    let mut first = String::new();
    BufReader::new(server.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    server.kill().unwrap();
    server.wait().unwrap();
    assert!(first.starts_with("serving "), "{first}");
    std::fs::remove_file(&model).ok();
}

#[test]
fn serve_refuses_flags_it_does_not_read() {
    for flag in [
        "max-conns",
        "max-inflight",
        "keepalive-budget",
        "rate-limit",
        "drain-ms",
        "metrics-out",
        "trace-out",
    ] {
        // Exits before the model is read, so it need not exist.
        let out = mmsb()
            .args(["serve", "--model", "missing.ckpt", "--addr", "127.0.0.1:0"])
            .args([&format!("--{flag}"), "5"])
            .output()
            .expect("run mmsb serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag --{flag} for mmsb serve")),
            "--{flag}: {stderr}"
        );
    }
}
