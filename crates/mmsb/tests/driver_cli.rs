//! `mmsb train --driver sequential` is the one-thread spelling of
//! `--driver parallel`: on the same planted graph and seed the two must
//! print byte-identical perplexity traces. `mmsb simulate` runs the same
//! chain on a simulated cluster: its checkpoint is byte-identical to
//! `train`'s, across a worker loss too. Out-of-core training that meets
//! a bad block mid-run exits 1 with the read error. A closed stdout ends
//! the printing, not the run.

use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

/// The small planted graph, model and chain every run here trains.
const RUN: [&str; 10] = [
    "--vertices",
    "300",
    "--communities",
    "6",
    "--k",
    "6",
    "--iters",
    "60",
    "--seed",
    "9",
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

/// `--simd` takes only the backends the kernel layer has; any other
/// name exits 1 listing them, before training.
#[test]
fn unknown_simd_backend_is_rejected_before_training() {
    let out = Command::new(env!("CARGO_BIN_EXE_mmsb"))
        .args(["train", "--vertices", "300", "--simd", "sse2"])
        .output()
        .expect("run mmsb binary");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("auto, scalar, avx2, or neon"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may be trained");
}

/// A flag a command does not read (here a typo of `--iters`, and a
/// flag `datasets` never takes) exits 1 naming it, before any work.
#[test]
fn unknown_flags_are_rejected_by_name() {
    for (args, flag) in [
        (
            &["train", "--vertices", "200", "--iters", "1", "--itres", "5"][..],
            "itres",
        ),
        (&["datasets", "--bogus", "1"][..], "bogus"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mmsb"))
            .args(args)
            .output()
            .expect("run mmsb binary");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("unknown flag --{flag} for mmsb {}", args[0]);
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
}

#[test]
fn sequential_and_parallel_print_identical_perplexity_traces() {
    let sequential = perplexity_trace("sequential");
    assert_eq!(
        sequential.len(),
        4,
        "one line per evaluation: {sequential:?}"
    );
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

/// A reader that closes stdout early (`mmsb train | head -1`) stops the
/// printing, not the run: the command still writes its checkpoint, the
/// same bytes as a run whose stdout stays open, and exits 0 without a
/// panic.
#[test]
fn a_closed_stdout_ends_the_printing_not_the_run() {
    let path = std::env::temp_dir().join(format!(
        "mmsb-driver-cli-{}-closed-stdout.ckpt",
        std::process::id()
    ));
    let mut child = Command::new(env!("CARGO_BIN_EXE_mmsb"))
        .arg("train")
        .args(RUN)
        .arg("--checkpoint")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mmsb binary");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for mmsb");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let written = std::fs::read(&path).expect("the run wrote its checkpoint");
    std::fs::remove_file(&path).ok();
    assert!(
        written == checkpoint_bytes("train", &[]),
        "a closed stdout changed the checkpoint"
    );
}

#[test]
fn simulated_cluster_writes_the_pool_drivers_checkpoint() {
    let trained = checkpoint_bytes("train", &[]);
    for extra in [
        &["--workers", "3"][..],
        &[
            "--workers",
            "3",
            "--faults",
            "7",
            "--kill",
            "20:1",
            "--checkpoint-every",
            "5",
        ],
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

/// `simulate --checkpoint-every` is the modelled rollback cadence of a
/// `--kill` and saves nothing, so without a kill it is refused before
/// training instead of doing nothing.
#[test]
fn checkpoint_every_without_a_kill_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_mmsb"))
        .arg("simulate")
        .args(RUN)
        .args(["--workers", "3", "--checkpoint-every", "5"])
        .output()
        .expect("run mmsb binary");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rollback cadence of a --kill"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may be trained");
}

/// A version-1 `.ooc` file (its version word set to 1, the header CRC
/// recomputed) is refused by `mmsb train` with exit code 1 and the
/// command that rewrites it.
/// A set-up value out of its range — a held-out set the graph cannot
/// supply (given, or the default of at least 16 links), a generator
/// parameter, a community threshold, `--k 0` (whose default threshold
/// would be infinite), a block size — exits 1 before any training or
/// output, with one `error:` line naming the flag and its limit, and no
/// panic.
#[test]
fn out_of_range_set_up_values_exit_1_naming_the_flag() {
    let dir = std::env::temp_dir().join(format!("mmsb-driver-cli-range-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("e4.txt"), "0\t1\n1\t2\n2\t3\n3\t0\n").unwrap();
    let d = dir.to_str().unwrap();
    let run = |args: &str| {
        Command::new(env!("CARGO_BIN_EXE_mmsb"))
            .args(args.split_whitespace())
            .output()
            .expect("run mmsb binary")
    };
    let convert = run(&format!(
        "convert --input {d}/e4.txt --out {d}/e4.ooc --block-size 4096"
    ));
    assert!(convert.status.success(), "{convert:?}");

    let links = |n| format!("cannot hold out {n} links from a graph with 4 edges");
    let default = format!(
        "--heldout defaults to 16 (one per 50 edges, at least 16): {}",
        links(16)
    );
    let (edges, ooc) = (
        format!("--input {d}/e4.txt --k 2"),
        format!("--graph-format ooc --input {d}/e4.ooc --k 2"),
    );
    let mut cases = vec![
        (
            format!("train {edges} --heldout 100"),
            format!("--heldout 100: {}", links(100)),
        ),
        (
            format!("train {ooc} --heldout 100"),
            format!("--heldout 100: {}", links(100)),
        ),
        (
            format!("train {edges} --heldout 3"),
            "--heldout 3: graph too dense to sample 3 held-out non-links: it has 2 unlinked pairs"
                .into(),
        ),
        (format!("train {edges}"), default.clone()),
        (format!("train {ooc}"), default),
        (
            "train --vertices 300 --iters 2 --threshold 2".into(),
            "--threshold: threshold 2 outside [0, 1)".into(),
        ),
        (
            "train --vertices 300 --iters 2 --k 0".into(),
            "invalid config: k must be at least 1".into(),
        ),
        (
            format!("convert --input {d}/e4.txt --out {d}/out --block-size 100"),
            "--block-size: block size 100 is not a power of two >= 4096".into(),
        ),
    ];
    for command in ["train", "simulate", &format!("generate --out {d}/out")] {
        for (flag, limit) in [
            ("--vertices 1", "need at least 2 vertices"),
            ("--communities 0", "need at least 1 community"),
            ("--mean-degree -1", "internal degree must be >= 0"),
            ("--overlap 0", "memberships per vertex must be > 0"),
        ] {
            cases.push((format!("{command} {flag}"), format!("{flag}: {limit}")));
        }
    }
    for (args, want) in cases {
        let out = run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert_eq!(stderr, format!("error: {want}\n"), "{args}");
        assert!(out.stdout.is_empty(), "{args}: nothing may run");
        assert!(!dir.join("out").exists(), "{args} wrote {d}/out");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_version_1_file_is_refused_naming_mmsb_convert() {
    let dir = std::env::temp_dir().join(format!("mmsb-driver-cli-v1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (edges, ooc) = (dir.join("g.txt"), dir.join("g.ooc"));
    let (edges_s, ooc_s) = (edges.to_str().unwrap(), ooc.to_str().unwrap());
    for args in [
        &[
            "generate",
            "--vertices",
            "300",
            "--communities",
            "6",
            "--out",
            edges_s,
        ][..],
        &[
            "convert",
            "--input",
            edges_s,
            "--out",
            ooc_s,
            "--block-size",
            "4096",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mmsb"))
            .args(args)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let mut bytes = std::fs::read(&ooc).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let crc = mmsb::ooc::crc32(&bytes[..56]);
    bytes[56..60].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&ooc, &bytes).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_mmsb"))
        .args([
            "train",
            "--graph-format",
            "ooc",
            "--input",
            ooc_s,
            "--iters",
            "1",
        ])
        .output()
        .expect("run mmsb binary");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("unsupported ooc format version 1"),
        "{stderr}"
    );
    assert!(stderr.contains("mmsb convert"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may be trained");
}

/// A block of the `.ooc` file that goes bad after `mmsb train` opened
/// and verified it ends training with exit code 1 and the read error —
/// not a panic. The run is long and reads through a one-block share, so
/// it keeps loading blocks after the file is corrupted under it.
#[test]
fn a_block_corrupted_mid_training_exits_1_with_the_read_error() {
    let dir = std::env::temp_dir().join(format!("mmsb-driver-cli-ooc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (edges, ooc) = (dir.join("g.txt"), dir.join("g.ooc"));
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_mmsb"))
            .args(args)
            .output()
            .expect("run mmsb binary");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let (edges_s, ooc_s) = (edges.to_str().unwrap(), ooc.to_str().unwrap());
    run(&[
        "generate",
        "--vertices",
        "2000",
        "--communities",
        "20",
        "--out",
        edges_s,
    ]);
    run(&[
        "convert",
        "--input",
        edges_s,
        "--out",
        ooc_s,
        "--block-size",
        "4096",
    ]);

    let mut child = Command::new(env!("CARGO_BIN_EXE_mmsb"))
        .args([
            "train",
            "--graph-format",
            "ooc",
            "--input",
            ooc_s,
            "--cache-blocks",
            "1",
        ])
        .args([
            "--k",
            "4",
            "--iters",
            "100000000",
            "--eval-every",
            "100000000",
        ])
        .args(["--driver", "sequential"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mmsb train");
    // `training on ...` is printed after the start-up verification.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    assert!(line.starts_with("training on"), "{line}");

    let header = *mmsb::ooc::OocGraph::open(&ooc).unwrap().header();
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&ooc)
        .unwrap();
    for b in 0..u64::from(header.num_blocks) {
        let at = header.data_off() + b * u64::from(header.block_size);
        let mut byte = [0u8];
        file.seek(SeekFrom::Start(at)).unwrap();
        file.read_exact(&mut byte).unwrap();
        file.seek(SeekFrom::Start(at)).unwrap();
        file.write_all(&[byte[0] ^ 0x5A]).unwrap();
    }
    file.sync_all().unwrap();

    // Poll for up to a minute.
    let mut polls = 0;
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        polls += 1;
        if polls > 3000 {
            child.kill().ok();
            panic!("training went on over a corrupted file");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error: out-of-core read failed: checksum mismatch in block"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
