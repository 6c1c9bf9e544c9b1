//! Shared plumbing for the paper's table/figure binaries and the tier-1
//! gate binaries (`bench_*`, see [`timing`]).
//!
//! Every table/figure binary accepts `--quick` (shrink the workload
//! ~10x for smoke runs) and `--csv <path>` (also write machine-readable
//! series). The default parameters are the scaled-down equivalents of
//! the paper's configurations documented in DESIGN.md §4;
//! `EXPERIMENTS.md` records paper-vs-measured for each.

#![forbid(unsafe_code)]

use mmsb::prelude::*;
use std::io::Write;
use std::path::PathBuf;

/// Parsed command-line options shared by all harness binaries.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// Shrink workloads ~10x (CI / smoke runs).
    pub quick: bool,
    /// Optional CSV output path.
    pub csv: Option<PathBuf>,
}

impl HarnessArgs {
    /// Parse from `std::env::args`.
    ///
    /// # Panics
    /// Panics on unknown flags (harness binaries have no other inputs).
    pub fn parse() -> Self {
        let mut out = Self::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--csv" => {
                    let path = args.next().expect("--csv needs a path");
                    out.csv = Some(PathBuf::from(path));
                }
                other => panic!("unknown argument {other:?} (expected --quick / --csv <path>)"),
            }
        }
        out
    }

    /// `full` normally, `quick` under `--quick`.
    pub fn pick(&self, full: u64, quick: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Same for usize.
    pub fn pick_usize(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// A simple column-aligned table writer that can mirror rows to CSV.
pub struct TableWriter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    csv: Option<PathBuf>,
}

impl TableWriter {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str], csv: Option<PathBuf>) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            csv,
        }
    }

    /// Append one row (stringified by the caller).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Print the aligned table to stdout and write the CSV if requested.
    pub fn finish(self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let print_row = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("{}", line.join("  "));
        };
        print_row(&self.headers);
        for row in &self.rows {
            print_row(row);
        }
        if let Some(path) = &self.csv {
            let mut f = std::fs::File::create(path).expect("create csv");
            writeln!(f, "{}", self.headers.join(",")).unwrap();
            for row in &self.rows {
                writeln!(f, "{}", row.join(",")).unwrap();
            }
            eprintln!("csv written to {}", path.display());
        }
    }
}

/// Format seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.1}")
    } else if s >= 1.0 {
        format!("{s:.3}")
    } else {
        format!("{:.3}ms", s * 1e3)
    }
}

/// Standard training graph + held-out split for the scaling figures: the
/// syn-friendster stand-in (the paper uses com-Friendster), shrunk further
/// under `--quick`.
pub fn friendster_standin(quick: bool) -> (Graph, HeldOut, u32) {
    let spec = by_name("syn-friendster").expect("stand-in exists");
    let mut config = spec.config.clone();
    if quick {
        config.num_vertices /= 8;
        config.num_communities /= 4;
    }
    let generated = {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(spec.seed);
        generate_planted(&config, &mut rng)
    };
    let n = generated.graph.num_vertices();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xBEEF);
    let heldout_links = (generated.graph.num_edges() / 200).max(64) as usize;
    let (train, heldout) = HeldOut::split(&generated.graph, heldout_links, &mut rng);
    (train, heldout, n)
}

pub mod timing {
    //! The `BENCH_*.json` line store of the `bench_*` gate binaries: one
    //! JSON object per line, appended in the working directory, every
    //! line stamped with the schema version, thread count, host core
    //! count and the git revision of the checkout that built the binary.
    //! (Per-kernel and per-layer timings are not recorded here: they are
    //! the per-layer probes of `bash benchmark/run.sh --trace 1`.)

    use std::io::Write;
    use std::path::Path;

    /// Version tag stamped into every JSON line so trajectory tooling can
    /// filter comparable runs. Bump when the line shape changes; schema 1
    /// was the untagged `{suite,id,median_ns,min_ns,samples,
    /// iters_per_sample}` shape without thread/host fields.
    const BENCH_SCHEMA: u32 = 2;

    /// Logical cores of the host, for the `host_cores` field.
    pub fn host_cores() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Short revision of the checkout this binary was built from
    /// (`-dirty` when it has uncommitted changes).
    fn git_rev() -> String {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
    }

    /// Append one JSON line to `path` (creating it if absent). `body` is
    /// the caller's already-formatted fields, `"id":"…"` first; the
    /// schema and suite go in front of it and `threads`, `host_cores`,
    /// `git_rev` behind.
    pub fn append_json(path: &Path, suite: &str, body: &str, threads: usize) {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open bench json for append");
        writeln!(
            f,
            "{{\"schema\":{BENCH_SCHEMA},\"suite\":\"{suite}\",{body},\"threads\":{threads},\"host_cores\":{},\"git_rev\":\"{}\"}}",
            host_cores(),
            git_rev()
        )
        .expect("append bench json");
    }

    /// Format nanoseconds with adaptive units.
    pub fn fmt_ns(ns: f64) -> String {
        if ns >= 1e9 {
            format!("{:.3} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.3} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.3} us", ns / 1e3)
        } else {
            format!("{ns:.1} ns")
        }
    }
}

#[cfg(test)]
mod timing_tests {
    use super::timing::*;

    #[test]
    fn append_json_accumulates_lines() {
        let dir = std::env::temp_dir().join("mmsb_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let _ = std::fs::remove_file(&path);
        append_json(&path, "s", "\"id\":\"a/b\",\"x\":1.5", 4);
        append_json(&path, "s", "\"id\":\"a/c\"", 1);
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"schema\":2,\"suite\":\"s\",\"id\":\"a/b\",\"x\":1.5,\"threads\":4,\"host_cores\":"));
        assert!(lines[0].contains(",\"git_rev\":\"") && lines[0].ends_with("\"}"));
    }

    #[test]
    fn fmt_ns_units() {
        assert!(fmt_ns(5.0).ends_with("ns"));
        assert!(fmt_ns(5e3).ends_with("us"));
        assert!(fmt_ns(5e6).ends_with("ms"));
        assert!(fmt_ns(5e9).ends_with(" s"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_respects_quick() {
        let full = HarnessArgs::default();
        assert_eq!(full.pick(100, 10), 100);
        let quick = HarnessArgs {
            quick: true,
            csv: None,
        };
        assert_eq!(quick.pick(100, 10), 10);
        assert_eq!(quick.pick_usize(100, 10), 10);
    }

    #[test]
    fn table_writer_roundtrip() {
        let dir = std::env::temp_dir().join("mmsb_bench_table_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("t.csv");
        let mut t = TableWriter::new(&["a", "b"], Some(csv.clone()));
        t.row(&["1".into(), "2".into()]);
        t.finish();
        let content = std::fs::read_to_string(&csv).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_writer_rejects_ragged_rows() {
        let mut t = TableWriter::new(&["a", "b"], None);
        t.row(&["1".into()]);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(0.001).ends_with("ms"));
        assert_eq!(fmt_secs(2.5), "2.500");
        assert_eq!(fmt_secs(120.0), "120.0");
    }
}
