//! State of one workload run: arguments, stopwatch, scratch directory, the
//! metric values collected so far and the operation counts.

use crate::trace::Tracer;
use crate::{adapter, spec, stats};
use std::collections::BTreeMap;
use std::path::PathBuf;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Sizes divided by 20, for the schema test.
    pub quick: bool,
}

pub struct Run {
    pub args: Args,
    pub tracer: Tracer,
    /// Per-run scratch directory for every generated input; removed on drop.
    pub dir: PathBuf,
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the log.
    pub notes: Vec<String>,
}

impl Run {
    pub fn new(args: Args, out_dir: &std::path::Path) -> std::io::Result<Self> {
        let dir = out_dir.join(format!("tmp-{}-{}", args.workload, std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let tracer = Tracer::new(args.trace, args.seed);
        Ok(Self {
            args,
            tracer,
            dir,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        })
    }

    /// Record a metric. Every name is declared in `spec` and set once.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::unit_of(name).is_some(),
            "metric {name} is not declared"
        );
        let previous = self.values.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.notes
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    /// One correctness check, counted as one operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("check failed: {what}"));
        }
    }

    /// Measured window: the traced run halves it to leave room for the
    /// probes under the same per-run cap.
    pub fn window_s(&self) -> f64 {
        if self.args.trace {
            self.args.seconds / 2.0
        } else {
            self.args.seconds
        }
    }

    /// A seed for one purpose: draw number `purpose` of the stream seeded
    /// with `--seed`, so nearby seeds and purposes give unrelated values.
    pub fn seed_for(&self, purpose: u64) -> u64 {
        let mut mix = adapter::Mix::new(self.args.seed);
        for _ in 0..purpose {
            mix.next();
        }
        mix.next()
    }
}

/// One timed unit of a window: a chunk of sampler steps or a round of
/// requests.
pub struct Unit {
    /// Work per second over the unit.
    pub rate: f64,
    /// Timed seconds the unit counts against the window.
    pub seconds: f64,
    /// Whether the window may close after this unit.
    pub may_close: bool,
}

/// Rates of a window's units: the plain ones, and (traced run only) the
/// ones that ran with the program's metrics on and finer spans.
#[derive(Default)]
pub struct Units {
    pub plain: Vec<f64>,
    pub traced: Vec<f64>,
}

impl Units {
    pub fn count(&self) -> usize {
        self.plain.len() + self.traced.len()
    }
}

impl Run {
    /// Run timed units until the window is full: at least `--seconds` of
    /// timed time (half of it traced), three plain units, and the last unit
    /// allowing it. In a traced run every other unit is `fine`: the program's
    /// own metrics are on and `unit` records finer spans; the plain units
    /// between them give the rate the tracing overhead is measured against.
    pub fn timed_window(
        &mut self,
        mut unit: impl FnMut(&mut Run, usize, bool) -> Result<Unit, String>,
    ) -> Result<Units, String> {
        let window_s = self.window_s();
        let trace = self.args.trace;
        let mut units = Units::default();
        let mut timed_s = 0.0;
        let outer = self.tracer.begin("bench.window");
        for index in 0usize.. {
            let fine = trace && index % 2 == 1;
            if trace {
                adapter::obs_metrics(fine);
            }
            let u = unit(self, index, fine)?;
            timed_s += u.seconds;
            if fine {
                &mut units.traced
            } else {
                &mut units.plain
            }
            .push(u.rate);
            let enough = units.plain.len() >= 3 && (!trace || units.traced.len() >= 2);
            if timed_s >= window_s && u.may_close && enough {
                break;
            }
        }
        if trace {
            adapter::obs_metrics(false);
        }
        self.tracer.end(outer);
        Ok(units)
    }

    /// The traced run's account of what is behind the medians: unit count and
    /// quartiles, set-up quartiles, and the cost of tracing.
    pub fn put_spread_metrics(&mut self, units: &Units, setup_totals: &[f64]) {
        self.put(
            "obs.trace_overhead",
            stats::median(&units.traced) / stats::median(&units.plain),
        );
        self.put("bench.timed_units", units.count() as f64);
        let (q1, q3) = stats::quartiles(&units.plain);
        self.put("bench.unit_rate_q1", q1);
        self.put("bench.unit_rate_q3", q3);
        let (q1, q3) = stats::quartiles(setup_totals);
        self.put("bench.setup_q1_s", q1);
        self.put("bench.setup_q3_s", q3);
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Restart the kernel's peak-RSS watermark at the current RSS, so that
/// `peak_rss_mb` covers set-up and the timed phase but not the benchmark's
/// own input generation (which, for the serving workloads, trains the model).
/// Best effort: where the kernel refuses, the peak simply includes it.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process since [`reset_peak_rss`]
/// (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
