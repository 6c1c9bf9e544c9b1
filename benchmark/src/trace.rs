//! The benchmark's own stopwatch and span recorder.
//!
//! Every call into the program is bracketed by [`Tracer::begin`] /
//! [`Tracer::end`], which always time it (that is how `setup_s` and the
//! rates are measured) and, in a traced run, also keep the span
//! `{name, start_ns, end_ns, parent, run_id}` in memory. Spans are written
//! out once, when the run ends, as a chrome-trace file; a layer's self time
//! is its spans' duration minus the part their child spans cover. A span's
//! name starts with its layer (`graph.`, `ooc.`, `core.`, `serve.`, ...;
//! `bench.` is the benchmark's own work).

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle of an open span; give it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    name: &'static str,
    start_ns: u64,
    slot: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    recording: bool,
    run_id: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// One row of the ledger: all spans of one name.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    pub name: &'static str,
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    /// `recording` keeps spans (the traced run); `run_id` is shared by every
    /// span of the run.
    pub fn new(recording: bool, run_id: u64) -> Self {
        Self {
            epoch: Instant::now(),
            recording,
            run_id,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Seconds since the tracer was created.
    pub fn elapsed_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let slot = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        // read the clock last, so that bookkeeping stays outside the span
        Open {
            name,
            start_ns: self.now_ns(),
            slot,
        }
    }

    /// Close `open` and return its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        if let Some(slot) = open.slot {
            assert_eq!(
                self.stack.pop(),
                Some(slot),
                "span {} closed out of order",
                open.name
            );
            self.spans[slot].start_ns = open.start_ns;
            self.spans[slot].end_ns = end_ns;
        }
        (end_ns - open.start_ns) as f64 / 1e9
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Per span name: count, total time and self time (duration minus child
    /// spans), largest self time first.
    pub fn ledger(&self) -> Vec<LedgerRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: BTreeMap<&'static str, LedgerRow> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let row = rows.entry(s.name).or_insert(LedgerRow {
                name: s.name,
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            row.count += 1;
            row.total_s += dur as f64 / 1e9;
            row.self_s += dur.saturating_sub(child_ns[i]) as f64 / 1e9;
        }
        let mut rows: Vec<LedgerRow> = rows.into_values().collect();
        rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
        rows
    }

    /// Seconds covered by spans that have no parent.
    pub fn top_level_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// The spans as a chrome-trace document (`chrome://tracing`, Perfetto):
    /// complete events in microseconds, with the parent span's index and the
    /// run id in `args`.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":{}}}}}",
            json::quote(&format!("mmsb-benchmark {workload}"))
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"run_id\":{}}}}}",
                json::quote(s.name),
                json::quote(s.name.split('.').next().unwrap_or("")),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.run_id
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Access;

    #[test]
    fn self_time_excludes_children_and_trace_parses() {
        let mut t = Tracer::new(true, 7);
        let outer = t.begin("core.step");
        let inner = t.begin("graph.read");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let rows = t.ledger();
        let outer_row = rows.iter().find(|r| r.name == "core.step").unwrap();
        let inner_row = rows.iter().find(|r| r.name == "graph.read").unwrap();
        assert!(outer_row.total_s >= inner_row.total_s);
        assert!((outer_row.self_s - (outer_row.total_s - inner_row.total_s)).abs() < 1e-9);
        assert!((t.top_level_s() - outer_row.total_s).abs() < 1e-12);
        let doc = json::parse(&t.chrome_trace("w")).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[2]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn untraced_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false, 0);
        let ((), secs) = t.time("bench.gen", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs >= 0.001);
        assert!(t.ledger().is_empty());
    }
}
