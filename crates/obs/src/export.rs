//! Exporters: chrome://tracing JSON, plain-text metrics, `metrics.json`.
//!
//! None of this runs on the hot path — exporters read the atomic slots
//! after the fact and may allocate freely. The chrome trace writer has a
//! matching in-tree parser and validator so tier-1 can round-trip a
//! trace (emit → parse → check nesting and monotonic timestamps)
//! without any external tooling.

use crate::metrics::{id, Registry};
use crate::spans::{SpanRecord, SpanSink};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Schema tag shared with the bench JSON lines (`BENCH_SCHEMA`).
pub const OBS_SCHEMA: u32 = 2;

/// Logical CPUs on this host (mirrors `bench::timing::host_cores`).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn span_name(span_id: u64) -> &'static str {
    id::SPAN_NAMES
        .get(span_id as usize)
        .copied()
        .unwrap_or("span_unknown")
}

// --------------------------------------------------------------------
// chrome://tracing writer
// --------------------------------------------------------------------

/// Render span records as a chrome trace event array: one complete
/// (`"ph":"X"`) event per record with `ts`/`dur` in microseconds, plus a
/// `thread_name` metadata event per distinct tid. Open the file in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 96);
    out.push('[');
    let mut first = true;
    let mut tids: Vec<u64> = records.iter().map(|r| r.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        if !first {
            out.push(',');
        }
        first = false;
        let label = if tid == crate::VIRTUAL_TID {
            "virtual-cluster".to_string()
        } else {
            format!("worker-{tid}")
        };
        let _ = write!(
            out,
            "\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{label}\"}}}}"
        );
    }
    for r in records {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
            span_name(r.span_id),
            r.start_ns as f64 / 1e3,
            r.dur_ns as f64 / 1e3,
            r.tid
        );
    }
    out.push_str("\n]\n");
    out
}

/// Write [`chrome_trace_json`] of the sink's snapshot to `path`.
pub fn write_chrome_trace(path: &Path, sink: &SpanSink) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json(&sink.snapshot()))
}

// --------------------------------------------------------------------
// chrome trace parser + validator
// --------------------------------------------------------------------

/// One parsed trace event (the fields the validator cares about).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name.
    pub name: String,
    /// Phase: `X` complete events, `M` metadata.
    pub ph: char,
    /// Start, microseconds.
    pub ts_us: f64,
    /// Duration, microseconds (0 for metadata).
    pub dur_us: f64,
    /// Process id.
    pub pid: u64,
    /// Thread id.
    pub tid: u64,
}

/// Minimal JSON value — just enough to round-trip trace files.
#[derive(Debug)]
enum Json {
    Null,
    Bool,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self { b: s.as_bytes(), i: 0 }
    }

    fn err(&self, msg: &str) -> String {
        format!("trace json: {msg} at byte {}", self.i)
    }

    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool),
            b'f' => self.lit("false", Json::Bool),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.b.len()
            && matches!(self.b[self.i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let esc = *self.b.get(self.i).ok_or_else(|| self.err("bad escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err(self.err("bad \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => s.push(c as char),
            }
        }
        Err(self.err("unterminated string"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }
}

/// Parse a chrome trace file: either a bare event array or the
/// `{"traceEvents": [...]}` wrapper form.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut p = Parser::new(text);
    let root = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing data"));
    }
    let events = match &root {
        Json::Arr(items) => items,
        Json::Obj(_) => match root.get("traceEvents") {
            Some(Json::Arr(items)) => items,
            _ => return Err("trace json: no traceEvents array".into()),
        },
        _ => return Err("trace json: root must be array or object".into()),
    };
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("trace json: event {i} missing name"))?
            .to_string();
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .and_then(|s| s.chars().next())
            .ok_or_else(|| format!("trace json: event {i} missing ph"))?;
        out.push(TraceEvent {
            name,
            ph,
            ts_us: ev.get("ts").and_then(Json::as_f64).unwrap_or(0.0),
            dur_us: ev.get("dur").and_then(Json::as_f64).unwrap_or(0.0),
            pid: ev.get("pid").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            tid: ev.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        });
    }
    Ok(out)
}

/// Validate trace structure: per tid, complete events must appear in
/// non-decreasing `ts` order with non-negative durations, and spans
/// must nest — an event starting inside an open span must also end
/// inside it. Metadata (`ph == 'M'`) events are skipped.
pub fn validate_trace(events: &[TraceEvent]) -> Result<(), String> {
    // Small tolerance: timestamps are ns exported at µs precision.
    const EPS: f64 = 2e-3;
    let mut tids: Vec<u64> = events.iter().filter(|e| e.ph != 'M').map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let mut last_ts = f64::NEG_INFINITY;
        let mut open: Vec<(f64, String)> = Vec::new(); // (end_ts, name)
        for ev in events.iter().filter(|e| e.ph != 'M' && e.tid == tid) {
            if ev.ph != 'X' {
                return Err(format!("event {:?}: unsupported ph {:?}", ev.name, ev.ph));
            }
            if ev.dur_us < 0.0 {
                return Err(format!("event {:?}: negative duration", ev.name));
            }
            if ev.ts_us + EPS < last_ts {
                return Err(format!(
                    "tid {tid}: timestamps not monotonic at {:?} (ts {} after {})",
                    ev.name, ev.ts_us, last_ts
                ));
            }
            last_ts = ev.ts_us;
            let end = ev.ts_us + ev.dur_us;
            while let Some((open_end, _)) = open.last() {
                if ev.ts_us + EPS >= *open_end {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some((open_end, open_name)) = open.last() {
                if end > *open_end + EPS {
                    return Err(format!(
                        "tid {tid}: {:?} (ends {end}) overlaps enclosing {:?} (ends {open_end})",
                        ev.name, open_name
                    ));
                }
            }
            open.push((end, ev.name.clone()));
        }
    }
    Ok(())
}

// --------------------------------------------------------------------
// metrics exporters
// --------------------------------------------------------------------

/// Human-readable snapshot of every counter, gauge, and histogram.
pub fn metrics_text(reg: &Registry) -> String {
    let mut out = String::new();
    for (c, name) in id::COUNTER_NAMES.iter().enumerate() {
        let _ = writeln!(out, "counter {name} {}", reg.counter_total(c));
    }
    for (g, name) in id::GAUGE_NAMES.iter().enumerate() {
        let _ = writeln!(out, "gauge {name} {}", reg.gauge(g));
    }
    for (h, name) in id::HIST_NAMES.iter().enumerate() {
        let _ = writeln!(
            out,
            "hist {name} count={} sum={} p50<={} p99<={}",
            reg.hist_count(h),
            reg.hist_sum(h),
            reg.hist_quantile_upper_ns(h, 0.5),
            reg.hist_quantile_upper_ns(h, 0.99),
        );
    }
    out
}

/// Machine-readable snapshot sharing the bench JSON conventions
/// (`schema`, `threads`, `host_cores`). Every metric id is emitted even
/// at zero, so downstream consumers see a stable shape.
pub fn metrics_json(reg: &Registry, spans: Option<&SpanSink>, threads: usize) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": {OBS_SCHEMA},\n  \"kind\": \"obs_metrics\",\n  \
         \"threads\": {threads},\n  \"host_cores\": {}",
        host_cores()
    );
    out.push_str(",\n  \"counters\": {");
    for (c, name) in id::COUNTER_NAMES.iter().enumerate() {
        let sep = if c == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{name}\": {}", reg.counter_total(c));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (g, name) in id::GAUGE_NAMES.iter().enumerate() {
        let sep = if g == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{name}\": {}", reg.gauge(g));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (h, name) in id::HIST_NAMES.iter().enumerate() {
        let sep = if h == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{name}\": {{\"count\": {}, \"sum_ns\": {}, \
             \"p50_upper_ns\": {}, \"p99_upper_ns\": {}}}",
            reg.hist_count(h),
            reg.hist_sum(h),
            reg.hist_quantile_upper_ns(h, 0.5),
            reg.hist_quantile_upper_ns(h, 0.99),
        );
    }
    out.push_str("\n  }");
    if let Some(s) = spans {
        let _ = write!(
            out,
            ",\n  \"spans\": {{\"recorded\": {}, \"dropped\": {}, \"capacity\": {}}}",
            s.len(),
            s.dropped(),
            s.capacity()
        );
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_round_trips_and_validates() {
        let sink = SpanSink::new(1, 16);
        // A step span enclosing two stage spans on tid 0, one on tid 1.
        sink.record(id::S_STEP as u64, 0, 1_000, 10_000);
        sink.record(id::S_UPDATE_PHI as u64, 0, 1_500, 3_000);
        sink.record(id::S_PHASE_BASE as u64 + 6, 0, 5_000, 2_000);
        sink.record(id::S_POOL_JOB as u64, 1, 2_000, 1_000);
        let json = chrome_trace_json(&sink.snapshot());
        let events = parse_chrome_trace(&json).unwrap();
        // 2 metadata + 4 complete events.
        assert_eq!(events.len(), 6);
        assert_eq!(events.iter().filter(|e| e.ph == 'M').count(), 2);
        let step = events.iter().find(|e| e.name == "step").unwrap();
        assert_eq!(step.ph, 'X');
        assert!((step.ts_us - 1.0).abs() < 1e-9);
        assert!((step.dur_us - 10.0).abs() < 1e-9);
        validate_trace(&events).unwrap();
    }

    #[test]
    fn parser_accepts_trace_events_wrapper_and_rejects_garbage() {
        let wrapped = r#"{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":2,"pid":1,"tid":0}],"displayTimeUnit":"ms"}"#;
        let events = parse_chrome_trace(wrapped).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "a");
        assert!(parse_chrome_trace("[{\"name\":").is_err());
        assert!(parse_chrome_trace("42").is_err());
        assert!(parse_chrome_trace("[] trailing").is_err());
    }

    #[test]
    fn validator_rejects_overlap_and_backwards_time() {
        let ok = vec![
            TraceEvent { name: "outer".into(), ph: 'X', ts_us: 0.0, dur_us: 10.0, pid: 1, tid: 0 },
            TraceEvent { name: "inner".into(), ph: 'X', ts_us: 2.0, dur_us: 3.0, pid: 1, tid: 0 },
            TraceEvent { name: "after".into(), ph: 'X', ts_us: 6.0, dur_us: 4.0, pid: 1, tid: 0 },
        ];
        validate_trace(&ok).unwrap();

        let overlap = vec![
            TraceEvent { name: "outer".into(), ph: 'X', ts_us: 0.0, dur_us: 10.0, pid: 1, tid: 0 },
            TraceEvent { name: "poke".into(), ph: 'X', ts_us: 5.0, dur_us: 50.0, pid: 1, tid: 0 },
        ];
        assert!(validate_trace(&overlap).is_err());

        let backwards = vec![
            TraceEvent { name: "b".into(), ph: 'X', ts_us: 9.0, dur_us: 1.0, pid: 1, tid: 0 },
            TraceEvent { name: "a".into(), ph: 'X', ts_us: 1.0, dur_us: 1.0, pid: 1, tid: 0 },
        ];
        assert!(validate_trace(&backwards).is_err());

        // Separate tids are independent timelines.
        let two_tids = vec![
            TraceEvent { name: "t1".into(), ph: 'X', ts_us: 9.0, dur_us: 1.0, pid: 1, tid: 1 },
            TraceEvent { name: "t0".into(), ph: 'X', ts_us: 1.0, dur_us: 1.0, pid: 1, tid: 0 },
        ];
        validate_trace(&two_tids).unwrap();
    }

    #[test]
    fn metrics_exports_cover_every_id() {
        let reg = Registry::new(2);
        reg.counter_add(id::C_SAMPLER_STEPS, 3);
        reg.hist_record(id::H_STEP_NS, 1500);
        reg.gauge_set(id::G_WORKERS, 4);

        let text = metrics_text(&reg);
        assert!(text.contains("counter sampler_steps 3"));
        assert!(text.contains("gauge workers 4"));
        assert!(text.contains("hist step_ns count=1 sum=1500"));
        // Zero-valued ids still present.
        assert!(text.contains("counter comm_collectives 0"));

        let sink = SpanSink::new(1, 4);
        sink.record(0, 0, 0, 1);
        let json = metrics_json(&reg, Some(&sink), 4);
        assert!(json.contains("\"schema\": 2"));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"host_cores\": "));
        assert!(json.contains("\"sampler_steps\": 3"));
        assert!(json.contains("\"comm_collective_ns\": {\"count\": 0"));
        assert!(json.contains("\"spans\": {\"recorded\": 1, \"dropped\": 0, \"capacity\": 4}"));
        // Well-formed per our own parser (it is plain JSON).
        let mut p = Parser::new(&json);
        let root = p.value().unwrap();
        assert!(root.get("histograms").is_some());
    }
}
