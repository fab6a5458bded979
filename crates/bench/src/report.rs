//! Experiment reports and machine-readable benchmark results.
//!
//! Every experiment returns a [`Report`]: its markdown, its named
//! metrics, and the oracles it declares. Each bench bin ends in
//! [`finish`], which prints the markdown and exits non-zero when a
//! declared oracle is false or was never recorded, so CI gates on the
//! bins' exit status rather than on the wording of their reports.
//!
//! `run_all` writes a `BENCH_results.json` next to its markdown output,
//! so a run's wall time per experiment and its named metrics can be read
//! without parsing markdown. The JSON is hand-emitted (the workspace has
//! no serde), read back with [`json::parse`], and deliberately flat:
//!
//! ```json
//! {
//!   "schema": 10,
//!   "profile": "fast",
//!   "workers": 8,
//!   "total_seconds": 123.4,
//!   "experiments": [
//!     { "name": "table2", "seconds": 0.001, "report_chars": 512 }
//!   ],
//!   "metrics": [
//!     { "name": "serve.hetero.p95_us.first-idle@75pct", "value": 12.5 }
//!   ]
//! }
//! ```
//!
//! `workers` is the batch worker-pool size the experiments ran on, and
//! `seconds` each experiment's wall time in one run. `metrics` holds
//! every experiment's [`Report`] metrics in run order, each named after
//! its experiment (`fleet.*`, `serve.*`, `partition.*`, `frontend.*`,
//! `batching.*`, `kernel.*`, `obs.*`, `analyze.*`): modelled quantities
//! (virtual-time latency and goodput, cycles, energy) for the paper and
//! serving studies, measured host wall-clock for the `fleet`, `kernel`
//! and `obs` studies, and every declared oracle as a 0/1 flag
//! (`kernel.bit_exact`, `partition.bit_identical`, …).

use sparsenn_obs::Span;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// One experiment's output: its markdown report, its named metrics for
/// `BENCH_results.json`, and the names of the oracles it declares.
///
/// An oracle is a claim the experiment checks on every run, recorded as
/// a 0/1 metric. `Report::oracle` writes the verdict line and the
/// metric in one call, so the prose and the metric cannot drift apart.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The rendered markdown report.
    pub markdown: String,
    /// Flat `(name, value)` metrics for the machine-readable results.
    pub metrics: Vec<(String, f64)>,
    oracles: &'static [&'static str],
}

impl Report {
    /// An empty report for an experiment that declares `oracles`, each
    /// named by its metric.
    pub(crate) fn new(oracles: &'static [&'static str]) -> Self {
        Self {
            oracles,
            ..Self::default()
        }
    }

    /// Records a named metric.
    pub(crate) fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Appends a markdown table (see [`markdown_table`](crate::markdown_table)).
    pub(crate) fn table(&mut self, header: &[&str], rows: &[Vec<String>]) {
        self.markdown.push_str(&crate::markdown_table(header, rows));
    }

    /// Records oracle `name` as a 1 (holds) or 0 (fails) metric and
    /// writes its verdict line, `- {claim}: yes` or `- {claim}: NO`.
    pub(crate) fn oracle(&mut self, name: &str, ok: bool, claim: impl std::fmt::Display) {
        let verdict = if ok { "yes" } else { "NO" };
        let _ = writeln!(self.markdown, "- {claim}: {verdict}");
        self.metric(name, f64::from(u8::from(ok)));
    }

    /// One message per declared oracle that failed or was never
    /// recorded; empty when every oracle holds.
    pub(crate) fn failures(&self) -> Vec<String> {
        self.oracles
            .iter()
            .filter_map(|&name| match self.metrics.iter().find(|(n, _)| n == name) {
                Some(&(_, 1.0)) => None,
                Some(_) => Some(format!("oracle `{name}` failed")),
                None => Some(format!("oracle `{name}` was never recorded")),
            })
            .collect()
    }
}

impl std::fmt::Write for Report {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.markdown.push_str(s);
        Ok(())
    }
}

impl AsRef<str> for Report {
    fn as_ref(&self) -> &str {
        &self.markdown
    }
}

/// Prints `report`'s markdown and returns the bin's exit status: failure
/// when a declared oracle is false or was never recorded, each named on
/// stderr.
pub fn finish(report: Report) -> ExitCode {
    println!("{}", report.markdown);
    let failures = report.failures();
    for failure in &failures {
        eprintln!("{failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Timing record for one experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentResult {
    /// Experiment name (the bin name: `table2`, `fig6`, …).
    pub name: String,
    /// Wall-clock seconds the experiment took.
    pub seconds: f64,
    /// Size of the produced markdown report, in characters.
    pub report_chars: usize,
}

/// Collector for a whole `run_all` sweep.
#[derive(Clone, Debug, Default)]
pub struct BenchResults {
    /// Active profile name (`fast` / `full`).
    pub profile: String,
    /// Per-experiment timings, in execution order.
    pub experiments: Vec<ExperimentResult>,
    /// Named modelled metrics (e.g. fleet latency/throughput), flat.
    pub metrics: Vec<(String, f64)>,
}

impl BenchResults {
    /// Starts a collector for the given profile.
    pub fn new(profile: impl Into<String>) -> Self {
        Self {
            profile: profile.into(),
            experiments: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Runs one experiment, recording its wall time and the size of its
    /// markdown report. Returns the report so callers can post-process it.
    pub fn run<R: AsRef<str>>(&mut self, name: &str, experiment: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let report = experiment();
        self.experiments.push(ExperimentResult {
            name: name.to_string(),
            seconds: t.elapsed().as_secs_f64(),
            report_chars: report.as_ref().chars().count(),
        });
        report
    }

    /// Total wall-clock seconds across all recorded experiments.
    pub fn total_seconds(&self) -> f64 {
        self.experiments.iter().map(|e| e.seconds).sum()
    }

    /// Renders the results as a JSON document.
    pub fn to_json(&self) -> String {
        // The engine's own resolution, so the recorded value matches the
        // pool the experiments actually ran on.
        let workers = sparsenn_core::engine::default_worker_count();
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": 10,");
        let _ = writeln!(out, "  \"profile\": \"{}\",", escape(&self.profile));
        let _ = writeln!(out, "  \"workers\": {workers},");
        let _ = writeln!(out, "  \"total_seconds\": {:.3},", self.total_seconds());
        let _ = writeln!(out, "  \"experiments\": [");
        for (i, e) in self.experiments.iter().enumerate() {
            let comma = if i + 1 < self.experiments.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{ \"name\": \"{}\", \"seconds\": {:.3}, \"report_chars\": {} }}{comma}",
                escape(&e.name),
                e.seconds,
                e.report_chars,
            );
        }
        out.push_str("  ],\n  \"metrics\": [\n");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{ \"name\": \"{}\", \"value\": {value:.6} }}{comma}",
                escape(name),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// A minimal JSON reader — just enough to re-read the documents this
/// workspace emits (objects, arrays, strings, numbers, booleans, null;
/// no serde in the offline workspace). Public so tests can re-read
/// `BENCH_results.json` and the Chrome-trace JSON the obs exporter writes.
pub mod json {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum JsonValue {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number (always read as `f64`).
        Num(f64),
        /// A string literal.
        Str(String),
        /// An array.
        Arr(Vec<JsonValue>),
        /// An object, in source order.
        Obj(Vec<(String, JsonValue)>),
    }

    impl JsonValue {
        /// The object's fields, when this is an object.
        pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
            match self {
                JsonValue::Obj(fields) => Some(fields),
                _ => None,
            }
        }

        /// The string payload, when this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                JsonValue::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric payload, when this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                JsonValue::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    /// First value for `key` in an object's fields.
    pub fn lookup<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Deepest array/object nesting [`parse`] accepts. The documents this
    /// workspace writes nest at most four levels; the bound keeps the
    /// recursive reader from overflowing the stack on hostile input.
    pub const MAX_DEPTH: usize = 128;

    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// A description of the first syntax error, or of nesting deeper
    /// than [`MAX_DEPTH`].
    pub fn parse(src: &str) -> Result<JsonValue, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
            }
            Some(b'{') => parse_object(b, pos, depth + 1),
            Some(b'[') => parse_array(b, pos, depth + 1),
            Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
            Some(_) => parse_number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("invalid \\u escape")?;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = b.get(*pos..*pos + len).ok_or("truncated utf-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    *pos += len;
                }
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(parse_value(b, pos, depth)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            expect(b, pos, b':')?;
            fields.push((key, parse_value(b, pos, depth)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }
}

/// Parses a Chrome trace-event JSON document (the
/// [`chrome_trace`](sparsenn_obs::chrome_trace) exporter's output) back
/// into a span list, so `trace_report` can analyze a recorded run from
/// disk. Inverse up to representation: complete `"X"` events and async
/// `"b"`/`"e"` pairs (matched FIFO on name/id/pid/tid) rebuild their
/// spans in event order; `"M"` metadata is skipped; attribute values
/// re-type by the closed [`AttrKey`](sparsenn_obs::AttrKey) vocabulary
/// (unknown keys, and string values outside the emitters' vocabulary,
/// are dropped rather than failing the parse).
pub fn parse_chrome_trace(src: &str) -> Result<Vec<Span>, String> {
    use sparsenn_obs::{AttrKey, AttrValue, SpanKind};
    use std::collections::HashMap;

    let root = json::parse(src)?;
    let fields = root.as_object().ok_or("top level must be an object")?;
    let events = match json::lookup(fields, "traceEvents") {
        Some(json::JsonValue::Arr(events)) => events,
        _ => return Err("missing traceEvents array".into()),
    };

    let kind_of = |name: &str| -> Option<SpanKind> {
        Some(match name {
            "request" => SpanKind::Request,
            "admit" => SpanKind::Admit,
            "degrade" => SpanKind::Degrade,
            "shed" => SpanKind::Shed,
            "queued" => SpanKind::Queued,
            "degrade_batch" => SpanKind::DegradeBatch,
            "hedge" => SpanKind::Hedge,
            "cancel" => SpanKind::Cancel,
            "retry" => SpanKind::Retry,
            "attempt" => SpanKind::Attempt,
            "batch_assembly" => SpanKind::BatchAssembly,
            "service" => SpanKind::Service,
            "broadcast" => SpanKind::Broadcast,
            "gather" => SpanKind::Gather,
            "vu" => SpanKind::Vu,
            "w" => SpanKind::W,
            _ => return None,
        })
    };
    let key_of = |name: &str| -> Option<AttrKey> {
        Some(match name {
            "attempt" => AttrKey::Attempt,
            "batch" => AttrKey::Batch,
            "batch_size" => AttrKey::BatchSize,
            "chip" => AttrKey::Chip,
            "class" => AttrKey::Class,
            "degraded" => AttrKey::Degraded,
            "factor" => AttrKey::Factor,
            "layer" => AttrKey::Layer,
            "macs" => AttrKey::Macs,
            "nnz_in" => AttrKey::NnzIn,
            "nnz_out" => AttrKey::NnzOut,
            "origin" => AttrKey::Origin,
            "outcome" => AttrKey::Outcome,
            "shard" => AttrKey::Shard,
            "size" => AttrKey::Size,
            "vu_cycles" => AttrKey::VuCycles,
            "w_cycles" => AttrKey::WCycles,
            "w_reads" => AttrKey::WReads,
            _ => return None,
        })
    };
    // Attribute values are stored as `&'static str`; symbolic values in
    // a trace come from the emitters' closed vocabularies.
    let intern = |s: &str| -> Option<&'static str> {
        const VOCAB: [&str; 10] = [
            "high",
            "low",
            "completed",
            "failed",
            "cancelled",
            "shed",
            "primary",
            "hedge",
            "retry",
            "?",
        ];
        VOCAB.iter().copied().find(|v| *v == s)
    };
    let attr_value = |key: AttrKey, v: &json::JsonValue| -> Option<AttrValue> {
        match v {
            json::JsonValue::Str(s) => intern(s).map(AttrValue::Str),
            json::JsonValue::Num(n) => {
                Some(if key != AttrKey::Factor && n.fract() == 0.0 && *n >= 0.0 {
                    AttrValue::U64(*n as u64)
                } else {
                    AttrValue::F64(*n)
                })
            }
            _ => None,
        }
    };

    let mut spans: Vec<Span> = Vec::new();
    // Open async begins awaiting their end, FIFO per (name, id, pid,
    // tid): the index of the provisional span pushed at 'b' time.
    let mut open: HashMap<(String, u64, u64, u64), Vec<usize>> = HashMap::new();
    for (i, event) in events.iter().enumerate() {
        let ev = event
            .as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let str_field = |key: &str| json::lookup(ev, key).and_then(json::JsonValue::as_str);
        let num_field = |key: &str| json::lookup(ev, key).and_then(json::JsonValue::as_f64);
        let ph = str_field("ph").ok_or_else(|| format!("event {i} has no ph"))?;
        if ph == "M" {
            continue;
        }
        let name = str_field("name").ok_or_else(|| format!("event {i} has no name"))?;
        let Some(kind) = kind_of(name) else { continue };
        let ts = num_field("ts").ok_or_else(|| format!("event {i} has no ts"))?;
        let pid = num_field("pid").unwrap_or(0.0) as u32;
        let tid = num_field("tid").unwrap_or(0.0) as u32;
        if ph == "e" {
            let id = num_field("id").unwrap_or(0.0) as u64;
            let slot = open
                .get_mut(&(name.to_string(), id, pid as u64, tid as u64))
                .and_then(|v| (!v.is_empty()).then(|| v.remove(0)))
                .ok_or_else(|| format!("unmatched async end at event {i}"))?;
            spans[slot].end_us = ts;
            continue;
        }
        let trace_id = json::lookup(ev, "args")
            .and_then(json::JsonValue::as_object)
            .and_then(|args| json::lookup(args, "trace_id"))
            .and_then(json::JsonValue::as_f64)
            .map(|v| v as u64)
            .or_else(|| num_field("id").map(|v| v as u64))
            .ok_or_else(|| format!("event {i} has no trace_id"))?;
        let end = match ph {
            "X" => ts + num_field("dur").unwrap_or(0.0),
            "b" => ts, // patched when the matching 'e' arrives
            other => return Err(format!("unsupported phase {other:?} at event {i}")),
        };
        let mut span = Span::new(trace_id, kind, pid, tid, ts, end);
        if let Some(args) = json::lookup(ev, "args").and_then(json::JsonValue::as_object) {
            for (key, value) in args {
                if key == "trace_id" || span.attrs.len() >= sparsenn_obs::MAX_ATTRS {
                    continue;
                }
                if let Some(k) = key_of(key) {
                    if let Some(v) = attr_value(k, value) {
                        span = span.attr(k, v);
                    }
                }
            }
        }
        if ph == "b" {
            open.entry((name.to_string(), trace_id, pid as u64, tid as u64))
                .or_default()
                .push(spans.len());
        }
        spans.push(span);
    }
    for indices in open.values() {
        if let Some(&i) = indices.first() {
            return Err(format!(
                "unclosed async span {:?} trace {}",
                spans[i].kind, spans[i].trace_id
            ));
        }
    }
    Ok(spans)
}

/// Escapes a string for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_and_renders_json() {
        let mut r = BenchResults::new("fast");
        let report = r.run("table2", || "## Table II\n".to_string());
        assert!(report.starts_with("## Table II"));
        r.run("fig6", || "x".repeat(100));
        r.metrics.push(("fleet.latency_us_per_sample".into(), 12.5));
        let json = r.to_json();
        assert!(json.contains("\"profile\": \"fast\""));
        assert!(json.contains("\"name\": \"table2\""));
        assert!(json.contains("\"report_chars\": 100"));
        assert!(json.contains("\"schema\": 10"));
        assert!(json.contains("\"value\": 12.500000"));
        assert_eq!(json.matches("{ \"name\"").count(), 3);
    }

    #[test]
    fn chrome_trace_roundtrips_through_the_parser() {
        use sparsenn_obs::{chrome_trace, track, AttrKey, SpanKind};
        let spans = vec![
            Span::new(
                3,
                SpanKind::Request,
                track::FRONTEND,
                track::CONTROL,
                0.0,
                30.0,
            )
            .attr(AttrKey::Class, "high")
            .attr(AttrKey::Outcome, "completed"),
            Span::new(
                3,
                SpanKind::Queued,
                track::FRONTEND,
                track::CONTROL,
                0.0,
                4.0,
            )
            .attr(AttrKey::Attempt, 0u64)
            .attr(AttrKey::Shard, 1u64),
            Span::new(3, SpanKind::Attempt, track::FLEET, 2, 4.0, 30.0)
                .attr(AttrKey::Attempt, 0u64)
                .attr(AttrKey::Outcome, "completed")
                .attr(AttrKey::Shard, 1u64),
            Span::new(3, SpanKind::Vu, track::MACHINE, 1, 4.0, 10.5)
                .attr(AttrKey::Layer, 1u64)
                .attr(AttrKey::Chip, 0u64),
        ];
        let parsed = parse_chrome_trace(&chrome_trace(&spans)).unwrap();
        // Async spans re-emerge first (their 'b' event's position), sync
        // spans in order; compare as sets keyed by (kind, start).
        assert_eq!(parsed.len(), spans.len());
        for s in &spans {
            assert!(
                parsed.iter().any(|p| p == s),
                "span {s:?} lost in the round trip\n{parsed:#?}"
            );
        }
        assert!(parse_chrome_trace("{}").is_err(), "no traceEvents");
        assert!(parse_chrome_trace("not json").is_err());
    }

    /// The `(name, value_key)` pairs of the `list` array of a parsed
    /// `BENCH_results.json`, in file order.
    fn named(
        root: &[(String, json::JsonValue)],
        list: &str,
        value_key: &str,
    ) -> Vec<(String, f64)> {
        let Some(json::JsonValue::Arr(entries)) = json::lookup(root, list) else {
            panic!("no `{list}` array");
        };
        entries
            .iter()
            .map(|entry| {
                let entry = entry.as_object().expect("entries are objects");
                let field = |key: &str| json::lookup(entry, key).expect("field present");
                (
                    field("name").as_str().expect("string name").to_string(),
                    field(value_key).as_f64().expect("numeric value"),
                )
            })
            .collect()
    }

    #[test]
    fn snapshot_roundtrips_the_emitted_json() {
        let mut r = BenchResults::new("fast");
        r.experiments.push(ExperimentResult {
            name: "table2".into(),
            seconds: 0.25,
            report_chars: 10,
        });
        r.experiments.push(ExperimentResult {
            name: "fig\"6\\".into(), // escaping survives the round trip
            seconds: 1.5,
            report_chars: 20,
        });
        r.metrics
            .push(("fleet.throughput_sps_4shards".into(), 1234.5));
        let doc = json::parse(&r.to_json()).unwrap();
        let root = doc.as_object().expect("top level is an object");
        let field = |key: &str| json::lookup(root, key).expect("field present");
        assert_eq!(field("schema").as_f64(), Some(10.0));
        assert_eq!(field("profile").as_str(), Some("fast"));
        assert_eq!(
            named(root, "experiments", "seconds"),
            [("table2".to_string(), 0.25), ("fig\"6\\".to_string(), 1.5)]
        );
        assert_eq!(
            named(root, "metrics", "value"),
            [("fleet.throughput_sps_4shards".to_string(), 1234.5)]
        );
        assert_eq!(field("total_seconds").as_f64(), Some(1.75));
    }

    #[test]
    fn snapshot_rejects_garbage() {
        let doc = BenchResults::new("fast").to_json();
        for garbage in ["not json", "{} trailing", "", &doc[..doc.len() / 2]] {
            assert!(json::parse(garbage).is_err(), "{garbage:?} parsed");
        }
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn total_sums_experiments() {
        let mut r = BenchResults::new("fast");
        r.experiments.push(ExperimentResult {
            name: "a".into(),
            seconds: 1.5,
            report_chars: 0,
        });
        r.experiments.push(ExperimentResult {
            name: "b".into(),
            seconds: 0.5,
            report_chars: 0,
        });
        assert!((r.total_seconds() - 2.0).abs() < 1e-12);
    }

    const ORACLES: &[&str] = &["demo.first", "demo.second"];

    #[test]
    fn a_false_oracle_fails_the_exit_status() {
        let mut r = Report::new(ORACLES);
        r.oracle("demo.first", true, "first claim");
        r.oracle("demo.second", false, "second claim");
        assert!(r.markdown.contains("- first claim: yes\n"));
        assert!(r.markdown.contains("- second claim: NO\n"));
        assert_eq!(r.failures(), ["oracle `demo.second` failed"]);
        assert_eq!(finish(r), ExitCode::FAILURE);
    }

    #[test]
    fn a_declared_oracle_never_recorded_fails_the_exit_status() {
        let mut r = Report::new(ORACLES);
        r.oracle("demo.first", true, "first claim");
        assert_eq!(r.failures(), ["oracle `demo.second` was never recorded"]);
        assert_eq!(finish(r), ExitCode::FAILURE);
    }

    #[test]
    fn an_all_true_report_succeeds() {
        let mut r = Report::new(ORACLES);
        r.oracle("demo.first", true, "first claim");
        r.oracle("demo.second", true, "second claim");
        r.metric("demo.latency_us", 12.5);
        assert!(r.failures().is_empty());
        assert_eq!(finish(r), ExitCode::SUCCESS);
        assert_eq!(finish(Report::default()), ExitCode::SUCCESS, "no oracles");
    }

    #[test]
    fn oracle_records_the_metric_the_json_carries() {
        let mut r = Report::new(ORACLES);
        r.oracle("demo.first", true, "first claim");
        r.oracle("demo.second", false, "second claim");
        let mut results = BenchResults::new("fast");
        let r = results.run("demo", || r);
        results.metrics.extend(r.metrics.iter().cloned());
        assert_eq!(
            results.experiments[0].report_chars,
            r.markdown.chars().count()
        );
        let doc = json::parse(&results.to_json()).unwrap();
        let root = doc.as_object().expect("top level is an object");
        assert_eq!(
            named(root, "metrics", "value"),
            [
                ("demo.first".to_string(), 1.0),
                ("demo.second".to_string(), 0.0)
            ]
        );
    }
}
