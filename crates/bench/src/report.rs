//! Experiment reports and machine-readable benchmark results.
//!
//! Every experiment returns a [`Report`]: its markdown, its named
//! metrics, and the oracles it declares. Each bench bin ends in
//! [`finish`], which prints the markdown and exits non-zero when a
//! declared oracle is false or was never recorded, so CI gates on the
//! bins' exit status rather than on the wording of their reports.
//!
//! `run_all` writes a `BENCH_results.json` next to its markdown output so
//! the perf trajectory (wall time per experiment, profile, parallelism,
//! modelled serving metrics) can be tracked across PRs without parsing
//! markdown. The JSON is hand-emitted and re-parsed by [`BenchSnapshot`]
//! (the workspace has no serde) and deliberately flat:
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
//! Schema 2 added `metrics` — named modelled quantities alongside host
//! wall times. Schema 3 replaces the fleet study's degenerate
//! `shards / latency` throughput metrics with the `serve` experiment's
//! virtual-time serving metrics (capacity, latency percentiles per
//! scheduler and offered load, closed-loop validation). Schema 4 adds
//! the `partition` experiment's model-parallel metrics
//! (`partition.latency_us.*` / `partition.energy_uj.*` /
//! `partition.comm_overhead_pct.*` per chip count, plus the
//! `partition.bit_identical` and `partition.single_chip_rejected`
//! oracle flags). Schema 5 adds the wavefront-pipelining metrics
//! (`partition.pipeline.wavefront_latency_us.*` /
//! `partition.pipeline.free_latency_us.*` /
//! `partition.pipeline.speedup.*` /
//! `partition.pipeline.comm_hidden_pct.*` per chip count, plus the
//! `partition.pipeline.overlap_sound` flag), so `bench-trend` tracks
//! the comm/compute-overlap win of the wavefront schedule. Schema 6
//! adds the production front end's `frontend.*` metrics (overload
//! goodput/shed-rate/high-p99 per admission policy, hedged-vs-unhedged
//! fault goodput, autoscaler activity, and the policy-sweep winner,
//! plus the `frontend.high_p99_within_slo`,
//! `frontend.low_absorbs_overload` and `frontend.hedged_beats_unhedged`
//! oracle flags). Schema 7 adds the cross-request batching study's
//! `batching.*` metrics (per-sample time and W-read amortization per
//! batch size from the real batched machine, saturated throughput and
//! light-load p99 per batch cap from the queue-aware simulator, plus
//! the `batching.bit_identical`, `batching.throughput_monotone` and
//! `batching.latency_cost_visible` oracle flags). Schema 8 adds the
//! observability plane's `obs.*` metrics (trace span/byte counts, the
//! `obs.trace_deterministic` / `obs.nesting_ok` / `obs.spans_covered`
//! oracle flags, and the tracing-overhead percentages with their
//! `obs.overhead_disabled_ok` / `obs.overhead_enabled_ok` oracles).
//! Schema 9 adds the trace-analytics `analyze.*` metrics
//! (critical-path attribution shares, tail-exemplar gaps, burn rates
//! and their oracle flags). Schema 10 adds the native-kernel study's
//! `kernel.*` metrics — **measured wall-clock**, not modelled time:
//! dense-vs-prescan per-sample latency and speedup per block size and
//! input sparsity, native-batch per-sample latency and W-word
//! amortization per batch size, the modelled-vs-measured cross-check and
//! the `kernel.bit_exact` oracle flag — plus `profile.*` wall-time phases
//! from a phase profiler. Schema 10 later gained the
//! `kernel.speedup_ok` / `kernel.engine_overhead_ok` flags for the
//! kernel's two numeric gates. It also lost the simulator hot-loop
//! comparison (its speedup, its oracle flag and its `profile.sim.*`
//! phases) when the per-element scan it timed was deleted; the
//! `cycle_golden` snapshot test pins the simulator instead. It then
//! lost the kernel study's remaining `profile.*` phases, when the
//! phase profiler was deleted in favour of `min_wall_us`, and
//! `analyze.exemplar_exact`, when the tail exemplars became one
//! offline read of the recording; the obs study gained
//! `obs.spans_dropped`, the recorder's drop count.
//! The `bench_diff` bin
//! compares two such files (any schema — metrics diff generically by
//! name, and metrics present only in the old file get explicit
//! `removed` rows), flags wall-time regressions past a threshold on
//! experiments of at least [`MIN_JUDGED_SECONDS`], and
//! flags *directional* metric regressions: quantities named like
//! goodput/throughput/attainment/speedup must not fall, and latencies
//! (`*_us`), shed rates and error rates must not grow, each past the
//! same threshold. `bench_diff --json PATH` additionally writes the
//! diff itself as a machine-readable document ([`BenchDiff::to_json`]).

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

    /// Records a named modelled metric for the JSON output.
    pub fn add_metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
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

/// A parsed `BENCH_results.json` — the read side of [`BenchResults`],
/// consumed by the `bench_diff` bin to compare two runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchSnapshot {
    /// Profile the run used.
    pub profile: String,
    /// Worker-pool size recorded by the run.
    pub workers: f64,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
    /// `(name, seconds)` per experiment, in file order.
    pub experiments: Vec<(String, f64)>,
    /// `(name, value)` modelled metrics (empty for schema-1 files).
    pub metrics: Vec<(String, f64)>,
}

impl BenchSnapshot {
    /// Parses a `BENCH_results.json` document (schema 1 through 10).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax or shape problem.
    pub fn parse(json: &str) -> Result<Self, String> {
        let value = json::parse(json)?;
        let root = value.as_object().ok_or("top level must be an object")?;
        let get = |key: &str| json::lookup(root, key);
        let mut snap = BenchSnapshot {
            profile: get("profile")
                .and_then(json::JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            workers: get("workers")
                .and_then(json::JsonValue::as_f64)
                .unwrap_or(0.0),
            total_seconds: get("total_seconds")
                .and_then(json::JsonValue::as_f64)
                .unwrap_or(0.0),
            ..BenchSnapshot::default()
        };
        let named = |entry: &json::JsonValue, value_key: &str| -> Option<(String, f64)> {
            let obj = entry.as_object()?;
            Some((
                json::lookup(obj, "name")?.as_str()?.to_string(),
                json::lookup(obj, value_key)?.as_f64()?,
            ))
        };
        if let Some(json::JsonValue::Arr(entries)) = get("experiments") {
            snap.experiments = entries.iter().filter_map(|e| named(e, "seconds")).collect();
        }
        if let Some(json::JsonValue::Arr(entries)) = get("metrics") {
            snap.metrics = entries.iter().filter_map(|e| named(e, "value")).collect();
        }
        if snap.experiments.is_empty() {
            return Err("no experiments in file".into());
        }
        Ok(snap)
    }
}

/// Result of diffing two benchmark snapshots.
#[derive(Clone, Debug)]
pub struct BenchDiff {
    /// Rendered markdown comparison.
    pub markdown: String,
    /// Experiments whose wall time grew past the threshold.
    pub regressions: Vec<String>,
    /// Metrics that moved in their bad direction past the threshold.
    pub metric_regressions: Vec<String>,
}

impl BenchDiff {
    /// Renders the diff as a JSON document: the regression lists plus
    /// the rendered markdown, for dashboards that post-process
    /// `bench_diff --json` output.
    pub fn to_json(&self) -> String {
        let list = |items: &[String]| {
            items
                .iter()
                .map(|name| format!("\"{}\"", escape(name)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"regressions\": [{}],", list(&self.regressions));
        let _ = writeln!(
            out,
            "  \"metric_regressions\": [{}],",
            list(&self.metric_regressions)
        );
        let _ = writeln!(out, "  \"markdown\": \"{}\"", escape(&self.markdown));
        out.push_str("}\n");
        out
    }
}

/// Which way a modelled metric is allowed to move, inferred from its
/// name. Oracle flags (0/1) and counts with no inherent direction return
/// `None` and are reported without a regression check.
fn metric_direction(name: &str) -> Option<MetricDirection> {
    // Higher-better first: "goodput_rps" etc. would otherwise match the
    // lower-better "rate" family on nothing, but keep the precedence
    // explicit anyway.
    const HIGHER: [&str; 6] = [
        "goodput",
        "throughput",
        "attainment",
        "capacity",
        "speedup",
        "comm_hidden",
    ];
    const LOWER: [&str; 5] = ["_us", "shed_rate", "error", "overhead", "latency"];
    if HIGHER.iter().any(|k| name.contains(k)) {
        Some(MetricDirection::HigherBetter)
    } else if LOWER.iter().any(|k| name.contains(k)) {
        Some(MetricDirection::LowerBetter)
    } else {
        None
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricDirection {
    HigherBetter,
    LowerBetter,
}

/// Shortest old wall time, in seconds, that [`diff_snapshots`] judges.
/// Each side of a diff is one reading, and a shorter experiment's run
/// to run spread alone can pass any threshold (`serve` once read
/// 0.055 s then 0.089 s, +62 %, after a docs-only change).
pub const MIN_JUDGED_SECONDS: f64 = 1.0;

/// Compares two snapshots: per-experiment wall-time delta plus metric
/// deltas, flagging experiments slower than `threshold_pct` percent and
/// metrics that moved in their bad direction past the same threshold.
/// Experiments whose old wall time is under [`MIN_JUDGED_SECONDS`] keep
/// their delta but are never flagged.
pub fn diff_snapshots(old: &BenchSnapshot, new: &BenchSnapshot, threshold_pct: f64) -> BenchDiff {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## bench-diff — old: profile {}, {:.1}s | new: profile {}, {:.1}s\n",
        old.profile, old.total_seconds, new.profile, new.total_seconds
    );
    if old.profile != new.profile {
        let _ = writeln!(
            out,
            "**Warning:** profiles differ; wall-time deltas are not comparable.\n"
        );
    }
    let mut regressions = Vec::new();
    let mut rows = Vec::new();
    for (name, new_s) in &new.experiments {
        let old_s = old
            .experiments
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s);
        let (old_col, delta_col, flag) = match old_s {
            Some(o) => {
                let delta = crate::pct_change(o, *new_s);
                let regressed = o >= MIN_JUDGED_SECONDS && delta > threshold_pct;
                if regressed {
                    regressions.push(name.clone());
                }
                (
                    crate::fmt_f(o, 3),
                    format!("{delta:+.1}%"),
                    if regressed { "REGRESSED" } else { "" }.to_string(),
                )
            }
            None => ("-".into(), "new".into(), String::new()),
        };
        rows.push(vec![
            name.clone(),
            old_col,
            crate::fmt_f(*new_s, 3),
            delta_col,
            flag,
        ]);
    }
    for (name, _) in &old.experiments {
        if !new.experiments.iter().any(|(n, _)| n == name) {
            rows.push(vec![
                name.clone(),
                "-".into(),
                "-".into(),
                "removed".into(),
                String::new(),
            ]);
        }
    }
    out.push_str(&crate::markdown_table(
        &["experiment", "old (s)", "new (s)", "delta", ""],
        &rows,
    ));
    let mut metric_regressions = Vec::new();
    if !new.metrics.is_empty() || !old.metrics.is_empty() {
        let _ = writeln!(out, "\n### Modelled metrics\n");
        let mut rows = Vec::new();
        for (name, new_v) in &new.metrics {
            let old_v = old.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
            let flag = match old_v {
                Some(o) => {
                    let delta = crate::pct_change(o, *new_v);
                    let worse = match metric_direction(name) {
                        Some(MetricDirection::HigherBetter) => -delta > threshold_pct,
                        Some(MetricDirection::LowerBetter) => delta > threshold_pct,
                        None => false,
                    };
                    if worse {
                        metric_regressions.push(name.clone());
                        "WORSE"
                    } else {
                        ""
                    }
                }
                None => "",
            };
            rows.push(vec![
                name.clone(),
                old_v.map_or("-".into(), |v| crate::fmt_f(v, 3)),
                crate::fmt_f(*new_v, 3),
                old_v.map_or("new".into(), |v| {
                    format!("{:+.1}%", crate::pct_change(v, *new_v))
                }),
                flag.to_string(),
            ]);
        }
        // Metrics only the old run had: a renamed or dropped metric must
        // show up as "removed", not silently vanish from the diff (the
        // same courtesy the experiments table pays above).
        for (name, old_v) in &old.metrics {
            if !new.metrics.iter().any(|(n, _)| n == name) {
                rows.push(vec![
                    name.clone(),
                    crate::fmt_f(*old_v, 3),
                    "-".into(),
                    "removed".into(),
                    String::new(),
                ]);
            }
        }
        out.push_str(&crate::markdown_table(
            &["metric", "old", "new", "delta", ""],
            &rows,
        ));
    }
    let _ = writeln!(
        out,
        "\n{} regression(s) past the {threshold_pct:.0}% wall-time threshold \
         (experiments under {MIN_JUDGED_SECONDS} s are not judged); \
         {} metric(s) moved the wrong way past the same threshold.",
        regressions.len(),
        metric_regressions.len()
    );
    BenchDiff {
        markdown: out,
        regressions,
        metric_regressions,
    }
}

/// A minimal JSON reader — just enough to re-read the documents this
/// workspace emits (objects, arrays, strings, numbers, booleans, null;
/// no serde in the offline workspace). Public so the trace-export tests
/// can validate the Chrome-trace JSON the obs exporter writes.
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
        r.add_metric("fleet.latency_us_per_sample", 12.5);
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
        r.add_metric("fleet.throughput_sps_4shards", 1234.5);
        let snap = BenchSnapshot::parse(&r.to_json()).unwrap();
        assert_eq!(snap.profile, "fast");
        assert_eq!(snap.experiments.len(), 2);
        assert_eq!(snap.experiments[0], ("table2".to_string(), 0.25));
        assert_eq!(snap.experiments[1].0, "fig\"6\\");
        assert_eq!(snap.metrics.len(), 1);
        assert!((snap.metrics[0].1 - 1234.5).abs() < 1e-9);
        assert!((snap.total_seconds - 1.75).abs() < 1e-9);
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert!(BenchSnapshot::parse("not json").is_err());
        assert!(BenchSnapshot::parse("[1, 2]").is_err());
        assert!(
            BenchSnapshot::parse("{\"schema\": 2}").is_err(),
            "no experiments"
        );
        assert!(BenchSnapshot::parse("{} trailing").is_err());
    }

    fn snap(pairs: &[(&str, f64)]) -> BenchSnapshot {
        BenchSnapshot {
            profile: "fast".into(),
            experiments: pairs.iter().map(|&(n, s)| (n.to_string(), s)).collect(),
            total_seconds: pairs.iter().map(|&(_, s)| s).sum(),
            ..BenchSnapshot::default()
        }
    }

    #[test]
    fn diff_flags_only_real_regressions() {
        let old = snap(&[
            ("fig6", 1.0),
            ("table2", 0.001),
            ("serve", 0.055),
            ("gone", 1.0),
        ]);
        let new = snap(&[
            ("fig6", 1.5),
            ("table2", 0.01),
            ("serve", 0.089),
            ("fresh", 2.0),
        ]);
        let diff = diff_snapshots(&old, &new, 20.0);
        // fig6 +50% regressed; table2 (10× slower) and serve (+62%, seen
        // after a docs-only change) are under the 1 s floor; "fresh" and
        // "gone" are informational.
        assert_eq!(diff.regressions, vec!["fig6".to_string()]);
        assert!(
            diff.markdown.contains("+61.8%"),
            "short rows keep their delta"
        );
        assert!(diff.markdown.contains("REGRESSED"));
        assert!(diff.markdown.contains("new"));
        assert!(diff.markdown.contains("removed"));
        // Within threshold: no flags.
        let calm = diff_snapshots(&old, &old, 20.0);
        assert!(calm.regressions.is_empty());
        assert!(calm.metric_regressions.is_empty());
    }

    #[test]
    fn diff_flags_directional_metric_regressions() {
        let mut old = snap(&[("frontend", 1.0)]);
        old.metrics = vec![
            ("frontend.overload.goodput_rps.bounded".into(), 1000.0),
            ("frontend.overload.high_p99_us.bounded".into(), 100.0),
            ("serve.hetero.p95_us.first-idle@75pct".into(), 50.0),
            ("frontend.hedged_beats_unhedged".into(), 1.0),
        ];
        let mut new = old.clone();
        new.metrics = vec![
            // Goodput fell 50%: higher-better, regressed.
            ("frontend.overload.goodput_rps.bounded".into(), 500.0),
            // p99 grew 50%: lower-better, regressed.
            ("frontend.overload.high_p99_us.bounded".into(), 150.0),
            // p95 *improved*: no flag.
            ("serve.hetero.p95_us.first-idle@75pct".into(), 25.0),
            // Oracle flag has no direction keyword: never flagged here.
            ("frontend.hedged_beats_unhedged".into(), 0.0),
        ];
        let diff = diff_snapshots(&old, &new, 20.0);
        assert_eq!(
            diff.metric_regressions,
            vec![
                "frontend.overload.goodput_rps.bounded".to_string(),
                "frontend.overload.high_p99_us.bounded".to_string(),
            ]
        );
        assert!(diff.markdown.contains("WORSE"));
        assert!(diff.regressions.is_empty(), "wall time was unchanged");
    }

    #[test]
    fn diff_reports_removed_metrics() {
        let mut old = snap(&[("bench", 1.0)]);
        old.metrics = vec![
            ("batching.throughput_rps.B4@sat".into(), 200_000.0),
            ("frontend.legacy_metric".into(), 7.0),
        ];
        let mut new = old.clone();
        new.metrics = vec![("batching.throughput_rps.B4@sat".into(), 210_000.0)];
        let diff = diff_snapshots(&old, &new, 20.0);
        // The dropped metric gets an explicit row instead of vanishing.
        assert!(diff.markdown.contains("frontend.legacy_metric"));
        assert!(diff.markdown.contains("removed"));
        // A removed metric is informational, never a regression.
        assert!(diff.metric_regressions.is_empty());

        // And a metrics-only-in-old file still renders the section.
        new.metrics.clear();
        let diff = diff_snapshots(&old, &new, 20.0);
        assert!(diff.markdown.contains("### Modelled metrics"));
        assert!(diff.markdown.contains("batching.throughput_rps.B4@sat"));
    }

    #[test]
    fn metric_direction_classifies_by_name() {
        assert_eq!(
            metric_direction("frontend.sweep.best_goodput_rps"),
            Some(MetricDirection::HigherBetter)
        );
        assert_eq!(
            metric_direction("partition.pipeline.speedup.4chips"),
            Some(MetricDirection::HigherBetter)
        );
        assert_eq!(
            metric_direction("serve.bursty.p99_us.least-queued"),
            Some(MetricDirection::LowerBetter)
        );
        assert_eq!(
            metric_direction("frontend.overload.shed_rate.bounded"),
            Some(MetricDirection::LowerBetter)
        );
        assert_eq!(metric_direction("frontend.autoscale.scale_outs"), None);
        assert_eq!(metric_direction("serve.closed_loop_matches_model"), None);
        // Schema 10: the kernel's measured wall-clock metrics diff
        // directionally too — latencies must not grow, speedups not fall.
        assert_eq!(
            metric_direction("kernel.prescan_us.bs16"),
            Some(MetricDirection::LowerBetter)
        );
        assert_eq!(
            metric_direction("kernel.batch_per_sample_us.B4"),
            Some(MetricDirection::LowerBetter)
        );
        assert_eq!(
            metric_direction("kernel.speedup_at_paper_sparsity"),
            Some(MetricDirection::HigherBetter)
        );
        assert_eq!(metric_direction("kernel.bit_exact"), None);
    }

    #[test]
    fn diff_json_roundtrips_through_the_parser() {
        let old = snap(&[("fig6", 1.0)]);
        let new = snap(&[("fig6", 2.0)]);
        let diff = diff_snapshots(&old, &new, 20.0);
        let value = json::parse(&diff.to_json()).expect("diff JSON parses");
        let root = value.as_object().expect("object");
        let regs = match json::lookup(root, "regressions") {
            Some(json::JsonValue::Arr(items)) => items.clone(),
            other => panic!("regressions must be an array, got {other:?}"),
        };
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].as_str(), Some("fig6"));
        assert!(json::lookup(root, "markdown")
            .and_then(json::JsonValue::as_str)
            .expect("markdown string")
            .contains("REGRESSED"));
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
        let snap = BenchSnapshot::parse(&results.to_json()).unwrap();
        assert_eq!(
            snap.metrics,
            [
                ("demo.first".to_string(), 1.0),
                ("demo.second".to_string(), 0.0)
            ]
        );
    }
}
