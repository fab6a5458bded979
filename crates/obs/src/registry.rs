//! The unified telemetry registry.
//!
//! Every layer of the stack keeps its own accumulators during a run;
//! the registry is where they meet afterwards: named counters
//! (monotonic integers), gauges (point-in-time reals) and histograms
//! ([`LatencyStat`] distributions) under dotted names
//! (`frontend.premium.shed`, `serve.batched.idle_wait_us`). Storage is
//! `BTreeMap`, so every export walks names in sorted order and the text
//! snapshot is deterministic — diffable across runs and greppable in CI.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::latency::{LatencyStat, LatencyStats};

/// Named counters, gauges and latency histograms from one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LatencyStat>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (created at 0).
    pub fn inc(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Folds one observation into histogram `name` (created empty).
    pub fn observe(&mut self, name: &str, value_us: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value_us);
    }

    /// Records a finished [`LatencyStats`] snapshot as five gauges
    /// (`prefix.mean_us` … `prefix.max_us`) — for summaries whose
    /// sample stream is already reduced.
    pub fn record_latency(&mut self, prefix: &str, stats: &LatencyStats) {
        self.set_gauge(&format!("{prefix}.mean_us"), stats.mean_us);
        self.set_gauge(&format!("{prefix}.p50_us"), stats.p50_us);
        self.set_gauge(&format!("{prefix}.p95_us"), stats.p95_us);
        self.set_gauge(&format!("{prefix}.p99_us"), stats.p99_us);
        self.set_gauge(&format!("{prefix}.max_us"), stats.max_us);
    }

    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram accumulator, if any observation was folded in.
    pub fn histogram(&self, name: &str) -> Option<&LatencyStat> {
        self.histograms.get(name)
    }

    /// Total named metrics (counters + gauges + histograms).
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flat text snapshot: one `name value` (or
    /// `name{count,mean,p50,p95,p99,max}`) line per metric, sorted by
    /// name within each section. Deterministic for a fixed run — CI
    /// greps it, bench reports embed it.
    pub fn snapshot_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter {name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {value:.3}");
        }
        for (name, h) in &self.histograms {
            let s = h.stats();
            let _ = writeln!(
                out,
                "hist {name} count={} mean={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}",
                h.count(),
                s.mean_us,
                s.p50_us,
                s.p95_us,
                s.p99_us,
                s.max_us
            );
        }
        out
    }

    /// The snapshot as a flat JSON object (same names, same fixed
    /// three-decimal formatting — byte-deterministic like the text).
    pub fn to_json(&self) -> String {
        let mut fields: Vec<String> = Vec::with_capacity(self.len());
        for (name, value) in &self.counters {
            fields.push(format!(r#""{name}":{value}"#));
        }
        for (name, value) in &self.gauges {
            fields.push(format!(r#""{name}":{value:.3}"#));
        }
        for (name, h) in &self.histograms {
            let s = h.stats();
            fields.push(format!(
                r#""{name}":{{"count":{},"mean_us":{:.3},"p50_us":{:.3},"p95_us":{:.3},"p99_us":{:.3},"max_us":{:.3}}}"#,
                h.count(),
                s.mean_us,
                s.p50_us,
                s.p95_us,
                s.p99_us,
                s.max_us
            ));
        }
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.inc("frontend.shed", 3);
        reg.inc("frontend.shed", 2);
        reg.inc("fleet.batches", 10);
        reg.set_gauge("serve.utilization", 0.751234);
        for x in [10.0, 20.0, 30.0] {
            reg.observe("fleet.service_us", x);
        }
        reg.record_latency(
            "frontend.premium",
            &LatencyStats {
                mean_us: 12.0,
                p50_us: 11.0,
                p95_us: 20.0,
                p99_us: 25.0,
                max_us: 30.0,
            },
        );
        reg
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let reg = sample();
        assert_eq!(reg.counter("frontend.shed"), 5);
        assert_eq!(reg.counter("absent"), 0);
        assert_eq!(reg.gauge("serve.utilization"), Some(0.751234));
        assert_eq!(reg.gauge("absent"), None);
        let h = reg.histogram("fleet.service_us").expect("observed");
        assert_eq!(h.count(), 3);
        assert!((h.mean_us() - 20.0).abs() < 1e-12);
        assert!(!reg.is_empty());
    }

    #[test]
    fn record_latency_expands_to_five_gauges() {
        let reg = sample();
        assert_eq!(reg.gauge("frontend.premium.mean_us"), Some(12.0));
        assert_eq!(reg.gauge("frontend.premium.p99_us"), Some(25.0));
        assert_eq!(reg.gauge("frontend.premium.max_us"), Some(30.0));
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let reg = sample();
        let text = reg.snapshot_text();
        assert_eq!(text, reg.snapshot_text());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "counter fleet.batches 10");
        assert_eq!(lines[1], "counter frontend.shed 5");
        assert!(lines
            .iter()
            .any(|l| l.starts_with("gauge serve.utilization 0.751")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("hist fleet.service_us count=3 mean=20.000")));
    }

    #[test]
    fn json_snapshot_is_flat_and_deterministic() {
        let reg = sample();
        let json = reg.to_json();
        assert_eq!(json, reg.to_json());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""frontend.shed":5"#));
        assert!(json.contains(r#""fleet.service_us":{"count":3,"mean_us":20.000"#));
    }
}
