//! The metric catalogue — every metric's name, unit and clock domain —
//! and the per-run registry that fills it.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! a test below keeps the two in step.

use std::fmt::Write as _;

/// Which clock a metric is read on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Measured on this host: wall-clock time, memory, or an exact count
    /// of work the host program did.
    Host,
    /// The cycle-level accelerator model's cycles, time and energy.
    Modelled,
    /// The serving simulators' virtual time and counts.
    Virtual,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modelled => "modelled",
            Clock::Virtual => "virtual",
        }
    }
}

/// One catalogued metric.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
    /// Reported by untraced runs (else by traced runs).
    pub end_to_end: bool,
}

/// Network layers the per-layer metrics cover. Networks with fewer weight
/// layers report 0 for the missing ones.
pub const LAYERS: usize = 4;

/// Every metric the benchmark can report, end-to-end ones first.
pub fn catalogue() -> Vec<Spec> {
    use Clock::{Host, Modelled, Virtual};
    let mut c: Vec<Spec> = Vec::new();
    let mut add = |name: &str, unit: &'static str, clock: Clock, end_to_end: bool| {
        c.push(Spec {
            name: name.to_string(),
            unit,
            clock,
            end_to_end,
        });
    };
    for (name, unit, clock) in [
        ("setup_s", "s", Host),
        ("latency_p50_us", "us", Host),
        ("latency_p99_us", "us", Host),
        ("throughput_sps", "1/s", Host),
        ("sim_requests_per_s", "1/s", Host),
        ("success_rate", "ratio", Host),
        ("peak_rss_mb", "MiB", Host),
        ("modelled_cycles_per_sample", "cycles", Modelled),
        ("modelled_energy_uj_per_sample", "uJ", Modelled),
        ("modelled_uv_speedup", "x", Modelled),
        ("virtual_p99_us", "us", Virtual),
        ("virtual_goodput_rps", "1/s", Virtual),
    ] {
        add(name, unit, clock, true);
    }
    for (name, unit, clock) in [
        ("engine.self_us", "us", Host),
        ("engine.overhead_ratio", "x", Host),
        ("engine.allocs_per_request", "count", Host),
        ("engine.alloc_bytes_per_request", "B", Host),
        ("model.quantize_us", "us", Host),
        ("kernel.run_us", "us", Host),
        ("kernel.uv_off_us", "us", Host),
        ("kernel.dense_us", "us", Host),
        ("kernel.batch_us_per_sample", "us", Host),
        ("kernel.batch_gain", "x", Host),
        ("kernel.w_amortization", "x", Host),
        ("kernel.prescan_us", "us", Host),
    ] {
        add(name, unit, clock, false);
    }
    for l in 0..LAYERS {
        add(
            &format!("kernel.live_block_ratio.l{l}"),
            "ratio",
            Host,
            false,
        );
        add(
            &format!("kernel.active_row_ratio.l{l}"),
            "ratio",
            Host,
            false,
        );
    }
    for (name, unit, clock) in [
        ("kernel.macs_per_sample", "count", Host),
        ("kernel.w_words_per_sample", "count", Host),
        ("kernel.gmac_per_s", "GMAC/s", Host),
        ("kernel.w_gb_per_s", "GB/s", Host),
        ("kernel.pack_ms", "ms", Host),
        ("kernel.allocs_per_run", "count", Host),
        ("sim.host_ms_per_sample.uv_on", "ms", Host),
        ("sim.host_ms_per_sample.uv_off", "ms", Host),
        ("sim.host_ns_per_cycle", "ns", Host),
    ] {
        add(name, unit, clock, false);
    }
    for mode in ["uv_on", "uv_off"] {
        for l in 0..LAYERS {
            add(
                &format!("sim.cycles.l{l}.{mode}"),
                "cycles",
                Modelled,
                false,
            );
            add(
                &format!("sim.vu_cycles.l{l}.{mode}"),
                "cycles",
                Modelled,
                false,
            );
            add(
                &format!("sim.w_reads.l{l}.{mode}"),
                "count",
                Modelled,
                false,
            );
            add(&format!("sim.energy_uj.l{l}.{mode}"), "uJ", Modelled, false);
        }
    }
    for (name, unit, clock) in [
        ("partition.host_ms_per_sample", "ms", Host),
        ("partition.overhead_ratio", "x", Host),
        ("partition.modelled_us_per_sample", "us", Modelled),
        ("serve.simulate_requests_per_s", "1/s", Host),
        ("serve.batched_requests_per_s", "1/s", Host),
        ("frontend.requests_per_s", "1/s", Host),
        ("serve.virtual_p99_us", "us", Virtual),
        ("serve.mean_batch", "count", Virtual),
        ("frontend.shed_rate", "ratio", Virtual),
        ("frontend.hedges_issued", "count", Virtual),
        ("frontend.degrade_batches", "count", Virtual),
        ("frontend.burn_alerts", "count", Virtual),
        ("obs.recorder_overhead_pct", "%", Host),
        ("obs.spans_per_request", "count", Virtual),
        ("datasets.generate_s", "s", Host),
        ("train.s", "s", Host),
        ("bench.trace_overhead_pct", "%", Host),
        ("gap.uv_speedup", "x", Host),
        ("host.i64_mac_gmac_per_s", "GMAC/s", Host),
        ("host.copy_gb_per_s", "GB/s", Host),
    ] {
        add(name, unit, clock, false);
    }
    c
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub spec: Spec,
    pub value: f64,
    /// Observations behind the value (calls timed, samples counted).
    pub samples: u64,
}

/// The metrics one run measured, in measurement order.
pub struct Metrics {
    catalogue: Vec<Spec>,
    measured: Vec<Metric>,
}

impl Metrics {
    pub fn new() -> Self {
        Self {
            catalogue: catalogue(),
            measured: Vec::new(),
        }
    }

    /// Records catalogued metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue — a bug in this program.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let spec = self
            .catalogue
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not catalogued"))
            .clone();
        self.measured.retain(|m| m.spec.name != name);
        self.measured.push(Metric {
            spec,
            value,
            samples: samples as u64,
        });
    }

    /// Records per-layer values as `{prefix}.l{i}{suffix}`, 0 for layers the
    /// network does not have.
    pub fn set_layers(&mut self, prefix: &str, suffix: &str, values: &[f64], samples: usize) {
        for l in 0..LAYERS {
            let v = values.get(l).copied().unwrap_or(0.0);
            self.set(&format!("{prefix}.l{l}{suffix}"), v, samples);
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.measured.iter().find(|m| m.spec.name == name)
    }

    /// The catalogued metrics a run of this kind must report, in
    /// catalogue order, or the first one missing or not finite.
    pub fn reported(&self, end_to_end: bool) -> Result<Vec<&Metric>, String> {
        self.catalogue
            .iter()
            .filter(|s| s.end_to_end == end_to_end)
            .map(|s| match self.get(&s.name) {
                Some(m) if m.value.is_finite() => Ok(m),
                Some(m) => Err(format!("metric `{}` is not finite ({})", s.name, m.value)),
                None => Err(format!("metric `{}` was not measured", s.name)),
            })
            .collect()
    }

    /// Every measured metric as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<36} {:>18} {:<7} {:<9} {:>8}\n",
            "metric", "value", "unit", "clock", "samples"
        );
        for m in &self.measured {
            let _ = writeln!(
                out,
                "{:<36} {:>18.6} {:<7} {:<9} {:>8}",
                m.spec.name,
                m.value,
                m.spec.unit,
                m.spec.clock.label(),
                m.samples
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list is closed")];
        let field = |entry: &str, field: &str| -> String {
            let at = entry.find(&format!("\"{field}\"")).expect("field present");
            let rest = &entry[at + field.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("closed string");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (key, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
            let want: Vec<(String, String)> = catalogue()
                .into_iter()
                .filter(|s| s.end_to_end == end_to_end)
                .map(|s| (s.name, s.unit.to_string()))
                .collect();
            assert_eq!(listed(&json, key), want, "{key}");
        }
    }

    #[test]
    fn catalogue_names_are_unique_and_valid() {
        let c = catalogue();
        for (i, s) in c.iter().enumerate() {
            assert!(s.name.len() <= 64, "{}", s.name);
            assert!(s
                .name
                .chars()
                .next()
                .is_some_and(|ch| ch.is_ascii_alphanumeric()));
            assert!(s
                .name
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == '.' || ch == '-'));
            assert!(
                c[..i].iter().all(|o| o.name != s.name),
                "duplicate {}",
                s.name
            );
        }
        assert_eq!(c.iter().filter(|s| s.end_to_end).count(), 12);
        assert!(c.len() - 12 <= 128);
    }
}
