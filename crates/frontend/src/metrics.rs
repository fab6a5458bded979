//! What a front-end run measured: per-class outcomes and fleet-wide
//! control-plane activity.
//!
//! Latencies accumulate in constant-space
//! [`StreamingLatency`](sparsenn_serve::StreamingLatency) trackers (one
//! per priority class), so a summary costs O(1) memory however many
//! requests the workload issues — the same accounting regime as
//! `sparsenn-serve`'s streaming mode.

use sparsenn_obs::BurnAlert;
use sparsenn_serve::{LatencyStats, Priority};

/// One burn-rate alert edge, tagged with the priority class whose SLO
/// budget raised it (each class runs its own monitor).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassBurnAlert {
    /// The class whose attainment budget fired or cleared.
    pub class: Priority,
    /// The alert edge itself (time, kind, window burn rates).
    pub alert: BurnAlert,
}

/// Outcomes for one [`Priority`] class.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClassStats {
    /// Requests of this class the workload offered.
    pub offered: usize,
    /// Requests admitted at full fidelity.
    pub admitted: usize,
    /// Requests admitted degraded (served at the degraded service cost).
    pub degraded: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Requests that completed (full-fidelity or degraded).
    pub completed: usize,
    /// Requests lost to fail-stops with no retry budget left.
    pub failed: usize,
    /// Completed requests that met their class SLO.
    pub slo_met: usize,
    /// End-to-end latency over completed requests: exact mean/max,
    /// P²-estimated percentiles.
    pub latency: LatencyStats,
}

impl ClassStats {
    /// Fraction of offered requests that completed within SLO (0 when
    /// nothing was offered).
    pub fn slo_attainment(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.slo_met as f64 / self.offered as f64
        }
    }

    /// Fraction of offered requests shed at admission.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// Everything one front-end simulation measured.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontendSummary {
    /// Dispatch policy that ran.
    pub scheduler: String,
    /// Admission policy that ran.
    pub admission: String,
    /// Workload description.
    pub workload: String,
    /// Total requests the workload offered.
    pub requests: usize,
    /// Virtual time of the last resolution, µs.
    pub makespan_us: f64,
    /// Completions per second of virtual time (includes SLO misses).
    pub throughput_rps: f64,
    /// SLO-met completions per second of virtual time — the number the
    /// whole front end is tuned to maximize.
    pub goodput_rps: f64,
    /// Fraction of offered requests shed at admission (all classes).
    pub shed_rate: f64,
    /// Fraction of offered requests that completed within SLO (all
    /// classes).
    pub slo_attainment: f64,
    /// Per-class outcomes, indexed by [`Priority::index`] (High, Low).
    pub classes: [ClassStats; 2],
    /// Duplicate attempts dispatched by hedging timers.
    pub hedges_issued: usize,
    /// Completed requests whose winning attempt raced at least one hedge.
    pub hedge_wins: usize,
    /// Attempts cancelled because a sibling finished first.
    pub cancelled_attempts: usize,
    /// Cancelled attempts that were hedges — the losing duplicates
    /// (subset of [`cancelled_attempts`](Self::cancelled_attempts);
    /// the remainder are primaries a winning hedge displaced).
    pub hedges_cancelled: usize,
    /// Attempts re-dispatched after a fail-stop.
    pub retries: usize,
    /// Completed requests whose winning attempt was a fail-stop retry —
    /// completions the retry policy directly saved.
    pub retry_wins: usize,
    /// Fail-stop faults injected.
    pub failures_injected: usize,
    /// Slowdown faults injected.
    pub slowdowns_injected: usize,
    /// Autoscaler scale-out decisions taken.
    pub scale_outs: usize,
    /// Autoscaler scale-in decisions taken.
    pub scale_ins: usize,
    /// Degrade-tier batches flushed (0 unless degrade batching is on).
    pub degrade_batches: usize,
    /// Mean size of the flushed degrade batches (0 when none flushed).
    pub mean_degrade_batch: f64,
    /// Largest degrade batch flushed.
    pub max_degrade_batch: usize,
    /// Most shards simultaneously active at any point.
    pub peak_active_shards: usize,
    /// Shards active when the run ended.
    pub final_active_shards: usize,
    /// Burn-rate alert edges in virtual-time order (ties: High first).
    /// Empty unless the run configured a
    /// [`BurnConfig`](sparsenn_obs::BurnConfig) — the per-class
    /// monitors observe every terminal outcome (a shed or terminal
    /// failure is an SLO miss).
    pub burn_alerts: Vec<ClassBurnAlert>,
}

impl FrontendSummary {
    /// The stats for `class`.
    pub fn class(&self, class: Priority) -> &ClassStats {
        &self.classes[class.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_rates_guard_division_by_zero() {
        let empty = ClassStats::default();
        assert_eq!(empty.slo_attainment(), 0.0);
        assert_eq!(empty.shed_rate(), 0.0);
        let some = ClassStats {
            offered: 10,
            shed: 2,
            slo_met: 6,
            ..ClassStats::default()
        };
        assert!((some.slo_attainment() - 0.6).abs() < 1e-12);
        assert!((some.shed_rate() - 0.2).abs() < 1e-12);
    }
}
