//! SLO policy and the policy-combination sweep.
//!
//! An SLO turns a latency distribution into a scalar that can be
//! maximized: **goodput**, completions inside the deadline per second.
//! [`sweep_combos`] runs the cross product of scheduler × admission ×
//! hedging × autoscaling × degrade-batching policies over one workload +
//! fault plan and scores each combination, so picking a front-end
//! configuration is reading a table instead of guessing.

use crate::autoscale::AutoscaleConfig;
use crate::hedge::HedgeConfig;
use crate::metrics::FrontendSummary;
use crate::sim::{simulate_frontend, DegradeBatching, FrontendConfig, FrontendError};
use sparsenn_serve::{AdmissionGate, Priority, Scheduler, ShardSpec};

/// Per-class end-to-end latency deadlines, µs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloPolicy {
    /// Deadline for [`Priority::High`] requests.
    pub high_us: f64,
    /// Deadline for [`Priority::Low`] requests (usually looser).
    pub low_us: f64,
}

impl SloPolicy {
    /// The deadline for `class`.
    pub fn limit_us(&self, class: Priority) -> f64 {
        match class {
            Priority::High => self.high_us,
            Priority::Low => self.low_us,
        }
    }

    /// Whether a completion at `latency_us` met the `class` deadline.
    pub fn met(&self, class: Priority, latency_us: f64) -> bool {
        latency_us <= self.limit_us(class)
    }

    /// Checks both deadlines are finite and positive.
    ///
    /// # Errors
    ///
    /// A description of the invalid deadline.
    pub fn validate(&self) -> Result<(), String> {
        for (v, class) in [(self.high_us, "high"), (self.low_us, "low")] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!(
                    "{class}-priority SLO must be finite and positive, got {v}"
                ));
            }
        }
        Ok(())
    }
}

/// One scored cell of the policy cross product.
#[derive(Clone, Debug, PartialEq)]
pub struct ComboResult {
    /// Scheduler that ran.
    pub scheduler: String,
    /// Admission gate that ran.
    pub admission: String,
    /// Whether hedging was enabled.
    pub hedging: bool,
    /// Whether autoscaling was enabled.
    pub autoscaling: bool,
    /// Whether the degrade tier was batched.
    pub batched: bool,
    /// The full measurements.
    pub summary: FrontendSummary,
}

impl ComboResult {
    /// A compact `scheduler/admission/±hedge/±scale/±batch` label.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            self.scheduler,
            self.admission,
            if self.hedging { "hedged" } else { "unhedged" },
            if self.autoscaling {
                "autoscaled"
            } else {
                "fixed"
            },
            if self.batched { "batched" } else { "unbatched" },
        )
    }
}

/// Runs every scheduler × admission × hedge × autoscale × degrade-batch
/// combination over the same workload and fault plan (`base` supplies
/// both, plus the SLO and class mix; its own hedge/autoscale/batching
/// fields are overridden by the swept values). Results come back in
/// sweep order — schedulers outermost, batching configs innermost.
///
/// # Errors
///
/// The first [`FrontendError`] any combination hits (the fleet and base
/// config are validated identically for all of them, so in practice:
/// none or all fail).
pub fn sweep_combos(
    fleet: &[ShardSpec],
    base: &FrontendConfig,
    schedulers: &[&dyn Scheduler],
    admissions: &[&dyn AdmissionGate],
    hedges: &[HedgeConfig],
    autoscales: &[Option<AutoscaleConfig>],
    batchings: &[Option<DegradeBatching>],
) -> Result<Vec<ComboResult>, FrontendError> {
    let mut results = Vec::with_capacity(
        schedulers.len() * admissions.len() * hedges.len() * autoscales.len() * batchings.len(),
    );
    for &scheduler in schedulers {
        for &admission in admissions {
            for &hedge in hedges {
                for autoscale in autoscales {
                    for batching in batchings {
                        let cfg = FrontendConfig {
                            hedge,
                            autoscale: *autoscale,
                            degrade_batching: *batching,
                            ..base.clone()
                        };
                        let summary = simulate_frontend(fleet, scheduler, admission, &cfg)?;
                        results.push(ComboResult {
                            scheduler: summary.scheduler.clone(),
                            admission: summary.admission.clone(),
                            hedging: hedge.hedging_enabled(),
                            autoscaling: autoscale.is_some(),
                            batched: batching.is_some(),
                            summary,
                        });
                    }
                }
            }
        }
    }
    Ok(results)
}

/// The combination with the highest goodput (ties keep sweep order).
pub fn best_goodput(results: &[ComboResult]) -> Option<&ComboResult> {
    results.iter().reduce(|best, c| {
        if c.summary.goodput_rps > best.summary.goodput_rps {
            c
        } else {
            best
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use sparsenn_serve::{AdmitAll, BoundedQueues, FirstIdle, LeastQueued, Workload};

    #[test]
    fn slo_policy_checks_per_class_deadlines() {
        let slo = SloPolicy {
            high_us: 100.0,
            low_us: 500.0,
        };
        assert!(slo.met(Priority::High, 100.0));
        assert!(!slo.met(Priority::High, 100.1));
        assert!(slo.met(Priority::Low, 400.0));
        assert!(slo.validate().is_ok());
        assert!(SloPolicy {
            high_us: 0.0,
            low_us: 1.0
        }
        .validate()
        .is_err());
        assert!(SloPolicy {
            high_us: 1.0,
            low_us: f64::INFINITY
        }
        .validate()
        .is_err());
    }

    #[test]
    fn sweep_covers_the_cross_product_with_distinct_labels() {
        let fleet = vec![ShardSpec::uniform("a", 10.0), ShardSpec::uniform("b", 10.0)];
        let base = FrontendConfig::new(
            Workload::Poisson {
                rate_rps: 150_000.0,
                requests: 600,
                seed: 2,
            },
            SloPolicy {
                high_us: 120.0,
                low_us: 600.0,
            },
        )
        .low_fraction(0.25)
        .faults(FaultPlan::random(2, 6_000.0, 1, 0, 4));
        let bounded = BoundedQueues::new(32, 8);
        let results = sweep_combos(
            &fleet,
            &base,
            &[&FirstIdle, &LeastQueued],
            &[&AdmitAll, &bounded],
            &[HedgeConfig::disabled(), HedgeConfig::hedged(80.0)],
            &[None],
            &[None, Some(DegradeBatching::new(4, 100.0, 0.3))],
        )
        .unwrap();
        assert_eq!(results.len(), 16);
        let mut labels: Vec<String> = results.iter().map(ComboResult::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 16, "every combination is distinct");
        let best = best_goodput(&results).unwrap();
        assert!(best.summary.goodput_rps >= results[0].summary.goodput_rps);
    }
}
