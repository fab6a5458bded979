//! Epoch-driven autoscaling: grow the fleet before the queue does.
//!
//! Every `epoch_us` of virtual time the [`Autoscaler`] looks at two live
//! signals — mean shard **utilization** over the epoch and the epoch's
//! **P²-estimated p99 latency** (a fresh [`P2Quantile`] per epoch via
//! [`reset`](P2Quantile::reset), so decisions reflect *current* pressure,
//! not the whole run's history) — and decides to scale out, scale in, or
//! hold. A scaled-out shard pays `warmup_us` of virtual time (model load,
//! weight upload) before it takes traffic; scale-in only retires an idle
//! shard, never one holding work.

use sparsenn_obs::P2Quantile;

/// Autoscaling policy parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AutoscaleConfig {
    /// Fewest active shards the scaler will keep.
    pub min_shards: usize,
    /// Most shards the scaler will activate (bounded by the fleet size).
    pub max_shards: usize,
    /// Epoch length: virtual µs between scaling decisions.
    pub epoch_us: f64,
    /// Warm-up cost: virtual µs between a scale-out decision and the new
    /// shard taking traffic.
    pub warmup_us: f64,
    /// Scale out when epoch utilization exceeds this (0..=1).
    pub scale_out_utilization: f64,
    /// Scale in when epoch utilization falls below this (0..=1).
    pub scale_in_utilization: f64,
    /// Also scale out when the epoch's P²-estimated p99 latency exceeds
    /// this, regardless of utilization (`None`: utilization only).
    pub scale_out_p99_us: Option<f64>,
}

impl AutoscaleConfig {
    /// A reasonable default: scale out above 80 % utilization, in below
    /// 30 %, between `min` and `max` shards.
    pub fn new(min_shards: usize, max_shards: usize, epoch_us: f64, warmup_us: f64) -> Self {
        Self {
            min_shards,
            max_shards,
            epoch_us,
            warmup_us,
            scale_out_utilization: 0.8,
            scale_in_utilization: 0.3,
            scale_out_p99_us: None,
        }
    }

    /// Adds a p99-latency scale-out trigger.
    pub fn scale_out_on_p99(mut self, p99_us: f64) -> Self {
        self.scale_out_p99_us = Some(p99_us);
        self
    }

    /// Checks the parameters are simulatable.
    ///
    /// # Errors
    ///
    /// A description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_shards == 0 {
            return Err("autoscaler needs at least one shard active".into());
        }
        if self.max_shards < self.min_shards {
            return Err(format!(
                "max_shards {} below min_shards {}",
                self.max_shards, self.min_shards
            ));
        }
        if !(self.epoch_us.is_finite() && self.epoch_us > 0.0) {
            return Err(format!(
                "epoch must be finite and positive, got {}",
                self.epoch_us
            ));
        }
        if !(self.warmup_us.is_finite() && self.warmup_us >= 0.0) {
            return Err(format!(
                "warm-up must be finite and >= 0, got {}",
                self.warmup_us
            ));
        }
        for (v, what) in [
            (self.scale_out_utilization, "scale-out utilization"),
            (self.scale_in_utilization, "scale-in utilization"),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{what} must be in [0, 1], got {v}"));
            }
        }
        if self.scale_in_utilization >= self.scale_out_utilization {
            return Err(format!(
                "scale-in threshold {} must sit below scale-out threshold {} (hysteresis)",
                self.scale_in_utilization, self.scale_out_utilization
            ));
        }
        if let Some(p) = self.scale_out_p99_us {
            if !(p.is_finite() && p > 0.0) {
                return Err(format!("p99 trigger must be finite and positive, got {p}"));
            }
        }
        Ok(())
    }
}

/// What the scaler decided at an epoch boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Start warming one more shard.
    Out,
    /// Retire one idle shard.
    In,
    /// Leave the fleet as it is.
    Hold,
}

/// The live controller: accumulates one epoch's completion latencies in a
/// constant-space P² tracker and turns (utilization, p99) into a
/// [`ScaleDecision`] at each tick.
#[derive(Clone, Debug)]
pub struct Autoscaler {
    config: AutoscaleConfig,
    epoch_p99: P2Quantile,
}

impl Autoscaler {
    /// A scaler with a fresh epoch window.
    pub fn new(config: AutoscaleConfig) -> Self {
        Self {
            config,
            epoch_p99: P2Quantile::new(0.99),
        }
    }

    /// The policy this scaler runs.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.config
    }

    /// Folds one completion latency into the current epoch's window.
    pub fn observe_latency(&mut self, latency_us: f64) {
        self.epoch_p99.observe(latency_us);
    }

    /// The current epoch's P²-estimated p99 latency (0 when the epoch saw
    /// no completions).
    pub fn epoch_p99_us(&self) -> f64 {
        self.epoch_p99.estimate()
    }

    /// Epoch boundary: decide from this epoch's mean `utilization` (0..=1
    /// over the active shards) given `active` serving shards and
    /// `warming` shards already on their way, then reset the latency
    /// window for the next epoch.
    pub fn decide(&mut self, utilization: f64, active: usize, warming: usize) -> ScaleDecision {
        let c = &self.config;
        let p99_hot = c
            .scale_out_p99_us
            .is_some_and(|limit| self.epoch_p99.estimate() > limit);
        self.epoch_p99.reset();
        if (utilization > c.scale_out_utilization || p99_hot) && active + warming < c.max_shards {
            ScaleDecision::Out
        } else if utilization < c.scale_in_utilization && warming == 0 && active > c.min_shards {
            ScaleDecision::In
        } else {
            ScaleDecision::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AutoscaleConfig {
        AutoscaleConfig::new(1, 4, 1000.0, 500.0)
    }

    #[test]
    fn utilization_thresholds_drive_out_and_in() {
        let mut a = Autoscaler::new(config());
        assert_eq!(a.decide(0.95, 2, 0), ScaleDecision::Out);
        assert_eq!(a.decide(0.5, 2, 0), ScaleDecision::Hold);
        assert_eq!(a.decide(0.1, 2, 0), ScaleDecision::In);
        // Bounds respected.
        assert_eq!(a.decide(0.95, 4, 0), ScaleDecision::Hold, "at max");
        assert_eq!(a.decide(0.95, 3, 1), ScaleDecision::Hold, "warming counts");
        assert_eq!(a.decide(0.1, 1, 0), ScaleDecision::Hold, "at min");
        assert_eq!(
            a.decide(0.1, 2, 1),
            ScaleDecision::Hold,
            "no scale-in while warming"
        );
    }

    #[test]
    fn p99_trigger_scales_out_at_low_utilization_and_resets_per_epoch() {
        let mut a = Autoscaler::new(config().scale_out_on_p99(100.0));
        for _ in 0..50 {
            a.observe_latency(500.0);
        }
        assert!(a.epoch_p99_us() > 100.0);
        assert_eq!(
            a.decide(0.5, 2, 0),
            ScaleDecision::Out,
            "tail latency alone must trigger growth"
        );
        // decide() reset the window: the same mid utilization now holds.
        assert_eq!(a.epoch_p99_us(), 0.0, "epoch window resets");
        assert_eq!(a.decide(0.5, 2, 0), ScaleDecision::Hold);
    }

    #[test]
    fn validation_rejects_inverted_thresholds_and_bad_bounds() {
        assert!(config().validate().is_ok());
        let mut c = config();
        c.scale_in_utilization = 0.9; // above scale-out: no hysteresis
        assert!(c.validate().is_err());
        let mut c = config();
        c.min_shards = 0;
        assert!(c.validate().is_err());
        let mut c = config();
        c.max_shards = 0;
        assert!(c.validate().is_err());
        let mut c = config();
        c.epoch_us = f64::NAN;
        assert!(c.validate().is_err());
        assert!(config().scale_out_on_p99(-1.0).validate().is_err());
    }
}
