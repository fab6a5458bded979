//! Cross-request batching policy: when a shard should dispatch the
//! requests queued for it as one batch.
//!
//! Batching trades latency for throughput: each extra sample in a batch
//! rides the same W-memory sweep (see `InferenceBackend::run_batch` in
//! `sparsenn_core::engine`), so throughput per shard rises with batch
//! size — but the first request in the batch waits for the last to
//! arrive. [`BatchPolicy`] names the two classic points on that curve:
//! dispatch immediately with whatever is queued, or hold until the batch
//! fills or a deadline expires.

/// When to dispatch queued requests as one batch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum BatchPolicy {
    /// Dispatch as soon as a shard is free, batching whatever is queued
    /// at that moment (batch-of-1 under light load). Lowest latency;
    /// amortization only happens under backlog. The default.
    #[default]
    Immediate,
    /// Hold queued requests until `max` are waiting or the oldest has
    /// waited `deadline_us`, then dispatch. Highest amortization; adds
    /// up to `deadline_us` of queueing latency under light load.
    SizeOrDeadline {
        /// Batch size that triggers dispatch (≥ 1).
        max: usize,
        /// Oldest-request wait, microseconds, that triggers dispatch
        /// even when the batch is not full (finite, ≥ 0).
        deadline_us: f64,
    },
}

impl BatchPolicy {
    /// Short stable name for labels and fingerprints.
    pub fn name(&self) -> &'static str {
        match self {
            BatchPolicy::Immediate => "immediate",
            BatchPolicy::SizeOrDeadline { .. } => "size-or-deadline",
        }
    }

    /// Largest batch this policy ever dispatches
    /// (`usize::MAX` for [`Immediate`](Self::Immediate): it takes the
    /// whole queue).
    pub fn max_batch(&self) -> usize {
        match self {
            BatchPolicy::Immediate => usize::MAX,
            BatchPolicy::SizeOrDeadline { max, .. } => (*max).max(1),
        }
    }

    /// Should a shard that is free right now dispatch, given `queued`
    /// waiting requests whose oldest has waited `oldest_wait_us`?
    pub fn should_dispatch(&self, queued: usize, oldest_wait_us: f64) -> bool {
        match self {
            BatchPolicy::Immediate => queued > 0,
            BatchPolicy::SizeOrDeadline { max, deadline_us } => {
                queued >= (*max).max(1) || (queued > 0 && oldest_wait_us >= *deadline_us)
            }
        }
    }

    /// Checks the policy's parameters, returning a description of the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        if let BatchPolicy::SizeOrDeadline { max, deadline_us } = self {
            if *max == 0 {
                return Err("batch size must be at least 1".into());
            }
            if !deadline_us.is_finite() || *deadline_us < 0.0 {
                return Err(format!(
                    "batch deadline must be finite and non-negative, got {deadline_us}"
                ));
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchPolicy::Immediate => f.write_str("immediate"),
            BatchPolicy::SizeOrDeadline { max, deadline_us } => {
                write!(f, "size-or-deadline(max={max}, deadline={deadline_us}us)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_dispatches_any_backlog() {
        let p = BatchPolicy::Immediate;
        assert!(!p.should_dispatch(0, 0.0));
        assert!(p.should_dispatch(1, 0.0));
        assert!(p.should_dispatch(100, 0.0));
        assert_eq!(p.max_batch(), usize::MAX);
        assert_eq!(p.name(), "immediate");
        assert!(p.validate().is_ok());
        assert_eq!(p, BatchPolicy::default());
    }

    #[test]
    fn size_or_deadline_fills_or_times_out() {
        let p = BatchPolicy::SizeOrDeadline {
            max: 4,
            deadline_us: 200.0,
        };
        assert!(!p.should_dispatch(0, 1e9), "empty queue never dispatches");
        assert!(!p.should_dispatch(3, 100.0), "under-full and under-age");
        assert!(p.should_dispatch(4, 0.0), "full batch dispatches at once");
        assert!(
            p.should_dispatch(1, 200.0),
            "deadline releases a partial batch"
        );
        assert_eq!(p.max_batch(), 4);
        assert_eq!(p.name(), "size-or-deadline");
        assert!(p.to_string().contains("max=4"));
    }

    #[test]
    fn degenerate_parameters_are_rejected() {
        assert!(BatchPolicy::SizeOrDeadline {
            max: 0,
            deadline_us: 1.0
        }
        .validate()
        .is_err());
        assert!(BatchPolicy::SizeOrDeadline {
            max: 2,
            deadline_us: f64::NAN
        }
        .validate()
        .is_err());
        assert!(BatchPolicy::SizeOrDeadline {
            max: 2,
            deadline_us: -1.0
        }
        .validate()
        .is_err());
        assert!(BatchPolicy::SizeOrDeadline {
            max: 1,
            deadline_us: 0.0
        }
        .validate()
        .is_ok());
        // A zero max still behaves as 1 in the accessors.
        let p = BatchPolicy::SizeOrDeadline {
            max: 0,
            deadline_us: 1.0,
        };
        assert_eq!(p.max_batch(), 1);
        assert!(p.should_dispatch(1, 0.0));
    }
}
