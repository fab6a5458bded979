//! Admission control: who gets into the fleet, and at what fidelity.
//!
//! A serving system at its modelled capacity has exactly three options for
//! the next arriving request: queue it (and pay the latency), serve a
//! cheaper **degraded** answer, or **shed** it outright. Queueing forever
//! is the one option that helps nobody — under sustained overload every
//! queued request eventually misses its SLO, so unbounded queues convert
//! an overload into a full outage. An [`AdmissionGate`] makes the choice
//! explicit, per [`Priority`] class, *before* a request touches a shard.
//!
//! The `sparsenn-frontend` virtual-time simulator consults the gate for
//! every arriving request, with the number of same-class requests already
//! queued.

/// Request priority class.
///
/// Two classes keep the policy space legible: `High` is traffic an SLO is
/// written against (interactive users); `Low` is deferrable work (batch
/// backfills, prefetch) that exists to be shed first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive traffic; shed last.
    High,
    /// Deferrable traffic; degraded or shed first under overload.
    Low,
}

impl Priority {
    /// Both classes, `High` first — iteration order for per-class stats.
    pub const ALL: [Priority; 2] = [Priority::High, Priority::Low];

    /// Dense index for per-class arrays: `High` → 0, `Low` → 1.
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Low => 1,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Priority::High => "high",
            Priority::Low => "low",
        })
    }
}

/// What the gate decided for one arriving request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Serve at full fidelity.
    Admit,
    /// Serve a cheaper answer (the caller decides what "cheaper" means —
    /// the frontend simulator models it as a service-time discount).
    Degrade,
    /// Reject now, so the caller can fail fast instead of queueing into
    /// a missed deadline.
    Shed,
}

/// An admission policy over the fleet's instantaneous state.
pub trait AdmissionGate {
    /// Policy name (shows up in reports and sweep labels).
    fn name(&self) -> &str;

    /// Decides the fate of one arriving request of class `class`, given
    /// the number of *same-class* requests already waiting (queued but
    /// not in service) fleet-wide.
    fn decide(&self, class: Priority, waiting_same_class: usize) -> AdmissionDecision;
}

/// The null gate: every request is admitted. Unbounded queueing — the
/// baseline the overload sweeps exist to indict.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdmitAll;

impl AdmissionGate for AdmitAll {
    fn name(&self) -> &str {
        "admit-all"
    }

    fn decide(&self, _: Priority, _: usize) -> AdmissionDecision {
        AdmissionDecision::Admit
    }
}

/// Bounded per-class queues with optional low-priority degradation.
///
/// A request is shed when its class already has `cap` requests waiting;
/// before that point, low-priority requests are degraded once their
/// waiting count reaches `degrade_low_beyond` (when set). High-priority
/// traffic is never degraded — its cap should be sized so it is rarely
/// shed either; the whole point of the split is that low-priority
/// traffic absorbs the overload first.
#[derive(Clone, Copy, Debug)]
pub struct BoundedQueues {
    /// Maximum waiting high-priority requests before shedding.
    pub high_cap: usize,
    /// Maximum waiting low-priority requests before shedding.
    pub low_cap: usize,
    /// Waiting low-priority count at which low traffic degrades instead
    /// of serving at full fidelity (`None`: never degrade, only shed).
    pub degrade_low_beyond: Option<usize>,
}

impl BoundedQueues {
    /// A gate with the given per-class caps and no degradation tier.
    pub fn new(high_cap: usize, low_cap: usize) -> Self {
        Self {
            high_cap,
            low_cap,
            degrade_low_beyond: None,
        }
    }

    /// Adds a degradation tier: low-priority requests arriving with at
    /// least `waiting` of their class already queued are served degraded.
    pub fn degrade_low_beyond(mut self, waiting: usize) -> Self {
        self.degrade_low_beyond = Some(waiting);
        self
    }

    fn cap(&self, class: Priority) -> usize {
        match class {
            Priority::High => self.high_cap,
            Priority::Low => self.low_cap,
        }
    }
}

impl AdmissionGate for BoundedQueues {
    fn name(&self) -> &str {
        "bounded"
    }

    fn decide(&self, class: Priority, waiting_same_class: usize) -> AdmissionDecision {
        if waiting_same_class >= self.cap(class) {
            return AdmissionDecision::Shed;
        }
        if class == Priority::Low {
            if let Some(beyond) = self.degrade_low_beyond {
                if waiting_same_class >= beyond {
                    return AdmissionDecision::Degrade;
                }
            }
        }
        AdmissionDecision::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_indices_are_dense_and_ordered() {
        assert_eq!(Priority::High.index(), 0);
        assert_eq!(Priority::Low.index(), 1);
        assert_eq!(Priority::ALL[0], Priority::High);
        assert_eq!(format!("{}/{}", Priority::High, Priority::Low), "high/low");
    }

    #[test]
    fn admit_all_never_sheds() {
        for class in Priority::ALL {
            assert_eq!(AdmitAll.decide(class, usize::MAX), AdmissionDecision::Admit);
        }
        assert_eq!(AdmitAll.name(), "admit-all");
    }

    #[test]
    fn bounded_queues_shed_at_their_caps() {
        let gate = BoundedQueues::new(10, 4);
        assert_eq!(gate.decide(Priority::High, 9), AdmissionDecision::Admit);
        assert_eq!(gate.decide(Priority::High, 10), AdmissionDecision::Shed);
        assert_eq!(gate.decide(Priority::Low, 3), AdmissionDecision::Admit);
        assert_eq!(gate.decide(Priority::Low, 4), AdmissionDecision::Shed);
        assert_eq!(gate.name(), "bounded");
    }

    #[test]
    fn degrade_tier_applies_only_to_low_priority() {
        let gate = BoundedQueues::new(10, 8).degrade_low_beyond(2);
        assert_eq!(gate.decide(Priority::Low, 1), AdmissionDecision::Admit);
        assert_eq!(gate.decide(Priority::Low, 2), AdmissionDecision::Degrade);
        assert_eq!(gate.decide(Priority::Low, 7), AdmissionDecision::Degrade);
        assert_eq!(gate.decide(Priority::Low, 8), AdmissionDecision::Shed);
        // High priority passes straight through the degrade band.
        assert_eq!(gate.decide(Priority::High, 5), AdmissionDecision::Admit);
    }
}
