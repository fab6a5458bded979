//! Wall-clock profiling hooks and the min-of-reps timer.
//!
//! Everything else in this crate measures *virtual* time — the clock
//! the simulators advance. The profiler measures *wall* time: how long
//! the host CPU actually spends inside a phase of the simulation. This
//! is the hook ROADMAP item 3 asks for — before optimizing the sim's
//! hot loop we need to know what fraction of a sweep it really is.
//! [`min_wall_us`] is the one timer the measured benches and the
//! measured service tables share.

use std::time::Instant;

use crate::registry::MetricsRegistry;

/// Times each of `arms` `reps` times and returns each arm's fastest run,
/// µs.
///
/// The arms run alternately, rep by rep, so drift in the host's speed
/// hits every arm alike, and the minimum drops the reps that scheduler
/// noise slowed down. With `reps == 0` every entry is infinite.
pub fn min_wall_us<const N: usize>(reps: usize, mut arms: [&mut dyn FnMut(); N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..reps {
        for (arm, best) in arms.iter_mut().zip(&mut best) {
            let start = Instant::now();
            arm();
            *best = best.min(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    best
}

/// Accumulates wall time per named phase across repeated calls.
///
/// Phases are keyed by `&'static str` and stored in call order (first
/// occurrence wins the position), so reports list phases the way the
/// code runs them.
#[derive(Clone, Debug, Default)]
pub struct WallProfiler {
    phases: Vec<(&'static str, PhaseStat)>,
}

/// Accumulated wall time for one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseStat {
    /// Times the phase ran.
    pub calls: u64,
    /// Total wall time across calls, µs.
    pub total_us: f64,
    /// Longest single call, µs.
    pub max_us: f64,
}

impl WallProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, charging its wall time to `phase`.
    pub fn time<R>(&mut self, phase: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(phase, start.elapsed().as_secs_f64() * 1e6);
        out
    }

    /// Charges `elapsed_us` of wall time to `phase` directly — for
    /// call sites where a closure boundary is awkward.
    pub fn add(&mut self, phase: &'static str, elapsed_us: f64) {
        let stat = match self.phases.iter_mut().find(|(name, _)| *name == phase) {
            Some((_, stat)) => stat,
            None => {
                self.phases.push((phase, PhaseStat::default()));
                &mut self.phases.last_mut().expect("just pushed").1
            }
        };
        stat.calls += 1;
        stat.total_us += elapsed_us;
        stat.max_us = stat.max_us.max(elapsed_us);
    }

    /// Phases in first-call order with their accumulated stats.
    pub fn phases(&self) -> &[(&'static str, PhaseStat)] {
        &self.phases
    }

    /// Total wall time across all phases, µs.
    pub fn total_us(&self) -> f64 {
        self.phases.iter().map(|(_, s)| s.total_us).sum()
    }

    /// Exports every phase as `profile.<phase>.{calls,total_us,max_us}`
    /// into the registry.
    pub fn export_metrics(&self, registry: &mut MetricsRegistry) {
        for (name, stat) in &self.phases {
            registry.inc(&format!("profile.{name}.calls"), stat.calls);
            registry.set_gauge(&format!("profile.{name}.total_us"), stat.total_us);
            registry.set_gauge(&format!("profile.{name}.max_us"), stat.max_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_charges_the_named_phase() {
        let mut prof = WallProfiler::new();
        let out = prof.time("hot_loop", || {
            // A little real work so elapsed > 0 on any clock resolution.
            (0..10_000u64).map(|i| i.wrapping_mul(i)).sum::<u64>()
        });
        assert!(out > 0);
        let (name, stat) = prof.phases()[0];
        assert_eq!(name, "hot_loop");
        assert_eq!(stat.calls, 1);
        assert!(stat.total_us >= 0.0 && stat.max_us <= stat.total_us + 1e-9);
    }

    #[test]
    fn phases_keep_first_call_order_and_accumulate() {
        let mut prof = WallProfiler::new();
        prof.add("b", 5.0);
        prof.add("a", 3.0);
        prof.add("b", 7.0);
        let names: Vec<&str> = prof.phases().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["b", "a"]);
        let b = prof.phases()[0].1;
        assert_eq!(b.calls, 2);
        assert!((b.total_us - 12.0).abs() < 1e-12);
        assert_eq!(b.max_us, 7.0);
        assert!((prof.total_us() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn min_wall_us_alternates_arms_and_keeps_each_minimum() {
        let order = std::cell::RefCell::new(Vec::new());
        let [short, long] = min_wall_us(
            3,
            [&mut || order.borrow_mut().push('s'), &mut || {
                order.borrow_mut().push('l');
                std::thread::sleep(std::time::Duration::from_millis(2));
            }],
        );
        assert_eq!(order.into_inner(), ['s', 'l', 's', 'l', 's', 'l']);
        assert!(
            long >= 2000.0,
            "every rep of the long arm sleeps 2 ms: {long}"
        );
        assert!(0.0 <= short && short < long, "{short} vs {long}");
        assert_eq!(min_wall_us(0, [&mut || {}]), [f64::INFINITY]);
    }

    #[test]
    fn export_writes_registry_entries() {
        let mut prof = WallProfiler::new();
        prof.add("w_pass", 100.0);
        prof.add("w_pass", 50.0);
        let mut reg = MetricsRegistry::new();
        prof.export_metrics(&mut reg);
        assert_eq!(reg.counter("profile.w_pass.calls"), 2);
        assert_eq!(reg.gauge("profile.w_pass.total_us"), Some(150.0));
        assert_eq!(reg.gauge("profile.w_pass.max_us"), Some(100.0));
    }
}
