//! The min-of-reps wall-clock timer.
//!
//! Everything else in this crate measures *virtual* time — the clock
//! the simulators advance. [`min_wall_us`] measures *wall* time: how
//! long the host CPU actually spends in a piece of code. It is the one
//! timer the measured benches and the measured service tables share.

use std::time::Instant;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
