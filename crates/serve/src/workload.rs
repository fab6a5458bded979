//! Workload generators: who sends requests, and when.
//!
//! Three traffic shapes cover the serving regimes the fleet study cares
//! about:
//!
//! * [`Workload::Poisson`] — open-loop memoryless arrivals at a fixed
//!   offered rate: the classic M/G/k setting where queueing delay appears
//!   as the rate approaches fleet capacity;
//! * [`Workload::Bursty`] — open-loop on/off (diurnal-style) arrivals
//!   alternating a high-rate burst phase and a low-rate quiet phase, for
//!   tail-latency behaviour under non-stationary load;
//! * [`Workload::ClosedLoop`] — a fixed pool of clients, each issuing its
//!   next request as soon as the previous one completes (plus an optional
//!   think time): throughput-at-fixed-concurrency, never overload.
//!
//! Open-loop arrival streams are deterministic given the seed (the compat
//! `rand` xoshiro generator), so every simulation replays exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A traffic shape driving the simulator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    /// Open-loop Poisson arrivals at `rate_rps` requests/second.
    Poisson {
        /// Offered load, requests per second.
        rate_rps: f64,
        /// Total requests to issue.
        requests: usize,
        /// Arrival-stream seed.
        seed: u64,
    },
    /// Open-loop on/off arrivals: `high_rps` during the first
    /// `duty × period_us` of every period, `low_rps` for the rest.
    Bursty {
        /// Arrival rate in the quiet phase, requests per second.
        low_rps: f64,
        /// Arrival rate in the burst phase, requests per second.
        high_rps: f64,
        /// Length of one on/off cycle, microseconds of virtual time.
        period_us: f64,
        /// Fraction of the period spent in the burst phase (0..=1).
        duty: f64,
        /// Total requests to issue.
        requests: usize,
        /// Arrival-stream seed.
        seed: u64,
    },
    /// Closed-loop: `concurrency` clients, each re-issuing `think_us`
    /// after its previous request completes.
    ClosedLoop {
        /// Number of concurrent clients.
        concurrency: usize,
        /// Total requests to issue across all clients.
        requests: usize,
        /// Client think time between completion and next issue, µs.
        think_us: f64,
    },
}

impl Workload {
    /// Total requests this workload will issue.
    pub fn requests(&self) -> usize {
        match *self {
            Workload::Poisson { requests, .. }
            | Workload::Bursty { requests, .. }
            | Workload::ClosedLoop { requests, .. } => requests,
        }
    }

    /// Checks the parameters are simulatable.
    ///
    /// # Errors
    ///
    /// A description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        let finite_pos = |v: f64, what: &str| -> Result<(), String> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{what} must be finite and positive, got {v}"))
            }
        };
        if self.requests() == 0 {
            return Err("workload must issue at least one request".into());
        }
        match *self {
            Workload::Poisson { rate_rps, .. } => finite_pos(rate_rps, "arrival rate"),
            Workload::Bursty {
                low_rps,
                high_rps,
                period_us,
                duty,
                ..
            } => {
                finite_pos(low_rps, "low arrival rate")?;
                finite_pos(high_rps, "high arrival rate")?;
                finite_pos(period_us, "burst period")?;
                if !(0.0..=1.0).contains(&duty) {
                    return Err(format!("duty cycle must be in [0, 1], got {duty}"));
                }
                Ok(())
            }
            Workload::ClosedLoop {
                concurrency,
                think_us,
                ..
            } => {
                if concurrency == 0 {
                    return Err("closed-loop concurrency must be at least 1".into());
                }
                if !think_us.is_finite() || think_us < 0.0 {
                    return Err(format!(
                        "think time must be finite and >= 0, got {think_us}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// The open-loop arrival stream, or `None` for closed-loop workloads
    /// (their arrivals are completion-driven, generated by the simulator).
    ///
    /// Every simulator pulls it through the shared [`Core`](crate::Core),
    /// so all of them replay the *identical* seeded arrival sequence.
    pub fn open_arrivals(&self) -> Option<OpenArrivals> {
        match *self {
            Workload::Poisson {
                rate_rps,
                requests,
                seed,
            } => Some(OpenArrivals {
                rng: StdRng::seed_from_u64(seed),
                now_us: 0.0,
                remaining: requests,
                shape: Shape::Constant {
                    rate_per_us: rate_rps * 1e-6,
                },
            }),
            Workload::Bursty {
                low_rps,
                high_rps,
                period_us,
                duty,
                requests,
                seed,
            } => Some(OpenArrivals {
                rng: StdRng::seed_from_u64(seed),
                now_us: 0.0,
                remaining: requests,
                shape: Shape::OnOff {
                    low_per_us: low_rps * 1e-6,
                    high_per_us: high_rps * 1e-6,
                    period_us,
                    duty,
                },
            }),
            Workload::ClosedLoop { .. } => None,
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Workload::Poisson { rate_rps, .. } => write!(f, "poisson({rate_rps:.0} rps)"),
            Workload::Bursty {
                low_rps, high_rps, ..
            } => write!(f, "bursty({low_rps:.0}/{high_rps:.0} rps)"),
            Workload::ClosedLoop { concurrency, .. } => write!(f, "closed-loop({concurrency})"),
        }
    }
}

enum Shape {
    Constant {
        rate_per_us: f64,
    },
    OnOff {
        low_per_us: f64,
        high_per_us: f64,
        period_us: f64,
        duty: f64,
    },
}

/// Lazy open-loop arrival-time stream (µs, nondecreasing). Obtained from
/// [`Workload::open_arrivals`]; deterministic given the workload's seed.
pub struct OpenArrivals {
    rng: StdRng,
    now_us: f64,
    remaining: usize,
    shape: Shape,
}

impl OpenArrivals {
    /// Exponential gap at `rate_per_us` (inverse-CDF sampling).
    fn exp_gap(rng: &mut StdRng, rate_per_us: f64) -> f64 {
        let u: f64 = rng.gen(); // [0, 1)
        -(1.0 - u).ln() / rate_per_us
    }
}

impl Iterator for OpenArrivals {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.shape {
            Shape::Constant { rate_per_us } => {
                self.now_us += Self::exp_gap(&mut self.rng, rate_per_us);
            }
            Shape::OnOff {
                low_per_us,
                high_per_us,
                period_us,
                duty,
            } => {
                // Non-homogeneous Poisson via thinning: sample candidate
                // gaps at the peak rate, accept with probability
                // rate(t) / peak. Degenerate all-low phases (duty 0 with
                // low == high) still terminate because low > 0.
                let peak = high_per_us.max(low_per_us);
                loop {
                    self.now_us += Self::exp_gap(&mut self.rng, peak);
                    let phase = self.now_us.rem_euclid(period_us) / period_us;
                    let rate = if phase < duty {
                        high_per_us
                    } else {
                        low_per_us
                    };
                    if self.rng.gen::<f64>() < rate / peak {
                        break;
                    }
                }
            }
        }
        Some(self.now_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_stream_is_seed_deterministic_and_hits_its_rate() {
        let w = Workload::Poisson {
            rate_rps: 10_000.0,
            requests: 4000,
            seed: 7,
        };
        let a: Vec<f64> = w.open_arrivals().unwrap().collect();
        let b: Vec<f64> = w.open_arrivals().unwrap().collect();
        assert_eq!(a, b, "same seed, same stream");
        assert_eq!(a.len(), 4000);
        assert!(a.windows(2).all(|p| p[0] <= p[1]), "nondecreasing");
        // 10k rps = 0.01 arrivals/µs → 4000 arrivals span ≈ 400 ms.
        let span_us = a.last().unwrap();
        let mean_gap = span_us / 4000.0;
        assert!(
            (mean_gap - 100.0).abs() < 10.0,
            "mean gap {mean_gap} µs, expected ≈ 100"
        );
        let c: Vec<f64> = Workload::Poisson {
            rate_rps: 10_000.0,
            requests: 4000,
            seed: 8,
        }
        .open_arrivals()
        .unwrap()
        .collect();
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn bursty_stream_concentrates_arrivals_in_the_burst_phase() {
        let w = Workload::Bursty {
            low_rps: 1_000.0,
            high_rps: 50_000.0,
            period_us: 10_000.0,
            duty: 0.2,
            requests: 5000,
            seed: 3,
        };
        let arrivals: Vec<f64> = w.open_arrivals().unwrap().collect();
        assert!(arrivals.windows(2).all(|p| p[0] <= p[1]));
        let in_burst = arrivals
            .iter()
            .filter(|t| t.rem_euclid(10_000.0) / 10_000.0 < 0.2)
            .count();
        // Burst phase carries 50k rps for 20% of the time vs 1k rps for
        // 80%: expect ≈ 10000/10800 ≈ 93% of arrivals inside the burst.
        assert!(
            in_burst as f64 / arrivals.len() as f64 > 0.8,
            "only {in_burst}/{} arrivals in the burst phase",
            arrivals.len()
        );
    }

    #[test]
    fn closed_loop_has_no_open_stream() {
        let w = Workload::ClosedLoop {
            concurrency: 4,
            requests: 100,
            think_us: 0.0,
        };
        assert!(w.open_arrivals().is_none());
        assert_eq!(w.requests(), 100);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(Workload::Poisson {
            rate_rps: 100.0,
            requests: 1,
            seed: 0
        }
        .validate()
        .is_ok());
        for bad in [
            Workload::Poisson {
                rate_rps: 0.0,
                requests: 1,
                seed: 0,
            },
            Workload::Poisson {
                rate_rps: f64::NAN,
                requests: 1,
                seed: 0,
            },
            Workload::Poisson {
                rate_rps: 10.0,
                requests: 0,
                seed: 0,
            },
            Workload::Bursty {
                low_rps: 10.0,
                high_rps: 10.0,
                period_us: 100.0,
                duty: 1.5,
                requests: 1,
                seed: 0,
            },
            Workload::ClosedLoop {
                concurrency: 0,
                requests: 1,
                think_us: 0.0,
            },
            Workload::ClosedLoop {
                concurrency: 1,
                requests: 1,
                think_us: -1.0,
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }
}
