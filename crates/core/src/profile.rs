//! Experiment sizing profiles.
//!
//! The paper's experiments train 1000-neuron networks on 12k-sample
//! datasets — minutes of CPU per configuration. The bench binaries default
//! to a `fast` profile that keeps the same structure at reduced scale so
//! the entire harness reruns in a few minutes; `SPARSENN_PROFILE=full`
//! switches to paper-scale runs.

use std::fmt;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Profile {
    /// Reduced scale: 256-neuron hidden layers, 1.2k train samples.
    Fast,
    /// Paper scale: 1000-neuron hidden layers, 10k train samples.
    Full,
}

impl Profile {
    /// Reads `SPARSENN_PROFILE` (`fast` default, `full` for paper scale).
    /// Matching is case-insensitive (`full`, `FULL` and `Full` all work).
    pub fn from_env() -> Self {
        Self::parse(std::env::var("SPARSENN_PROFILE").ok().as_deref())
    }

    /// Parses a `SPARSENN_PROFILE` value (`None` = unset → `Fast`).
    /// Case-insensitive; anything other than `full` falls back to `Fast`.
    pub fn parse(value: Option<&str>) -> Self {
        match value {
            Some(v) if v.eq_ignore_ascii_case("full") => Profile::Full,
            _ => Profile::Fast,
        }
    }

    /// Hidden-layer width (the paper uses 1000).
    pub fn hidden(&self) -> usize {
        match self {
            Profile::Fast => 256,
            Profile::Full => 1000,
        }
    }

    /// Training-set size.
    pub fn train_samples(&self) -> usize {
        match self {
            Profile::Fast => 1200,
            Profile::Full => 10_000,
        }
    }

    /// Test-set size.
    pub fn test_samples(&self) -> usize {
        match self {
            Profile::Fast => 400,
            Profile::Full => 2_000,
        }
    }

    /// Training epochs.
    pub fn epochs(&self) -> usize {
        match self {
            Profile::Fast => 8,
            Profile::Full => 20,
        }
    }

    /// Samples pushed through the cycle-level simulator per measurement.
    pub fn sim_samples(&self) -> usize {
        match self {
            Profile::Fast => 8,
            Profile::Full => 32,
        }
    }

    /// The rank sweep of Fig. 6 scaled to the hidden width (the paper
    /// sweeps {100, 75, 50, 25, 10, 5} against 1000 neurons).
    pub fn rank_sweep(&self) -> Vec<usize> {
        match self {
            Profile::Fast => vec![48, 32, 24, 16, 10, 5],
            Profile::Full => vec![100, 75, 50, 25, 10, 5],
        }
    }

    /// The fixed rank of Table I / Fig. 7 (paper: 15).
    pub fn table_rank(&self) -> usize {
        15
    }

    /// The 3-layer network dims (one hidden layer).
    pub fn dims_3layer(&self) -> Vec<usize> {
        vec![784, self.hidden(), 10]
    }

    /// The 5-layer network dims (three hidden layers).
    pub fn dims_5layer(&self) -> Vec<usize> {
        vec![784, self.hidden(), self.hidden(), self.hidden(), 10]
    }

    /// Hidden width for the *hardware* experiments (Fig. 7 / Table IV).
    ///
    /// The cycle behaviour of the W phase depends on the number of rows
    /// per PE (the paper's 1000-neuron layers give ≈ 16 rows/PE; the
    /// per-PE spread of predicted-active rows is what limits the layer-1
    /// cycle reduction to the paper's 10–31 %), so even the fast profile
    /// keeps paper-scale layer widths here and economizes on training
    /// instead.
    pub fn hw_hidden(&self) -> usize {
        match self {
            Profile::Fast => 1024,
            Profile::Full => 1000,
        }
    }

    /// The 5-layer dims used by the hardware experiments.
    pub fn hw_dims_5layer(&self) -> Vec<usize> {
        vec![
            784,
            self.hw_hidden(),
            self.hw_hidden(),
            self.hw_hidden(),
            10,
        ]
    }

    /// Training-set size for the hardware experiments (the simulated
    /// cycle/power numbers need realistic sparsity patterns, not polished
    /// TER, so training is lighter than for Fig. 6 / Table I).
    pub fn hw_train_samples(&self) -> usize {
        match self {
            Profile::Fast => 1000,
            Profile::Full => 8000,
        }
    }

    /// Training epochs for the hardware experiments.
    pub fn hw_epochs(&self) -> usize {
        match self {
            Profile::Fast => 4,
            Profile::Full => 12,
        }
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Profile::Fast => "fast",
            Profile::Full => "full",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_profile_is_paper_scale() {
        let p = Profile::Full;
        assert_eq!(p.hidden(), 1000);
        assert_eq!(p.dims_5layer(), vec![784, 1000, 1000, 1000, 10]);
        assert_eq!(p.rank_sweep(), vec![100, 75, 50, 25, 10, 5]);
        assert_eq!(p.table_rank(), 15);
    }

    #[test]
    fn fast_profile_is_smaller_everywhere() {
        let f = Profile::Fast;
        let p = Profile::Full;
        assert!(f.hidden() < p.hidden());
        assert!(f.train_samples() < p.train_samples());
        assert!(f.epochs() <= p.epochs());
    }

    #[test]
    fn display_names() {
        assert_eq!(Profile::Fast.to_string(), "fast");
        assert_eq!(Profile::Full.to_string(), "full");
    }

    #[test]
    fn parse_is_case_insensitive() {
        // Tests the pure parser, not from_env: mutating the process
        // environment races other threads' getenv calls under the parallel
        // test runner.
        for (value, expected) in [
            ("full", Profile::Full),
            ("FULL", Profile::Full),
            ("Full", Profile::Full),
            ("fUlL", Profile::Full),
            ("fast", Profile::Fast),
            ("Fast", Profile::Fast),
            ("nonsense", Profile::Fast),
        ] {
            assert_eq!(
                Profile::parse(Some(value)),
                expected,
                "SPARSENN_PROFILE={value}"
            );
        }
        assert_eq!(
            Profile::parse(None),
            Profile::Fast,
            "unset defaults to fast"
        );
    }
}
