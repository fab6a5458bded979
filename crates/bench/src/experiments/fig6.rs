//! Fig. 6: TER and predicted output sparsity vs predictor rank, 3-layer
//! network, Truncated-SVD vs End-to-End, on BASIC / ROT / BG-RAND.

use crate::fmt_f;
use crate::report::Report;
use sparsenn_core::datasets::DatasetKind;
use sparsenn_core::{Profile, SystemBuilder, TrainingAlgorithm};
use std::fmt::Write as _;

/// One `(rank, algorithm)` measurement.
#[derive(Clone, Copy, Debug)]
pub struct RankPoint {
    /// Predictor rank.
    pub rank: usize,
    /// Test error rate, %.
    pub ter: f32,
    /// Mean predicted output sparsity of the hidden layer, %.
    pub sparsity: f32,
}

/// Measured series for one dataset.
#[derive(Clone, Debug)]
pub struct Fig6Series {
    /// Dataset variant.
    pub kind: DatasetKind,
    /// NO-UV reference TER, %.
    pub no_uv_ter: f32,
    /// Truncated-SVD points, by descending rank.
    pub svd: Vec<RankPoint>,
    /// End-to-End points, by descending rank.
    pub end_to_end: Vec<RankPoint>,
}

fn measure(kind: DatasetKind, alg: TrainingAlgorithm, rank: usize, p: Profile) -> RankPoint {
    let sys = SystemBuilder::new(kind)
        .dims(&p.dims_3layer())
        .rank(rank)
        .algorithm(alg)
        .train_samples(p.train_samples())
        .test_samples(p.test_samples())
        .epochs(p.epochs())
        .build();
    RankPoint {
        rank,
        ter: sys.test_error_rate(),
        sparsity: sys.predicted_sparsity()[0],
    }
}

/// Runs the full Fig. 6 sweep for one dataset.
pub fn sweep(kind: DatasetKind, p: Profile) -> Fig6Series {
    let no_uv = SystemBuilder::new(kind)
        .dims(&p.dims_3layer())
        .rank(4)
        .algorithm(TrainingAlgorithm::NoUv)
        .train_samples(p.train_samples())
        .test_samples(p.test_samples())
        .epochs(p.epochs())
        .build();
    let ranks = p.rank_sweep();
    Fig6Series {
        kind,
        no_uv_ter: no_uv.test_error_rate(),
        svd: ranks
            .iter()
            .map(|&r| measure(kind, TrainingAlgorithm::Svd, r, p))
            .collect(),
        end_to_end: ranks
            .iter()
            .map(|&r| measure(kind, TrainingAlgorithm::EndToEnd, r, p))
            .collect(),
    }
}

/// Renders the Fig. 6 report for all three datasets.
pub fn run(p: Profile) -> Report {
    let mut out = Report::default();
    let _ = writeln!(
        out,
        "## Fig. 6 — TER and output sparsity vs rank (3-layer, profile: {p})\n"
    );
    let _ = writeln!(
        out,
        "Paper shape to reproduce: End-to-End TER tracks (or beats) SVD and degrades \
         much more slowly as the rank shrinks (≈1% gap on ROT at small ranks), while \
         End-to-End holds clearly higher predicted sparsity at small ranks.\n"
    );
    for kind in DatasetKind::ALL {
        let s = sweep(kind, p);
        let _ = writeln!(
            out,
            "### {kind} (NO UV reference TER: {:.2}%)\n",
            s.no_uv_ter
        );
        let rows: Vec<Vec<String>> = s
            .svd
            .iter()
            .zip(&s.end_to_end)
            .map(|(svd, e2e)| {
                vec![
                    svd.rank.to_string(),
                    fmt_f(svd.ter as f64, 2),
                    fmt_f(e2e.ter as f64, 2),
                    fmt_f(svd.sparsity as f64, 1),
                    fmt_f(e2e.sparsity as f64, 1),
                ]
            })
            .collect();
        out.table(
            &[
                "rank r",
                "TER% SVD",
                "TER% End-to-End",
                "sparsity% SVD",
                "sparsity% End-to-End",
            ],
            &rows,
        );
        let _ = writeln!(out);
    }
    out
}
