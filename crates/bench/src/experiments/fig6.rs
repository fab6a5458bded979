//! Fig. 6: TER and predicted output sparsity vs predictor rank, 3-layer
//! network, Truncated-SVD vs End-to-End, on BASIC / ROT / BG-RAND.

use super::side_by_side;
use crate::fmt_f;
use crate::report::Report;
use sparsenn_core::datasets::DatasetKind;
use sparsenn_core::model::stats::Evaluation;
use sparsenn_core::{Profile, SystemBuilder, TrainingAlgorithm};
use std::fmt::Write as _;

/// One `(rank, algorithm)` measurement.
#[derive(Clone, Debug)]
pub struct RankPoint {
    /// Predictor rank.
    pub rank: usize,
    /// Test error rate, %.
    pub ter: f32,
    /// Mean predicted output sparsity of the hidden layer, % (empty for
    /// NO UV).
    pub rho: Vec<f32>,
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
    let Evaluation { ter, rho } = sys.evaluate();
    RankPoint { rank, ter, rho }
}

/// Runs the full Fig. 6 sweep for each dataset in `kinds`, training all
/// of their systems side by side.
pub fn sweep(kinds: &[DatasetKind], p: Profile) -> Vec<Fig6Series> {
    let ranks = p.rank_sweep();
    // Per dataset: the NO-UV reference, then SVD and End-to-End per rank.
    let mut jobs = Vec::new();
    for &kind in kinds {
        jobs.push((kind, TrainingAlgorithm::NoUv, 4));
        for &r in &ranks {
            jobs.push((kind, TrainingAlgorithm::Svd, r));
            jobs.push((kind, TrainingAlgorithm::EndToEnd, r));
        }
    }
    let points = side_by_side(&jobs, |&(kind, alg, rank)| measure(kind, alg, rank, p));
    kinds
        .iter()
        .zip(points.chunks(1 + 2 * ranks.len()))
        .map(|(&kind, pts)| Fig6Series {
            kind,
            no_uv_ter: pts[0].ter,
            svd: pts[1..].iter().step_by(2).cloned().collect(),
            end_to_end: pts[1..].iter().skip(1).step_by(2).cloned().collect(),
        })
        .collect()
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
    for s in sweep(&DatasetKind::ALL, p) {
        let _ = writeln!(
            out,
            "### {} (NO UV reference TER: {:.2}%)\n",
            s.kind, s.no_uv_ter
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
                    fmt_f(svd.rho[0] as f64, 1),
                    fmt_f(e2e.rho[0] as f64, 1),
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
