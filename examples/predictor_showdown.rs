//! Predictor showdown: the paper's three training regimes head to head on
//! the hardest variant (ROT), at a large and a small predictor rank.
//!
//! Reproduces in miniature the story of Fig. 6: the truncated-SVD
//! predictor degrades as the rank shrinks (its once-per-epoch update
//! minimizes reconstruction error, not sign-prediction error), while the
//! end-to-end trained predictor holds accuracy *and* higher sparsity.
//!
//! ```sh
//! cargo run --release --example predictor_showdown
//! ```

use sparsenn::datasets::DatasetKind;
use sparsenn::{SystemBuilder, TrainingAlgorithm};

fn main() {
    let kind = DatasetKind::Rot;
    println!("dataset: {kind} (digits rotated by a uniform random angle)\n");
    println!(
        "{:<14} {:>6} {:>10} {:>22}",
        "algorithm", "rank", "TER %", "hidden sparsity %"
    );

    for &rank in &[32usize, 6] {
        for alg in [
            TrainingAlgorithm::NoUv,
            TrainingAlgorithm::Svd,
            TrainingAlgorithm::EndToEnd,
        ] {
            let sys = SystemBuilder::new(kind)
                .dims(&[784, 256, 10])
                .rank(rank)
                .algorithm(alg)
                .train_samples(800)
                .test_samples(200)
                .epochs(5)
                .build();
            let eval = sys.evaluate();
            let sparsity = eval
                .rho
                .first()
                .map_or("n/a".to_string(), |rho| format!("{rho:.1}"));
            println!(
                "{:<14} {:>6} {:>10.2} {:>22}",
                alg.to_string(),
                rank,
                eval.ter,
                sparsity
            );
        }
        println!();
    }

    println!(
        "Expected shape (paper Fig. 6): at the small rank the SVD predictor's TER \
         drifts up, the end-to-end predictor stays near the NO-UV reference."
    );
}
