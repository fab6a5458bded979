//! Property tests for the loader of outside text: system checkpoints
//! (`TrainedSystem::from_checkpoint_str`).
//!
//! The inputs are random bytes and damaged copies of a tiny system's own
//! checkpoint: truncated, byte-flipped and field-edited. The parser may
//! not panic, and a checkpoint that loads must simulate its first test
//! image to `Ok` or `Err`. A panic anywhere fails the property.

use proptest::prelude::*;
use sparsenn::datasets::DatasetKind;
use sparsenn::model::fixedpoint::UvMode;
use sparsenn::{SystemBuilder, TrainedSystem, TrainingAlgorithm};
use std::sync::OnceLock;

/// The checkpoint text of a 784-8-10 system on 4 training and 2 test
/// images.
fn checkpoint() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        SystemBuilder::new(DatasetKind::Basic)
            .dims(&[784, 8, 10])
            .rank(2)
            .algorithm(TrainingAlgorithm::Svd)
            .train_samples(4)
            .test_samples(2)
            .epochs(1)
            .build()
            .to_checkpoint_string()
    })
}

/// Loads `text` as a checkpoint and, if it loads, simulates test image 0.
fn load_checkpoint(text: &str) {
    if let Ok(sys) = TrainedSystem::from_checkpoint_str(text) {
        let _ = sys.simulate_sample(0, UvMode::On);
    }
}

/// A replacement token: most often a small count, else the extremes of
/// the integer fields, a clock bit pattern, a sign, a fraction, junk, or
/// nothing.
fn token(kind: u8, n: u64) -> String {
    match kind % 10 {
        0..=2 => (n % 70).to_string(),
        3 => u64::MAX.to_string(),
        4 => n.to_string(),
        5 => format!("{n:016x}"),
        6 => "-1".into(),
        7 => "0.5".into(),
        8 => "x".into(),
        _ => String::new(),
    }
}

/// Index into `len` items: three picks in four fall in the first `head`,
/// where a text keeps its counts and shapes, the rest anywhere.
fn biased(pick: u64, len: usize, head: usize) -> usize {
    let span = if pick.is_multiple_of(4) {
        len
    } else {
        len.min(head)
    };
    (pick / 4) as usize % span.max(1)
}

/// `text` with one whitespace-separated field replaced. A line's first
/// token stays when it has others: it is the line's keyword, or one
/// weight among hundreds.
fn edit_field(text: &str, pick: u64, kind: u8, n: u64) -> String {
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let at = biased(pick, lines.len(), 6);
    let line = &mut lines[at];
    let mut tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
    let i = match tokens.len() {
        0 => return text.to_string(),
        1 => 0,
        len => 1 + (pick >> 32) as usize % (len - 1),
    };
    tokens[i] = token(kind, n);
    *line = tokens.join(" ");
    lines.join("\n") + "\n"
}

/// `text` with the byte at each picked position XOR-ed by its mask.
fn flip_bytes(text: &str, flips: &[(u64, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(pick, mask) in flips {
        let i = biased(pick, bytes.len(), 256);
        bytes[i] ^= mask.max(1);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The first `pos` bytes of `text` (modulo its length, so every cut point
/// including the empty text is reachable).
fn truncate(text: &str, pos: u64) -> &str {
    &text[..pos as usize % (text.len() + 1)]
}

#[test]
fn undamaged_texts_load_and_run() {
    let sys = TrainedSystem::from_checkpoint_str(checkpoint()).unwrap();
    assert!(sys.simulate_sample(0, UvMode::On).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes, alone or after the checkpoint's header line.
    #[test]
    fn random_text_is_rejected_without_panicking(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        with_header in any::<bool>(),
    ) {
        let noise = String::from_utf8_lossy(&bytes);
        if with_header {
            load_checkpoint(&format!("sparsenn-system v1\n{noise}"));
        } else {
            load_checkpoint(&noise);
        }
    }

    /// Prefixes of the checkpoint, cut at any byte.
    #[test]
    fn truncated_texts_load_or_fail_cleanly(pos in any::<u64>()) {
        load_checkpoint(truncate(checkpoint(), pos));
    }

    /// One to four bytes XOR-ed with random masks.
    #[test]
    fn byte_flipped_texts_load_or_fail_cleanly(
        flips in prop::collection::vec((any::<u64>(), any::<u8>()), 1..5),
    ) {
        load_checkpoint(&flip_bytes(checkpoint(), &flips));
    }

    /// One field replaced by another token.
    #[test]
    fn field_edited_texts_load_or_fail_cleanly(
        pick in any::<u64>(),
        kind in any::<u8>(),
        n in any::<u64>(),
    ) {
        load_checkpoint(&edit_field(checkpoint(), pick, kind, n));
    }
}
