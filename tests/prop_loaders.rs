//! Property tests for the two loaders of outside text: system checkpoints
//! (`TrainedSystem::from_checkpoint_str`) and partition plans
//! (`PartitionPlan::from_plan_str`).
//!
//! The inputs are random bytes and damaged copies of a tiny system's own
//! checkpoint and plan: truncated, byte-flipped and field-edited. Neither
//! parser may panic. A checkpoint that loads must simulate its first test
//! image to `Ok` or `Err`; a plan that parses must go through `validate`
//! and `PartitionedMachine::from_plan` to `Ok` or `Err`. A panic anywhere
//! fails the property.

use proptest::prelude::*;
use sparsenn::datasets::DatasetKind;
use sparsenn::engine::PartitionedMachine;
use sparsenn::model::fixedpoint::UvMode;
use sparsenn::partition::PartitionPlan;
use sparsenn::{SystemBuilder, TrainedSystem, TrainingAlgorithm};
use std::sync::OnceLock;

/// A 784-8-10 system on 4 training and 2 test images, with its checkpoint
/// and its 2-chip plan as text.
struct Fixture {
    sys: TrainedSystem,
    checkpoint: String,
    plan: String,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let sys = SystemBuilder::new(DatasetKind::Basic)
            .dims(&[784, 8, 10])
            .rank(2)
            .algorithm(TrainingAlgorithm::Svd)
            .train_samples(4)
            .test_samples(2)
            .epochs(1)
            .build();
        let checkpoint = sys.to_checkpoint_string();
        let plan = sys.partition_plan(2).unwrap().to_plan_string();
        Fixture {
            sys,
            checkpoint,
            plan,
        }
    })
}

/// Loads `text` as a checkpoint and, if it loads, simulates test image 0.
fn load_checkpoint(text: &str) {
    if let Ok(sys) = TrainedSystem::from_checkpoint_str(text) {
        let _ = sys.simulate_sample(0, UvMode::On);
    }
}

/// Parses `text` as a plan and, if it parses, validates it against the
/// fixture's chip and builds a partitioned machine from it.
fn load_plan(text: &str) {
    if let Ok(plan) = PartitionPlan::from_plan_str(text) {
        let f = fixture();
        let chip = *f.sys.machine().config();
        let _ = plan.validate(&chip);
        let _ = PartitionedMachine::from_plan(f.sys.fixed(), chip, plan, Default::default());
    }
}

fn load_both(checkpoint: &str, plan: &str) {
    load_checkpoint(checkpoint);
    load_plan(plan);
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
    let f = fixture();
    let sys = TrainedSystem::from_checkpoint_str(&f.checkpoint).unwrap();
    assert!(sys.simulate_sample(0, UvMode::On).is_ok());
    let plan = PartitionPlan::from_plan_str(&f.plan).unwrap();
    let chip = *f.sys.machine().config();
    plan.validate(&chip).unwrap();
    assert!(PartitionedMachine::from_plan(f.sys.fixed(), chip, plan, Default::default()).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes, alone or after each format's own header line.
    #[test]
    fn random_text_is_rejected_without_panicking(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        with_header in any::<bool>(),
    ) {
        let noise = String::from_utf8_lossy(&bytes);
        let (checkpoint, plan) = if with_header {
            (format!("sparsenn-system v1\n{noise}"), format!("sparsenn-partition v1\n{noise}"))
        } else {
            (noise.to_string(), noise.to_string())
        };
        load_both(&checkpoint, &plan);
    }

    /// Prefixes of the two texts, cut at any byte.
    #[test]
    fn truncated_texts_load_or_fail_cleanly(pos in any::<u64>()) {
        let f = fixture();
        load_both(truncate(&f.checkpoint, pos), truncate(&f.plan, pos));
    }

    /// One to four bytes XOR-ed with random masks.
    #[test]
    fn byte_flipped_texts_load_or_fail_cleanly(
        flips in prop::collection::vec((any::<u64>(), any::<u8>()), 1..5),
    ) {
        let f = fixture();
        load_both(&flip_bytes(&f.checkpoint, &flips), &flip_bytes(&f.plan, &flips));
    }

    /// One field replaced by another token.
    #[test]
    fn field_edited_texts_load_or_fail_cleanly(
        pick in any::<u64>(),
        kind in any::<u8>(),
        n in any::<u64>(),
    ) {
        let f = fixture();
        load_both(
            &edit_field(&f.checkpoint, pick, kind, n),
            &edit_field(&f.plan, pick, kind, n),
        );
    }
}
