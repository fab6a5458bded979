//! Checkpoint robustness: every way a `TrainedSystem` checkpoint file
//! can be damaged — truncation, corrupted magic, a version from another
//! build — produces a *distinct* `SparseNnError::Checkpoint` message
//! (never a panic), and a reloaded checkpoint re-plans to the partition
//! its original system served, with no plan file.

use sparsenn::datasets::DatasetKind;
use sparsenn::engine::PartitionedMachine;
use sparsenn::partition::{plan, InterChipConfig};
use sparsenn::{SparseNnError, SystemBuilder, TrainedSystem, TrainingAlgorithm};

fn tiny_system() -> TrainedSystem {
    SystemBuilder::new(DatasetKind::Basic)
        .dims(&[784, 24, 10])
        .rank(4)
        .algorithm(TrainingAlgorithm::Svd)
        .train_samples(60)
        .test_samples(20)
        .epochs(1)
        .build()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sparsenn-checkpoint-{tag}-{}.txt",
        std::process::id()
    ))
}

fn checkpoint_message(result: Result<TrainedSystem, SparseNnError>) -> String {
    match result {
        Err(SparseNnError::Checkpoint { message }) => message,
        Err(other) => panic!("expected Checkpoint error, got {other:?}"),
        Ok(_) => panic!("damaged checkpoint parsed successfully"),
    }
}

/// Truncated file, corrupted magic and a mismatched version each fail
/// with their own diagnostic — a user can tell *which* damage happened
/// from the message alone.
#[test]
fn damaged_checkpoints_fail_distinctly_without_panicking() {
    let sys = tiny_system();
    let good = sys.to_checkpoint_string();

    // 1. Truncated: keep only the first lines, losing the model section.
    let truncated: String = good.lines().take(4).collect::<Vec<_>>().join("\n");
    let truncated_msg = checkpoint_message(TrainedSystem::from_checkpoint_str(&truncated));

    // 2. Corrupted header magic: not a sparsenn checkpoint at all.
    let corrupted = good.replacen("sparsenn-system v1", "sparsexx-system v1", 1);
    let corrupted_msg = checkpoint_message(TrainedSystem::from_checkpoint_str(&corrupted));
    assert!(
        corrupted_msg.contains("magic"),
        "magic damage should be named: {corrupted_msg}"
    );

    // 3. Right file format, wrong version.
    let versioned = good.replacen("sparsenn-system v1", "sparsenn-system v7", 1);
    let versioned_msg = checkpoint_message(TrainedSystem::from_checkpoint_str(&versioned));
    assert!(
        versioned_msg.contains("version") && versioned_msg.contains("v7"),
        "version mismatch should name the version: {versioned_msg}"
    );

    // All three diagnostics are pairwise distinct.
    assert_ne!(truncated_msg, corrupted_msg);
    assert_ne!(truncated_msg, versioned_msg);
    assert_ne!(corrupted_msg, versioned_msg);

    // And the undamaged text still parses.
    assert!(TrainedSystem::from_checkpoint_str(&good).is_ok());
}

/// The same three damages through the file-based `load` path: still
/// typed `Checkpoint` errors, still no panics.
#[test]
fn damaged_checkpoint_files_load_as_errors() {
    let sys = tiny_system();
    let good = sys.to_checkpoint_string();
    for (tag, text) in [
        (
            "truncated",
            good.lines().take(3).collect::<Vec<_>>().join("\n"),
        ),
        ("magic", good.replacen("sparsenn-system", "not-a-system", 1)),
        (
            "version",
            good.replacen("sparsenn-system v1", "sparsenn-system v2", 1),
        ),
    ] {
        let path = temp_path(tag);
        std::fs::write(&path, &text).unwrap();
        let result = TrainedSystem::load(&path);
        let _ = std::fs::remove_file(&path);
        assert!(
            matches!(result, Err(SparseNnError::Checkpoint { .. })),
            "{tag}: expected Checkpoint error"
        );
    }
    // A missing file is a Checkpoint error too.
    assert!(matches!(
        TrainedSystem::load(temp_path("missing")),
        Err(SparseNnError::Checkpoint { .. })
    ));
}

/// The partition plan round-trips with its checkpoint without a file of
/// its own: a reloaded system re-plans to exactly the tiling the
/// original system's partitioned machine executes (same quantized
/// weights → same nnz balance → same greedy assignment).
#[test]
fn partition_plan_roundtrips_alongside_the_checkpoint() {
    let sys = tiny_system();
    let chip = *sys.machine().config();
    let served = PartitionedMachine::new(sys.fixed(), chip, 4, InterChipConfig::default())
        .expect("plannable");

    let path = temp_path("system");
    sys.save(&path).unwrap();
    let back = TrainedSystem::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let replanned = plan(back.fixed(), back.machine().config(), 4).unwrap();
    assert_eq!(&replanned, served.plan());
}

/// The tiny system's checkpoint text, built once for the crafted-line
/// regression tests below.
fn good_text() -> &'static str {
    static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    TEXT.get_or_init(|| tiny_system().to_checkpoint_string())
}

/// The good checkpoint with token `field` (0-based, after the keyword)
/// of its `keyword` line replaced by `value`.
fn edited(keyword: &str, field: usize, value: &str) -> String {
    let mut lines: Vec<String> = good_text().lines().map(String::from).collect();
    let line = lines
        .iter_mut()
        .find(|l| l.starts_with(&format!("{keyword} ")))
        .expect("the checkpoint has the line");
    let mut tokens: Vec<&str> = line.split_whitespace().collect();
    tokens[field + 1] = value;
    *line = tokens.join(" ");
    lines.join("\n") + "\n"
}

/// Loads a crafted checkpoint, which must fail with a message naming
/// `what`.
fn assert_rejected(text: &str, what: &str) {
    let message = checkpoint_message(TrainedSystem::from_checkpoint_str(text));
    assert!(message.contains(what), "expected `{what}` in: {message}");
}

// Machine-line fields, in order: num_pes radix queue_capacity hop_latency
// act_queue_depth w_mem u_mem v_mem act_regs pipeline_depth clock_bits.

#[test]
fn machine_line_with_no_pes_or_a_non_power_pe_count_is_rejected() {
    // 0 PEs used to load without an error.
    for pes in ["0", "1", "48", "1099511627776"] {
        assert_rejected(&edited("machine", 0, pes), "PEs");
    }
}

#[test]
fn machine_line_with_radix_one_is_rejected() {
    // Used to panic with "tree radix must be at least 2".
    assert_rejected(&edited("machine", 1, "1"), "radix 1");
}

#[test]
fn machine_line_with_no_noc_buffer_is_rejected() {
    assert_rejected(&edited("machine", 2, "0"), "noc.queue_capacity");
}

#[test]
fn machine_line_with_no_activation_queue_is_rejected() {
    // Used to spin until the 50 M-cycle guard declared a V/U deadlock.
    assert_rejected(&edited("machine", 4, "0"), "act_queue_depth");
}

#[test]
fn machine_line_with_no_activation_registers_is_rejected() {
    assert_rejected(&edited("machine", 8, "0"), "act_regs_per_pe");
}

#[test]
fn machine_line_with_a_zero_sized_memory_is_rejected() {
    for (field, name) in [(5, "w_mem_bytes"), (6, "u_mem_bytes"), (7, "v_mem_bytes")] {
        assert_rejected(&edited("machine", field, "0"), name);
    }
}

#[test]
fn machine_line_with_an_overlong_latency_is_rejected() {
    let max = u64::MAX.to_string();
    assert_rejected(&edited("machine", 3, &max), "noc.hop_latency");
    assert_rejected(&edited("machine", 9, &max), "pe_pipeline_depth");
}

#[test]
fn machine_line_with_a_non_finite_or_non_positive_clock_is_rejected() {
    for clock in [0.0, -2.0, f64::NAN, f64::INFINITY] {
        let bits = format!("{:016x}", clock.to_bits());
        assert_rejected(&edited("machine", 10, &bits), "clock period");
    }
}

#[test]
fn split_line_above_the_sample_bound_is_rejected() {
    // `split 1000000000000 0 1` used to abort the process: generating the
    // split tried to allocate 24 TB.
    let over = (sparsenn::MAX_CHECKPOINT_SAMPLES + 1).to_string();
    for (field, count) in [(0, "1000000000000"), (0, over.as_str()), (1, over.as_str())] {
        assert_rejected(&edited("split", field, count), "exceed");
    }
}
