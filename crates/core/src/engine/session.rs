//! The serving front end: batched, parallel inference over one backend.

use crate::engine::backends::InferenceBackend;
use crate::engine::record::RunRecord;
use crate::error::SparseNnError;
use crate::system::{LayerSummary, SimulationSummary, TrainedSystem};
use sparsenn_energy::PowerModel;
use sparsenn_model::fixedpoint::UvMode;
use sparsenn_sim::MachineEvents;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Default worker-pool size for batch runs:
/// `std::thread::available_parallelism`, or 1 when it is unknown. The
/// single source of truth for both [`Session`] pools and the bench
/// harness's recorded configuration; [`Session::with_workers`] pins a
/// session's pool instead.
pub fn default_worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A serving session: one trained system, one execution substrate, a
/// worker pool for batches.
///
/// Built from a [`TrainedSystem`] via [`TrainedSystem::session`] (the
/// cycle-accurate machine) or [`TrainedSystem::session_with`] (any
/// backend). The session borrows the quantized network and test split and
/// owns the backend.
///
/// Batch runs fan samples out over `std::thread::scope` workers — one per
/// available core unless [`with_workers`](Session::with_workers) pins the
/// count, capped by the batch size — and fold per-sample
/// [`RunRecord`]s into a [`SimulationSummary`] in sample order, so the
/// parallel summary is bit-identical to the serial one.
pub struct Session<'a> {
    system: &'a TrainedSystem,
    backend: Box<dyn InferenceBackend>,
    workers: Option<usize>,
}

impl<'a> Session<'a> {
    /// Creates a session over an explicit backend.
    pub fn new(system: &'a TrainedSystem, backend: Box<dyn InferenceBackend>) -> Self {
        Self {
            system,
            backend,
            workers: None,
        }
    }

    /// Pins the batch worker-pool size (at least 1), overriding the
    /// `available_parallelism` default. Useful for reproducible scheduling
    /// and for exercising the parallel path on single-core machines. On
    /// the cycle-accurate backend, `n` workers serve a batch as `n`
    /// identical machines behind one queue.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The substrate name this session serves from.
    pub fn backend_name(&self) -> &str {
        self.backend.name()
    }

    /// The system the session serves.
    pub fn system(&self) -> &TrainedSystem {
        self.system
    }

    /// Runs one raw (float) input through the backend.
    ///
    /// # Errors
    ///
    /// Backend shape errors ([`SparseNnError::InputWidthMismatch`],
    /// [`SparseNnError::LayerDoesNotFit`], [`SparseNnError::EmptyNetwork`]).
    pub fn run_input(&self, x: &[f32], mode: UvMode) -> Result<RunRecord, SparseNnError> {
        let xq = self.system.fixed().quantize_input(x);
        self.backend.run(self.system.fixed(), &xq, mode)
    }

    /// Runs test sample `i` through the backend.
    ///
    /// # Errors
    ///
    /// [`SparseNnError::SampleOutOfRange`] if `i` is not in the test set,
    /// plus any backend shape error.
    pub fn run_sample(&self, i: usize, mode: UvMode) -> Result<RunRecord, SparseNnError> {
        let test = &self.system.split().test;
        if i >= test.len() {
            return Err(SparseNnError::SampleOutOfRange {
                index: i,
                len: test.len(),
            });
        }
        self.run_input(test.image(i), mode)
    }

    /// Simulates the first `samples` test images (clamped to the test-set
    /// size) in parallel and aggregates per-layer cycles, events and power.
    ///
    /// An empty batch (`samples == 0` or an empty test set) yields a
    /// well-defined summary: one zeroed [`LayerSummary`] per layer,
    /// `samples == 0`, `fixed_accuracy == 0.0`.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing sample, if any.
    pub fn simulate_batch(
        &self,
        samples: usize,
        mode: UvMode,
    ) -> Result<SimulationSummary, SparseNnError> {
        self.stream_batch(samples, mode, |_, _| {})
    }

    /// Serial reference implementation of [`simulate_batch`]
    /// (identical folding, no worker pool) — the equivalence oracle for
    /// the parallel path.
    ///
    /// [`simulate_batch`]: Session::simulate_batch
    ///
    /// # Errors
    ///
    /// As for [`simulate_batch`](Session::simulate_batch).
    pub fn simulate_batch_serial(
        &self,
        samples: usize,
        mode: UvMode,
    ) -> Result<SimulationSummary, SparseNnError> {
        let samples = samples.min(self.system.split().test.len());
        let mut acc = BatchAccumulator::new(self.system.fixed().num_layers());
        for i in 0..samples {
            let record = self.run_sample(i, mode)?;
            acc.fold(&record, self.is_correct(i, &record))?;
        }
        Ok(acc.finish(&self.power_model(), samples))
    }

    /// Like [`simulate_batch`](Session::simulate_batch), additionally
    /// streaming every per-sample [`RunRecord`] to `on_sample` **in sample
    /// order** while workers run ahead.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing sample; `on_sample` has
    /// then been called exactly for all samples before the failing index.
    pub fn stream_batch(
        &self,
        samples: usize,
        mode: UvMode,
        mut on_sample: impl FnMut(usize, &RunRecord),
    ) -> Result<SimulationSummary, SparseNnError> {
        let samples = samples.min(self.system.split().test.len());
        let workers = self.worker_count(samples);
        if workers <= 1 {
            // Serial fast path (also: scoped threads have nothing to do).
            let mut acc = BatchAccumulator::new(self.system.fixed().num_layers());
            for i in 0..samples {
                let record = self.run_sample(i, mode)?;
                acc.fold(&record, self.is_correct(i, &record))?;
                on_sample(i, &record);
            }
            return Ok(acc.finish(&self.power_model(), samples));
        }

        let next = AtomicUsize::new(0);
        // A window of `2 × workers` permits bounds how far workers run
        // ahead of the in-order fold: one slow sample cannot pile the rest
        // of the batch up in the reorder buffer — in-flight records stay
        // O(workers), not O(batch).
        let window = 2 * workers;
        let (permit_tx, permit_rx) = mpsc::channel::<()>();
        for _ in 0..window {
            let _ = permit_tx.send(());
        }
        let permit_rx = std::sync::Mutex::new(permit_rx);
        let (tx, rx) = mpsc::sync_channel::<(usize, Result<RunRecord, SparseNnError>)>(window);
        std::thread::scope(|scope| {
            // The collector owns the permit source: when this closure exits
            // (normal or early-error), dropping it unblocks every worker
            // waiting for a permit — otherwise the scope's implicit join
            // would deadlock against them.
            let permit_tx = permit_tx;
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let permit_rx = &permit_rx;
                scope.spawn(move || loop {
                    // Acquire a permit first; the collector returns one per
                    // folded sample and drops the source on exit (normal or
                    // early-error), unblocking everyone.
                    let permit = permit_rx.lock().map(|rx| rx.recv());
                    if !matches!(permit, Ok(Ok(()))) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= samples {
                        break;
                    }
                    // Contain a panicking backend: an unwinding worker
                    // would keep its permit forever and deadlock the pool,
                    // so convert the panic into an error result instead.
                    // (Session holds no state a backend run half-mutates,
                    // so resuming after the unwind is sound.)
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        self.run_sample(i, mode)
                    }))
                    .unwrap_or(Err(SparseNnError::WorkerPanicked));
                    // A send error means the collector stopped early
                    // (first failure wins); just wind the worker down.
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            // Collect out-of-order completions, fold in sample order so the
            // summary (and the streaming callback) match the serial path.
            let mut acc = BatchAccumulator::new(self.system.fixed().num_layers());
            let mut pending: BTreeMap<usize, Result<RunRecord, SparseNnError>> = BTreeMap::new();
            let mut expected = 0usize;
            while expected < samples {
                match rx.recv() {
                    Ok((i, result)) => {
                        pending.insert(i, result);
                        while let Some(result) = pending.remove(&expected) {
                            let record = result?;
                            acc.fold(&record, self.is_correct(expected, &record))?;
                            on_sample(expected, &record);
                            expected += 1;
                            // Return the permit so a worker may claim the
                            // next sample beyond the window.
                            let _ = permit_tx.send(());
                        }
                    }
                    // All senders gone before all samples arrived — cannot
                    // happen while workers follow the protocol (panics are
                    // caught and reported as results); purely defensive.
                    Err(mpsc::RecvError) => return Err(SparseNnError::WorkerPanicked),
                }
            }
            Ok(acc.finish(&self.power_model(), samples))
        })
    }

    /// The power model pricing this session's events: the backend's own
    /// machine configuration when it has one (else the serving system's
    /// machine), at the backend's own technology node — so a 28 nm
    /// substrate's events are not billed at the paper's 65 nm.
    fn power_model(&self) -> PowerModel {
        let cfg = self
            .backend
            .machine_config()
            .unwrap_or_else(|| self.system.machine().config());
        PowerModel::at_node(cfg, self.backend.tech_node())
    }

    fn worker_count(&self, samples: usize) -> usize {
        self.workers
            .unwrap_or_else(default_worker_count)
            .min(samples)
    }

    fn is_correct(&self, i: usize, record: &RunRecord) -> bool {
        record.classify() == self.system.split().test.label(i) as usize
    }
}

/// Order-insensitive per-layer aggregation shared by the serial and
/// parallel batch paths (cycle/event counters are `u64` sums and the
/// latency sum folds in sample order, so both paths produce bit-identical
/// summaries).
struct BatchAccumulator {
    cycles: Vec<u64>,
    vu_cycles: Vec<u64>,
    time_us: Vec<f64>,
    events: Vec<MachineEvents>,
    correct: usize,
}

impl BatchAccumulator {
    fn new(num_layers: usize) -> Self {
        Self {
            cycles: vec![0; num_layers],
            vu_cycles: vec![0; num_layers],
            time_us: vec![0.0; num_layers],
            events: vec![MachineEvents::default(); num_layers],
            correct: 0,
        }
    }

    /// Folds one sample's record into the per-layer sums.
    ///
    /// # Errors
    ///
    /// [`SparseNnError::LayerCountMismatch`] when the record does not carry
    /// exactly one entry per accumulated layer — a silently truncated fold
    /// would under-report cycles and energy for the extra layers.
    fn fold(&mut self, record: &RunRecord, correct: bool) -> Result<(), SparseNnError> {
        if record.layers.len() != self.events.len() {
            return Err(SparseNnError::LayerCountMismatch {
                expected: self.events.len(),
                got: record.layers.len(),
            });
        }
        if correct {
            self.correct += 1;
        }
        for (l, layer) in record.layers.iter().enumerate() {
            self.cycles[l] += layer.cycles;
            self.vu_cycles[l] += layer.vu_cycles;
            self.time_us[l] += layer.time_us;
            self.events[l].merge(&layer.events);
        }
        Ok(())
    }

    /// Produces the summary. Units are stated per field on
    /// [`LayerSummary`]: `cycles`, `vu_cycles`, `time_us` and `energy_uj`
    /// are per-sample means; `events` and `power` cover the whole batch
    /// (power *rates* in `power` are batch-size invariant, but
    /// `power.time_us` / `power.energy_uj` are batch totals).
    fn finish(self, model: &PowerModel, samples: usize) -> SimulationSummary {
        let per_sample = samples.max(1) as f64;
        let layers = self
            .cycles
            .iter()
            .zip(&self.vu_cycles)
            .zip(&self.time_us)
            .zip(&self.events)
            .map(|(((&cycles, &vu_cycles), &time_us), events)| {
                let power = model.estimate(events);
                LayerSummary {
                    cycles: cycles as f64 / per_sample,
                    vu_cycles: vu_cycles as f64 / per_sample,
                    time_us: time_us / per_sample,
                    energy_uj: power.energy_uj / per_sample,
                    events: *events,
                    power,
                }
            })
            .collect();
        SimulationSummary {
            layers,
            samples,
            fixed_accuracy: if samples == 0 {
                0.0
            } else {
                self.correct as f32 / samples as f32
            },
        }
    }
}
