//! The backend-independent result of one inference run.

use sparsenn_numeric::Q6_10;
use sparsenn_sim::{LayerRun, MachineEvents, NetworkRun};

/// Per-layer result of one inference run on any backend.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRecord {
    /// Output activations (bit-exact across backends by construction).
    pub output: Vec<Q6_10>,
    /// Predictor mask (`true` = computed), when a predictor ran.
    pub mask: Option<Vec<bool>>,
    /// Total modelled cycles (0 for timing-free backends).
    pub cycles: u64,
    /// Cycles attributed to the V/U predictor phases.
    pub vu_cycles: u64,
    /// Cycles attributed to the W feedforward phase.
    pub w_cycles: u64,
    /// Modelled wall-clock latency of the layer on the producing backend,
    /// microseconds — the backend's own clock model applied to
    /// [`cycles`](Self::cycles) (`clock_ns × cycles` for the machine,
    /// [`SimdPlatform::time_us`](sparsenn_sim::simd::SimdPlatform::time_us)
    /// for the analytic platforms, 0 for timing-free backends).
    pub time_us: f64,
    /// Activity counters (exact for the cycle-accurate backend, functional
    /// estimates for analytic backends).
    pub events: MachineEvents,
}

impl LayerRecord {
    /// Converts a cycle-level layer run, stamping latency with the given
    /// clock model (microseconds per cycle count).
    fn from_layer_run(l: LayerRun, clock: impl Fn(u64) -> f64) -> Self {
        Self {
            time_us: clock(l.cycles),
            output: l.output,
            mask: l.mask,
            cycles: l.cycles,
            vu_cycles: l.vu_cycles,
            w_cycles: l.w_cycles,
            events: l.events,
        }
    }
}

/// The common result every [`InferenceBackend`](super::InferenceBackend)
/// returns: outputs, cycles and events, per layer.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Per-layer results, input side first. Non-empty by construction
    /// (backends reject empty networks with
    /// [`SparseNnError::EmptyNetwork`](crate::SparseNnError::EmptyNetwork)).
    pub layers: Vec<LayerRecord>,
}

impl RunRecord {
    /// Converts a cycle-level machine run, pricing latency with the
    /// machine's clock model ([`MachineConfig::time_us`]).
    ///
    /// [`MachineConfig::time_us`]: sparsenn_sim::MachineConfig::time_us
    pub fn from_network_run(run: NetworkRun, cfg: &sparsenn_sim::MachineConfig) -> Self {
        Self {
            layers: run
                .layers
                .into_iter()
                .map(|l| LayerRecord::from_layer_run(l, |c| cfg.time_us(c)))
                .collect(),
        }
    }

    /// Output activations of the final layer (empty only for the
    /// unreachable zero-layer record).
    pub fn output(&self) -> &[Q6_10] {
        self.layers.last().map_or(&[], |l| &l.output)
    }

    /// Argmax classification of the final layer (0 on an empty record).
    pub fn classify(&self) -> usize {
        sparsenn_numeric::argmax(self.output())
    }

    /// Sum of per-layer cycle counts.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// End-to-end modelled latency of the run, microseconds: the sum of
    /// per-layer [`LayerRecord::time_us`] (layers execute back to back).
    /// 0 for timing-free backends such as the golden model.
    pub fn time_us(&self) -> f64 {
        self.layers.iter().map(|l| l.time_us).sum()
    }

    /// Merged activity counters over all layers.
    pub fn total_events(&self) -> MachineEvents {
        let mut ev = MachineEvents::default();
        for l in &self.layers {
            ev.merge(&l.events);
        }
        ev
    }
}

/// The result of one batched inference dispatch
/// ([`InferenceBackend::run_batch`](super::InferenceBackend::run_batch)):
/// the exact per-sample records plus the batch-amortized clock/energy
/// book.
///
/// The per-sample [`records`](Self::records) are bit-identical to what
/// [`run`](super::InferenceBackend::run) would return for each input —
/// batching changes *timing and energy accounting*, never results. The
/// amortized fields carry what the dispatch costs when the substrate
/// keeps each W row resident across the batch; for substrates without a
/// batched core (the default loop-of-`run`), they simply equal the
/// serial sums.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchRunRecord {
    /// Exact per-sample results, in input order.
    pub records: Vec<RunRecord>,
    /// Modelled wall-clock of the whole batch on the producing backend,
    /// microseconds (≤ the serial sum of the per-sample times).
    pub batch_time_us: f64,
    /// Batch-amortized activity counters (per-sample counters summed,
    /// with W-memory reads replaced by the amortized count).
    pub batch_events: MachineEvents,
    /// W-memory reads the batch would cost run serially.
    pub w_reads_serial: u64,
    /// W-memory reads the batch actually costs (≤ serial).
    pub w_reads_amortized: u64,
}

impl BatchRunRecord {
    /// Folds per-sample records produced by a serial loop — the default
    /// [`run_batch`](super::InferenceBackend::run_batch) path for
    /// substrates without a batched core. Amortized fields equal the
    /// serial sums.
    pub fn from_serial(records: Vec<RunRecord>) -> Self {
        let batch_time_us = records.iter().map(RunRecord::time_us).sum();
        let mut batch_events = MachineEvents::default();
        for r in &records {
            batch_events.merge(&r.total_events());
        }
        let w_reads = batch_events.w_reads;
        Self {
            records,
            batch_time_us,
            batch_events,
            w_reads_serial: w_reads,
            w_reads_amortized: w_reads,
        }
    }

    /// Samples in the batch.
    pub fn batch_size(&self) -> usize {
        self.records.len()
    }

    /// What the batch would cost run serially, microseconds.
    pub fn serial_time_us(&self) -> f64 {
        self.records.iter().map(RunRecord::time_us).sum()
    }

    /// Amortized per-sample latency, microseconds (0 for an empty batch).
    pub fn mean_time_us(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.batch_time_us / self.records.len() as f64
    }

    /// W-read amortization factor: serial reads over batch reads (≥ 1).
    pub fn w_read_amortization(&self) -> f64 {
        if self.w_reads_amortized == 0 {
            return 1.0;
        }
        self.w_reads_serial as f64 / self.w_reads_amortized as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cycles: &[u64]) -> RunRecord {
        RunRecord {
            layers: cycles
                .iter()
                .map(|&c| LayerRecord {
                    output: vec![Q6_10::from_f32(0.5), Q6_10::from_f32(1.5)],
                    mask: None,
                    cycles: c,
                    vu_cycles: 0,
                    w_cycles: c,
                    time_us: c as f64 * 0.002,
                    events: MachineEvents {
                        cycles: c,
                        ..MachineEvents::default()
                    },
                })
                .collect(),
        }
    }

    #[test]
    fn totals_sum_over_layers() {
        let r = record(&[10, 32]);
        assert_eq!(r.total_cycles(), 42);
        assert_eq!(r.total_events().cycles, 42);
        assert_eq!(r.classify(), 1);
        assert_eq!(r.output().len(), 2);
        assert!((r.time_us() - 42.0 * 0.002).abs() < 1e-12);
    }

    #[test]
    fn serial_fold_amortizes_nothing() {
        let b = BatchRunRecord::from_serial(vec![record(&[10, 32]), record(&[10, 32])]);
        assert_eq!(b.batch_size(), 2);
        assert_eq!(b.w_reads_serial, b.w_reads_amortized);
        assert!((b.w_read_amortization() - 1.0).abs() < 1e-12);
        assert!((b.batch_time_us - b.serial_time_us()).abs() < 1e-12);
        assert!((b.mean_time_us() - b.batch_time_us / 2.0).abs() < 1e-12);
        assert_eq!(b.batch_events.cycles, 84);
    }

    #[test]
    fn empty_record_is_harmless() {
        let r = RunRecord { layers: Vec::new() };
        assert_eq!(r.output(), &[]);
        assert_eq!(r.classify(), 0);
        assert_eq!(r.total_cycles(), 0);
        assert_eq!(r.time_us(), 0.0);
    }
}
