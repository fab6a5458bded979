//! Slice-granular transfer scheduling — the timing model behind
//! wavefront pipelining.
//!
//! [`InterChipConfig::broadcast_cycles`]/[`gather_cycles`] price a
//! transfer as one opaque total: every value ready at once, the last
//! value landing `values × flits + depth × hop` link cycles later. That
//! is exactly right for the *serialized* schedule (layer l+1 waits for
//! layer l's full gather), but it throws away the one fact pipelining
//! exploits: different chips — and different rows within a chip — finish
//! at different times, so their slices can be in flight while slower
//! chips still compute.
//!
//! This module prices the same fabric at slice granularity. A
//! [`SliceTransfer`] says *when* each of a chip's nonzero output values
//! becomes available (the per-value readiness profile, fed by
//! `LayerRun::row_ready`) and when the whole slice is decided;
//! [`InterChipConfig::gather_schedule`] /
//! [`InterChipConfig::broadcast_schedule`] return per-slice completion
//! times under the fabric's real constraints — the root link serializes
//! one flit per cycle across *all* slices, a value cannot travel before
//! it exists, and every flit still pays the tree's store-and-forward
//! latency. When every slice is ready at the same instant the last
//! completion collapses to exactly the old totals (the degenerate case
//! the unit tests pin down), so the serialized schedule remains a
//! special case of this one.
//!
//! [`gather_cycles`]: InterChipConfig::gather_cycles

use crate::interchip::InterChipConfig;

/// Which execution schedule a multi-chip run uses — how layer-to-layer
/// dependencies are timed, never *what* is computed (outputs, masks and
/// event sums are bit-identical across modes by construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PipelineMode {
    /// The PR-4 schedule: layer *l+1* starts only after layer *l*'s full
    /// gather; per-layer latency is `broadcast + slowest chip + gather`,
    /// each stage end-to-end before the next begins.
    #[default]
    Serialized,
    /// Wavefront pipelining: each chip's output slice starts crossing
    /// the fabric as its rows become final
    /// ([`LayerRun::row_ready`](sparsenn_sim::LayerRun::row_ready)), and
    /// every chip starts layer *l+1* as soon as the last gathered slice
    /// of layer *l* lands on it — overlapping inter-chip communication
    /// with the compute of slower chips instead of serializing behind
    /// it.
    Wavefront,
}

impl std::fmt::Display for PipelineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PipelineMode::Serialized => "serialized",
            PipelineMode::Wavefront => "wavefront",
        })
    }
}

/// One chip's output slice as seen by the transfer scheduler: an
/// availability profile plus a payload size.
#[derive(Clone, Debug, PartialEq)]
pub struct SliceTransfer {
    /// Wall-clock time each *nonzero* value of the slice becomes final,
    /// microseconds, in any order — only nonzeros travel (the fabric
    /// extends the machine's input-sparsity skipping), so a slice of
    /// all-zero rows costs no link time at all. The full profile (not
    /// just a first/last window) is what keeps the scheduler honest: a
    /// value cannot enter the fabric before its own timestamp.
    pub ready_us: Vec<f64>,
    /// Wall-clock time the *whole* slice — zero rows included — is
    /// decided, microseconds (`≥` every `ready_us` entry). Zeros are
    /// implicit on this fabric, but a consumer only knows a row is zero
    /// once its producer finished deciding it, so a slice has not
    /// "arrived" before this.
    pub decided_us: f64,
}

impl SliceTransfer {
    /// A slice whose whole payload is ready at one instant (the
    /// degenerate, serialized-equivalent profile).
    pub fn ready_at(time_us: f64, values: usize) -> Self {
        Self {
            ready_us: vec![time_us; values],
            decided_us: time_us,
        }
    }

    /// Nonzero values the slice moves across the fabric.
    pub fn values(&self) -> usize {
        self.ready_us.len()
    }
}

impl InterChipConfig {
    /// Link time to move one activation, microseconds
    /// (`flits_per_activation` link cycles).
    pub fn activation_us(&self) -> f64 {
        self.flits_per_activation as f64 * self.link_clock_ns * 1e-3
    }

    /// Store-and-forward pipeline latency through the whole tree,
    /// microseconds (`hop_latency × levels` link cycles; 0 for a single
    /// chip).
    pub fn traversal_us(&self, chips: usize) -> f64 {
        (self.hop_latency * self.levels(chips)) as f64 * self.link_clock_ns * 1e-3
    }

    /// Schedules the upward gather of per-chip output slices through the
    /// root link and returns, per slice (same order as `slices`), the
    /// time its last value has fully arrived at the root.
    ///
    /// The model: the root link serializes one flit per link cycle,
    /// slices drain whole in order of their `decided_us` (input order on
    /// ties), **no value travels before its own `ready_us` timestamp**,
    /// and each flit pays the tree's store-and-forward latency
    /// ([`traversal_us`](Self::traversal_us)). Empty slices occupy no
    /// link time: their "arrival" is the instant their producer finished
    /// deciding the rows are zero (zeros are implicit on this fabric,
    /// exactly as in [`gather_cycles`](Self::gather_cycles)).
    ///
    /// Degenerate case: when every slice is ready at one common instant
    /// `T`, the latest arrival is exactly
    /// `T + time_us(gather_cycles(chips, Σ values))` — the serialized
    /// total. With [`InterChipConfig::free`] every arrival equals the
    /// slice's own `decided_us`.
    pub fn gather_schedule(&self, chips: usize, slices: &[SliceTransfer]) -> Vec<f64> {
        self.schedule(chips, slices)
    }

    /// Schedules the downward broadcast of gathered slices from the root
    /// to every chip and returns, per slice (same order), the time its
    /// last value has landed on all chips.
    ///
    /// Same server model as [`gather_schedule`](Self::gather_schedule)
    /// — the root serializes one flit per cycle down a pipelined tree
    /// that replicates each flit to every leaf — with the slice's
    /// readiness window now being its arrival at the root. Feeding each
    /// gathered slice straight into the broadcast (instead of waiting
    /// for the full gather) is what lets a downstream chip's next layer
    /// start while upstream chips still compute.
    pub fn broadcast_schedule(&self, chips: usize, slices: &[SliceTransfer]) -> Vec<f64> {
        self.schedule(chips, slices)
    }

    /// The shared single-server link model behind both schedules.
    fn schedule(&self, chips: usize, slices: &[SliceTransfer]) -> Vec<f64> {
        let mut done = vec![0.0f64; slices.len()];
        if chips <= 1 {
            // Nothing leaves the die: data is "transferred" the moment
            // it exists.
            for (d, s) in done.iter_mut().zip(slices) {
                *d = s.decided_us;
            }
            return done;
        }
        let act_us = self.activation_us();
        let pipe_us = self.traversal_us(chips);
        let mut order: Vec<usize> = (0..slices.len()).collect();
        order.sort_by(|&a, &b| {
            slices[a]
                .decided_us
                .total_cmp(&slices[b].decided_us)
                .then(a.cmp(&b))
        });
        // Time the serializing link becomes free again.
        let mut link_free = 0.0f64;
        for i in order {
            let s = &slices[i];
            if s.ready_us.is_empty() {
                done[i] = s.decided_us;
                continue;
            }
            // Stream the payload in readiness order: every value waits
            // for the link to free AND for its own timestamp — values
            // produced slower than the link drains pace the transfer
            // value by value, not just at the window edges.
            let mut ready = s.ready_us.clone();
            ready.sort_by(f64::total_cmp);
            for r in ready {
                link_free = link_free.max(r) + act_us;
            }
            done[i] = link_free.max(s.decided_us) + pipe_us;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_instant_collapses_to_the_serialized_totals() {
        let c = InterChipConfig::default();
        for chips in [2usize, 4, 8] {
            for t0 in [0.0, 3.5] {
                let slices: Vec<SliceTransfer> = [40usize, 25, 35]
                    .iter()
                    .map(|&v| SliceTransfer::ready_at(t0, v))
                    .collect();
                let arrivals = c.gather_schedule(chips, &slices);
                let last = arrivals.iter().cloned().fold(0.0f64, f64::max);
                let total = c.time_us(c.gather_cycles(chips, 100));
                assert!(
                    (last - (t0 + total)).abs() < 1e-12,
                    "{chips} chips: {last} vs {}",
                    t0 + total
                );
            }
        }
    }

    #[test]
    fn free_links_deliver_at_readiness() {
        let c = InterChipConfig::free();
        let slices = [
            SliceTransfer {
                ready_us: (0..100).map(|i| 1.0 + 0.03 * f64::from(i)).collect(),
                decided_us: 4.0,
            },
            SliceTransfer::ready_at(2.0, 0),
        ];
        assert_eq!(c.gather_schedule(4, &slices), vec![4.0, 2.0]);
        assert_eq!(c.broadcast_schedule(4, &slices), vec![4.0, 2.0]);
    }

    #[test]
    fn single_chip_transfers_nothing() {
        let c = InterChipConfig::default();
        let slices = [SliceTransfer::ready_at(7.0, 1000)];
        assert_eq!(c.gather_schedule(1, &slices), vec![7.0]);
    }

    #[test]
    fn early_slices_overlap_late_compute() {
        let c = InterChipConfig::default(); // 1 flit/value at 1 ns, 8-cycle hops
                                            // Chip 0 finishes its 1000-value slice at t=0; chip 1 only at
                                            // t=10 µs. The early slice crosses while chip 1 still computes,
                                            // so the last arrival is paced by chip 1's readiness — not by
                                            // 2000 values of back-to-back serialization.
        let slices = [
            SliceTransfer::ready_at(0.0, 1000),
            SliceTransfer::ready_at(10.0, 1000),
        ];
        let arrivals = c.gather_schedule(2, &slices);
        let serialized_total = c.time_us(c.gather_cycles(2, 2000)); // 2.008 µs
        assert!(
            arrivals[0] < 10.0,
            "early slice lands before chip 1 is done"
        );
        let last = arrivals[1];
        assert!(
            last < 10.0 + serialized_total,
            "overlap must beat ready-all-at-10 serialization: {last}"
        );
        // And it is never optimistic about the fabric itself: chip 1's
        // own payload still pays its full serialization + hops.
        let own = 10.0 + c.time_us(c.gather_cycles(2, 1000));
        assert!((last - own).abs() < 1e-12, "{last} vs {own}");
    }

    #[test]
    fn link_contention_serializes_overlapping_slices() {
        let c = InterChipConfig::default();
        // Both slices ready at t=0: the second must queue behind the
        // first on the root link.
        let slices = [
            SliceTransfer::ready_at(0.0, 500),
            SliceTransfer::ready_at(0.0, 500),
        ];
        let arrivals = c.gather_schedule(2, &slices);
        let hop = c.traversal_us(2);
        assert!((arrivals[0] - (0.5 + hop)).abs() < 1e-12);
        assert!((arrivals[1] - (1.0 + hop)).abs() < 1e-12);
    }

    #[test]
    fn a_streaming_slice_cannot_finish_before_its_last_value() {
        let c = InterChipConfig::default();
        // 10 values trickling out until t=5 µs: the transfer is paced by
        // the readiness profile, not the tiny payload.
        let slices = [SliceTransfer {
            ready_us: (0..10).map(|i| 0.5 * f64::from(i) + 0.5).collect(),
            decided_us: 5.0,
        }];
        let arrivals = c.gather_schedule(4, &slices);
        assert!(arrivals[0] >= 5.0 + c.activation_us());
    }

    #[test]
    fn every_value_waits_for_its_own_timestamp_not_just_the_window_edges() {
        let c = InterChipConfig::default(); // 1 flit/value at 1 ns/cycle
                                            // 1000 values: one at t=0, 999 only final at t=10 µs. A model
                                            // constrained only at the window edges would claim
                                            // max(0 + 1000·act, 10 + act) ≈ 10.001; physically the 999 late
                                            // values serialize after t=10.
        let mut ready = vec![10.0; 1000];
        ready[0] = 0.0;
        let slices = [SliceTransfer {
            ready_us: ready,
            decided_us: 10.0,
        }];
        let arrivals = c.gather_schedule(2, &slices);
        let want = 10.0 + 999.0 * c.activation_us() + c.traversal_us(2);
        assert!(
            (arrivals[0] - want).abs() < 1e-9,
            "late values must pace the link: {} vs {want}",
            arrivals[0]
        );
    }

    #[test]
    fn pipeline_mode_displays_and_defaults() {
        assert_eq!(PipelineMode::default(), PipelineMode::Serialized);
        assert_eq!(PipelineMode::Serialized.to_string(), "serialized");
        assert_eq!(PipelineMode::Wavefront.to_string(), "wavefront");
    }
}
