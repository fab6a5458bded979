//! The processing-element micro-architecture (paper Fig. 5).
//!
//! Each PE owns:
//!
//! * a slice of the **source activation register file** holding the input
//!   activations `a_j` with `j ≡ pe (mod 64)` — scanned in index order by a
//!   leading-nonzero detector (LNZD) that feeds the network interface;
//! * the **activation queue** buffering broadcasts arriving from the
//!   H-tree;
//! * the rows `i ≡ pe (mod 64)` of `W` (and `U`), plus the columns
//!   `j ≡ pe (mod 64)` of `V`, in private SRAMs;
//! * the 1-bit **predictor register bank** with its own LNZD, which the W
//!   phase uses to touch only rows predicted active;
//! * a single-MAC datapath (one multiply-accumulate per cycle) writing to
//!   wide accumulators, and the **destination register file** receiving the
//!   quantized outputs at writeback.
//!
//! The [`Pe`] is a passive state machine: `sparsenn-sim`'s
//! [`Machine`](crate::Machine) advances it one cycle at a time and wires it
//! to the NoC models.

use sparsenn_model::fixedpoint::FixedMatrix;
use sparsenn_noc::ActFlit;
use sparsenn_numeric::{Accumulator, Q6_10};
use std::collections::VecDeque;

use crate::events::MachineEvents;

/// What the datapath accomplished in one cycle (for utilization stats).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// A MAC (or pop-and-scan) was executed.
    Busy,
    /// Nothing to do: queue empty / waiting on the network.
    Idle,
    /// Datapath blocked: a finished V partial sum is waiting for reduce-tree
    /// credit.
    Stalled,
}

/// One processing element.
#[derive(Clone, Debug)]
pub struct Pe {
    id: usize,
    queue_cap: usize,
    /// Local nonzero input activations `(global index, value)`, ascending.
    src: Vec<(u32, Q6_10)>,
    src_cursor: usize,
    queue: VecDeque<ActFlit>,
    /// Global row ids mapped to this PE (`id, id + 64, …`), ascending.
    rows: Vec<u32>,
    /// Wide W-phase accumulators, one per local row.
    acc_w: Vec<Accumulator>,
    /// W-phase cycle of the last MAC into each local row (0 = the row was
    /// never touched); feeds the per-row completion profile at writeback.
    last_w_mac: Vec<u64>,
    /// Wide U-phase accumulators, one per local row.
    acc_u: Vec<Accumulator>,
    /// Predictor register bank (`true` = row predicted active).
    pred: Vec<bool>,
    /// Local indices of the predicted-active rows, ascending: what the
    /// bank's leading-nonzero detector yields. Rebuilt whenever the bank
    /// changes, never per queue pop.
    active: Vec<u32>,
    /// Which rows the current activation walks: `true` every local row,
    /// `false` the rows in `active`.
    mac_all: bool,
    /// Next position of the walk.
    mac_pos: usize,
    /// MACs still owed for the current activation.
    mac_rem: usize,
    /// The activation being processed.
    cur: Option<ActFlit>,
    /// V phase: current predictor row (`v_rows` when done).
    v_row: usize,
    /// Total predictor rows.
    v_rows: usize,
    /// Position inside `src` for the current V row.
    v_idx: usize,
    /// Partial sum of the current V row.
    v_partial: Accumulator,
    /// A finished partial sum waiting for network credit.
    v_emit: Option<(u32, i64)>,
}

impl Pe {
    /// Builds a PE for one layer run.
    ///
    /// `input` is the full activation vector; the PE keeps the nonzero
    /// entries whose index is congruent to `id` mod `num_pes`. `rows` is
    /// the layer's output count, distributed the same way.
    pub fn new(
        id: usize,
        num_pes: usize,
        queue_cap: usize,
        input: &[Q6_10],
        out_rows: usize,
    ) -> Self {
        let src: Vec<(u32, Q6_10)> = input
            .iter()
            .enumerate()
            .skip(id)
            .step_by(num_pes)
            .filter(|(_, v)| !v.is_zero())
            .map(|(j, &v)| (j as u32, v))
            .collect();
        let rows: Vec<u32> = (id..out_rows).step_by(num_pes).map(|i| i as u32).collect();
        let n_rows = rows.len();
        let mut pe = Self {
            id,
            queue_cap,
            src,
            src_cursor: 0,
            queue: VecDeque::new(),
            rows,
            acc_w: vec![Accumulator::new(); n_rows],
            last_w_mac: vec![0; n_rows],
            acc_u: vec![Accumulator::new(); n_rows],
            pred: vec![true; n_rows],
            active: Vec::new(),
            mac_all: false,
            mac_pos: 0,
            mac_rem: 0,
            cur: None,
            v_row: 0,
            v_rows: 0,
            v_idx: 0,
            v_partial: Accumulator::new(),
            v_emit: None,
        };
        pe.rebuild_active();
        pe
    }

    /// Re-derives the active-row list from the predictor bank. Runs once
    /// per predictor change (latch / force / external mask).
    fn rebuild_active(&mut self) {
        self.active.clear();
        self.active
            .extend((0..self.pred.len() as u32).filter(|&i| self.pred[i as usize]));
    }

    /// PE index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// `true` if this PE holds at least one nonzero input activation
    /// (i.e. participates in the V reduction and the broadcast).
    pub fn participates(&self) -> bool {
        !self.src.is_empty()
    }

    /// Number of local nonzero inputs.
    pub fn src_len(&self) -> usize {
        self.src.len()
    }

    /// Local output rows.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Free slots in the activation queue.
    pub fn queue_free(&self) -> usize {
        self.queue_cap - self.queue.len()
    }

    /// The next source activation the network interface would inject.
    pub fn peek_src(&self) -> Option<ActFlit> {
        self.src
            .get(self.src_cursor)
            .map(|&(index, value)| ActFlit {
                index,
                value: value.raw(),
            })
    }

    /// Marks the current source activation as injected.
    pub fn advance_src(&mut self) {
        self.src_cursor += 1;
    }

    /// Rewinds the source LNZD (between phases).
    pub fn rewind_src(&mut self) {
        self.src_cursor = 0;
    }

    /// Accepts a broadcast flit into the activation queue.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — the machine's sink gating must prevent
    /// that, exactly like the credit-based broadcast in hardware.
    pub fn push_act(&mut self, flit: ActFlit, ev: &mut MachineEvents) {
        assert!(
            self.queue.len() < self.queue_cap,
            "activation queue overflow (PE {})",
            self.id
        );
        self.queue.push_back(flit);
        ev.queue_pushes += 1;
    }

    /// Prepares the V phase over `v_rows` predictor rows.
    pub fn begin_v(&mut self, v_rows: usize) {
        self.v_rows = v_rows;
        self.v_row = if self.src.is_empty() { v_rows } else { 0 };
        self.v_idx = 0;
        self.v_partial = Accumulator::new();
        self.v_emit = None;
    }

    /// A finished V partial sum waiting to enter the reduce tree, if any.
    pub fn pending_v_emit(&self) -> Option<(u32, i64)> {
        self.v_emit
    }

    /// Marks the pending partial as accepted by the network.
    pub fn clear_v_emit(&mut self) {
        self.v_emit = None;
    }

    /// `true` once every local V MAC has been executed and emitted.
    pub fn v_done(&self) -> bool {
        self.v_row >= self.v_rows && self.v_emit.is_none()
    }

    /// `true` when the datapath and queue are fully drained.
    pub fn drained(&self) -> bool {
        self.queue.is_empty() && self.mac_rem == 0
    }

    /// Advances the datapath one cycle during the combined V/U phase:
    /// local V MACs first (partials stream into the reduce tree), then the
    /// queued V-phase results are consumed against the local U rows.
    pub fn step_vu(
        &mut self,
        v: &FixedMatrix,
        u: &FixedMatrix,
        ev: &mut MachineEvents,
    ) -> StepOutcome {
        // V phase: one MAC per cycle over (row, local nonzero) pairs.
        if self.v_row < self.v_rows {
            if self.v_emit.is_some() {
                // Output register still occupied: pipeline stall.
                return StepOutcome::Stalled;
            }
            let (col, val) = self.src[self.v_idx];
            self.v_partial.mac(v.get(self.v_row, col as usize), val);
            ev.macs += 1;
            ev.v_reads += 1;
            self.v_idx += 1;
            if self.v_idx == self.src.len() {
                self.v_emit = Some((self.v_row as u32, self.v_partial.raw()));
                self.v_partial = Accumulator::new();
                self.v_idx = 0;
                self.v_row += 1;
            }
            return StepOutcome::Busy;
        }
        // U phase: process queued V results against all local U rows.
        self.step_queue_consumer(ev, u, true, false, 0)
    }

    /// Advances the datapath one cycle during the W phase. `cycle` is the
    /// current W-phase cycle number; a MAC issued this cycle stamps its
    /// target row's completion time (reported by
    /// [`writeback`](Self::writeback)).
    ///
    /// `uv_on` selects output-sparsity skipping: the predictor bank's LNZD
    /// yields only the active rows, so bypassed rows cost neither a W-memory
    /// read nor a MAC.
    pub fn step_w(
        &mut self,
        w: &FixedMatrix,
        uv_on: bool,
        cycle: u64,
        ev: &mut MachineEvents,
    ) -> StepOutcome {
        self.step_queue_consumer(ev, w, false, uv_on, cycle)
    }

    /// Shared queue-pop / MAC-issue logic for the U and W phases.
    ///
    /// With `pred_filter` set, the predictor bank's LNZD selects only the
    /// rows whose bit is set (and the scan itself is counted).
    fn step_queue_consumer(
        &mut self,
        ev: &mut MachineEvents,
        matrix: &FixedMatrix,
        is_u: bool,
        pred_filter: bool,
        cycle: u64,
    ) -> StepOutcome {
        if self.mac_rem == 0 {
            let Some(flit) = self.queue.pop_front() else {
                return StepOutcome::Idle;
            };
            ev.queue_pops += 1;
            self.cur = Some(flit);
            self.mac_pos = 0;
            self.mac_all = !pred_filter;
            self.mac_rem = if pred_filter {
                ev.pred_scans += 1;
                self.active.len()
            } else {
                self.rows.len()
            };
            if self.mac_rem == 0 {
                // Nothing mapped / predicted active for this activation:
                // the pop and LNZD scan consumed the cycle but the datapath
                // did no useful work — idle for utilization purposes.
                return StepOutcome::Idle;
            }
        }
        let local = if self.mac_all {
            self.mac_pos
        } else {
            self.active[self.mac_pos] as usize
        };
        self.mac_pos += 1;
        self.mac_rem -= 1;
        let flit = self.cur.expect("current activation set");
        let weight = matrix.get(self.rows[local] as usize, flit.index as usize);
        let act = Q6_10::from_raw(flit.value);
        if is_u {
            self.acc_u[local].mac(weight, act);
            ev.u_reads += 1;
        } else {
            self.acc_w[local].mac(weight, act);
            self.last_w_mac[local] = cycle;
            ev.w_reads += 1;
        }
        ev.macs += 1;
        StepOutcome::Busy
    }

    /// Latches the predictor register bank from the U accumulators
    /// (`p_i = 1` iff the predicted pre-activation is positive).
    pub fn latch_predictor(&mut self, ev: &mut MachineEvents) {
        for (i, acc) in self.acc_u.iter().enumerate() {
            self.pred[i] = acc.is_positive();
        }
        ev.pred_writes += self.rows.len() as u64;
        self.rebuild_active();
    }

    /// Forces every predictor bit active (the `uv_off` / EIE mode and
    /// layers without a predictor).
    pub fn force_all_active(&mut self) {
        self.pred.iter_mut().for_each(|p| *p = true);
        self.rebuild_active();
    }

    /// Loads the predictor register bank from an externally computed
    /// per-output-row mask (`mask[row]` = row predicted active), indexed
    /// by global row id. The batched layer core uses this to drive one
    /// W pass with the *union* of a batch's per-sample predictor
    /// verdicts, so each W row is fetched once per batch.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is shorter than the layer's output row count.
    pub fn set_predictor(&mut self, mask: &[bool]) {
        for (i, &row) in self.rows.iter().enumerate() {
            self.pred[i] = mask[row as usize];
        }
        self.rebuild_active();
    }

    /// The predictor bank contents (for mask assembly).
    pub fn predictor_bits(&self) -> &[bool] {
        &self.pred
    }

    /// Quantizes the W accumulators into output activations
    /// `(global row, value, last W-MAC cycle)`, applying ReLU for hidden
    /// layers, and counts the destination register file writes.
    ///
    /// The third element is the W-phase cycle of the last MAC into the
    /// row — the moment its value became final (0 for rows that saw no
    /// W MAC: bypassed by the predictor, or an all-zero input). It is the
    /// raw material of the per-row availability profile
    /// ([`LayerRun::row_ready`](crate::LayerRun::row_ready)) that lets a
    /// downstream consumer (the wavefront multi-chip executor) start on
    /// rows before the whole layer drains.
    pub fn writeback(&self, is_hidden: bool, ev: &mut MachineEvents) -> Vec<(u32, Q6_10, u64)> {
        ev.dst_writes += self.rows.len() as u64;
        self.rows
            .iter()
            .zip(&self.acc_w)
            .zip(self.pred.iter().zip(&self.last_w_mac))
            .map(|((&row, acc), (&active, &last_mac))| {
                let val = if active {
                    let q: Q6_10 = acc.to_fixed();
                    if is_hidden {
                        q.relu()
                    } else {
                        q
                    }
                } else {
                    Q6_10::ZERO
                };
                (row, val, if active { last_mac } else { 0 })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(v: f32) -> Q6_10 {
        Q6_10::from_f32(v)
    }

    #[test]
    fn src_holds_local_nonzeros_in_order() {
        // Indices 2, 66 belong to PE 2 of 64; index 3 does not; zero dropped.
        let mut input = vec![Q6_10::ZERO; 128];
        input[2] = q(1.0);
        input[66] = q(2.0);
        input[3] = q(3.0);
        let pe = Pe::new(2, 64, 8, &input, 10);
        assert_eq!(pe.src_len(), 2);
        assert_eq!(pe.peek_src().unwrap().index, 2);
        assert!(pe.participates());
    }

    #[test]
    fn rows_are_strided_by_num_pes() {
        let pe = Pe::new(3, 64, 8, &[Q6_10::ZERO; 64], 200);
        assert_eq!(pe.rows(), &[3, 67, 131, 195]);
        let empty = Pe::new(63, 64, 8, &[Q6_10::ZERO; 64], 10);
        assert!(empty.rows().is_empty());
    }

    #[test]
    fn w_step_consumes_one_mac_per_cycle() {
        let w = FixedMatrix::from_float(&sparsenn_linalg::Matrix::from_fn(128, 4, |i, j| {
            (i + j) as f32 * 0.01
        }));
        let mut input = vec![Q6_10::ZERO; 4];
        input[0] = q(1.0);
        let mut pe = Pe::new(0, 64, 8, &input, 128); // rows 0 and 64
        let mut ev = MachineEvents::default();
        pe.push_act(
            ActFlit {
                index: 0,
                value: q(1.0).raw(),
            },
            &mut ev,
        );
        // Cycle 1: pop + first MAC; cycle 2: second MAC; cycle 3: idle.
        assert_eq!(pe.step_w(&w, false, 1, &mut ev), StepOutcome::Busy);
        assert_eq!(pe.step_w(&w, false, 2, &mut ev), StepOutcome::Busy);
        assert_eq!(pe.step_w(&w, false, 3, &mut ev), StepOutcome::Idle);
        assert_eq!(ev.macs, 2);
        assert_eq!(ev.w_reads, 2);
        assert!(pe.drained());
        // Each row's completion time is the cycle of its last MAC.
        let wb = pe.writeback(true, &mut ev);
        assert_eq!(wb[0].2, 1, "row 0 finished on cycle 1");
        assert_eq!(wb[1].2, 2, "row 64 finished on cycle 2");
    }

    #[test]
    fn predicted_inactive_rows_cost_nothing() {
        let w = FixedMatrix::from_float(&sparsenn_linalg::Matrix::from_fn(128, 4, |_, _| 1.0));
        let mut pe = Pe::new(0, 64, 8, &[q(1.0); 4], 128);
        // Force both local rows (0 and 64) inactive.
        pe.set_predictor(&[false; 128]);
        let mut ev = MachineEvents::default();
        pe.push_act(
            ActFlit {
                index: 0,
                value: q(1.0).raw(),
            },
            &mut ev,
        );
        // Pop + scan consume the cycle but do no datapath work.
        assert_eq!(pe.step_w(&w, true, 1, &mut ev), StepOutcome::Idle);
        assert_eq!(ev.macs, 0);
        assert_eq!(ev.w_reads, 0);
        assert_eq!(ev.pred_scans, 1);
        assert!(pe.drained());
        // Bypassed rows report no W-MAC completion cycle.
        assert!(pe.writeback(true, &mut ev).iter().all(|&(_, _, t)| t == 0));
    }

    #[test]
    fn v_phase_emits_one_partial_per_row() {
        let v = FixedMatrix::from_float(&sparsenn_linalg::Matrix::from_fn(3, 64, |t, j| {
            (t as f32 + 1.0) * 0.1 + j as f32 * 0.0
        }));
        let mut input = vec![Q6_10::ZERO; 64];
        input[5] = q(2.0); // PE 5's only nonzero
        let mut pe = Pe::new(5, 64, 8, &input, 64);
        pe.begin_v(3);
        let u = v.clone();
        let mut ev = MachineEvents::default();
        let mut emitted = Vec::new();
        for _ in 0..10 {
            if let Some(e) = pe.pending_v_emit() {
                emitted.push(e);
                pe.clear_v_emit();
            }
            pe.step_vu(&v, &u, &mut ev);
            if pe.v_done() && pe.pending_v_emit().is_none() && pe.drained() {
                if let Some(e) = pe.pending_v_emit() {
                    emitted.push(e);
                }
            }
        }
        if let Some(e) = pe.pending_v_emit() {
            emitted.push(e);
            pe.clear_v_emit();
        }
        assert_eq!(emitted.len(), 3);
        // Partial for row t must equal V[t, 5] · 2.0 at full precision.
        for (t, raw) in emitted {
            let expect = i64::from(v.get(t as usize, 5).wide_mul(q(2.0)));
            assert_eq!(raw, expect, "row {t}");
        }
        assert_eq!(ev.v_reads, 3);
    }

    #[test]
    fn stalls_when_emit_register_is_occupied() {
        let v = FixedMatrix::from_float(&sparsenn_linalg::Matrix::from_fn(2, 64, |_, _| 1.0));
        let mut input = vec![Q6_10::ZERO; 64];
        input[0] = q(1.0);
        let mut pe = Pe::new(0, 64, 8, &input, 64);
        pe.begin_v(2);
        let mut ev = MachineEvents::default();
        assert_eq!(pe.step_vu(&v, &v, &mut ev), StepOutcome::Busy); // row 0 done, emit set
        assert_eq!(pe.step_vu(&v, &v, &mut ev), StepOutcome::Stalled); // blocked
        pe.clear_v_emit();
        assert_eq!(pe.step_vu(&v, &v, &mut ev), StepOutcome::Busy); // row 1
    }

    #[test]
    fn latch_predictor_uses_sign_of_u_accumulators() {
        let mut pe = Pe::new(0, 64, 8, &[q(1.0); 4], 128);
        pe.acc_u[0].mac(q(1.0), q(1.0)); // positive
        pe.acc_u[1].mac(q(-1.0), q(1.0)); // negative
        let mut ev = MachineEvents::default();
        pe.latch_predictor(&mut ev);
        assert_eq!(pe.predictor_bits(), &[true, false]);
        assert_eq!(ev.pred_writes, 2);
    }

    #[test]
    fn set_predictor_installs_the_local_slice_of_a_global_mask() {
        // PE 1 of 64 over 200 rows owns rows 1, 65, 129, 193.
        let mut pe = Pe::new(1, 64, 8, &[q(1.0); 4], 200);
        let mut mask = vec![false; 200];
        mask[65] = true;
        mask[193] = true;
        pe.set_predictor(&mask);
        assert_eq!(pe.predictor_bits(), &[false, true, false, true]);
    }

    #[test]
    fn writeback_applies_relu_and_bypass() {
        let mut pe = Pe::new(0, 64, 8, &[q(1.0); 4], 128);
        pe.acc_w[0].mac(q(-2.0), q(1.0)); // negative pre-activation
        pe.acc_w[1].mac(q(3.0), q(1.0));
        let mut mask = vec![false; 128];
        mask[0] = true; // row 64 bypassed
        pe.set_predictor(&mask);
        let mut ev = MachineEvents::default();
        let out = pe.writeback(true, &mut ev);
        assert_eq!(out[0], (0, Q6_10::ZERO, 0)); // ReLU clamps
        assert_eq!(out[1], (64, Q6_10::ZERO, 0)); // bypassed
        let out_linear = pe.writeback(false, &mut ev);
        assert_eq!(out_linear[0].1, q(-2.0)); // no ReLU on classifier
    }

    #[test]
    #[should_panic(expected = "activation queue overflow")]
    fn queue_overflow_panics() {
        let mut pe = Pe::new(0, 64, 2, &[q(1.0); 4], 4);
        let mut ev = MachineEvents::default();
        for i in 0..3 {
            pe.push_act(ActFlit { index: i, value: 1 }, &mut ev);
        }
    }
}
