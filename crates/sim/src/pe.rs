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
//! The model splits a PE in two. Its input side ([`PeSource`]: the source
//! activations and the V partial sums computed from them) depends on the
//! layer input alone, so the chips that each hold a tile of a layer's rows
//! share one. Its row side ([`Pe`]: the W and U rows, the predictor bank
//! and the accumulators) belongs to one tile: local row `k` of PE `p` is
//! tile position `p + k · 64` and reads W and U row `tile[p + k · 64]`.
//!
//! The model is cycle-exact, but the host advances it by events, not by
//! clock ticks. A PE's datapath holds each popped activation for a fixed
//! number of cycles — one MAC per row it touches, and at least the one
//! cycle the pop and predictor scan take — so the cycle on which each PE
//! pops a flit is fixed the moment the root emits it. The machine keeps
//! all activation queues as windows into one broadcast log and schedules
//! those pops there. The MACs themselves run in bulk once the log is
//! complete, and each row's last-MAC cycle is the cycle the
//! one-MAC-per-cycle datapath would have issued it. In the V phase the PE
//! computes every partial sum up front ([`PeSource::begin_v`]) and only
//! the hand-off of each partial to the reduce tree is timed.
//! `sparsenn-sim`'s [`Machine`](crate::Machine) wires the PEs to the NoC
//! models and credits busy and idle datapath cycles per phase.
//!
//! The W (and U) log holds every nonzero of the phase's input exactly
//! once, so a row's MACs over it are its dot product with that input. A
//! block pass computes them on W and U as stored, row-major: it lists the
//! input's live 8-word blocks and runs a PE's rows over them block by
//! block, each row taking a block in one `pmaddwd` (lane `j` of the row
//! sums the pair `w[2j]·a[2j] + w[2j+1]·a[2j+1]` in i32). It is exact.
//! With `|w| ≤ 2¹⁵` and the input's largest `|a| = m < 2¹⁵`, a pair is at
//! most `2¹⁶ · m`, so a lane is flushed into its row's i64 sum after
//! `⌊(2³¹ − 1) / (2¹⁶ · m)⌋` blocks, at least one. An input holding
//! i16::MIN, whose pair with two i16::MIN weights would be 2³¹, runs
//! product by product in i64 instead.

use sparsenn_model::fixedpoint::FixedMatrix;
use sparsenn_numeric::{Accumulator, Q6_10};

use crate::events::MachineEvents;

/// The input side of one processing element: its nonzero source
/// activations and the V-phase datapath that reduces them.
#[derive(Clone, Debug)]
pub struct PeSource {
    /// Local nonzero input activations `(global index, value)`, ascending.
    src: Vec<(u32, Q6_10)>,
    /// V phase: the finished partial sum of every predictor row.
    v_partials: Vec<i64>,
    /// V phase: the next partial the network interface hands on.
    v_next: usize,
    /// V phase: first cycle of the U phase, once the last V row started.
    u_start: Option<u64>,
}

impl PeSource {
    /// Loads PE `id`'s slice of the source register file: the nonzero
    /// entries of `input` whose index is congruent to `id` mod `num_pes`.
    pub fn new(id: usize, num_pes: usize, input: &[Q6_10]) -> Self {
        let nonzero = || {
            let strided = input[id.min(input.len())..].iter().step_by(num_pes);
            let indexed = (id as u32..).step_by(num_pes).zip(strided);
            indexed.filter(|(_, v)| !v.is_zero())
        };
        let mut src = Vec::with_capacity(nonzero().count());
        src.extend(nonzero().map(|(j, &v)| (j, v)));
        Self {
            src,
            v_partials: Vec::new(),
            v_next: 0,
            u_start: None,
        }
    }

    /// `true` if this PE holds at least one nonzero input activation
    /// (i.e. participates in the V reduction and the broadcast).
    pub fn participates(&self) -> bool {
        !self.src.is_empty()
    }

    /// The local nonzero inputs `(global index, value)` in the order the
    /// LNZD yields them.
    pub fn src(&self) -> &[(u32, Q6_10)] {
        &self.src
    }

    /// Starts the V phase over the `v.rows()` predictor rows: the datapath
    /// computes every local partial sum (one MAC per row and local nonzero,
    /// row after row from cycle 1), which are counted here. Returns the
    /// cycle on which the first partial is ready to leave (the cycle after
    /// its last MAC), or `None` for a PE with no nonzero input, which has
    /// nothing to reduce.
    pub fn begin_v(&mut self, v: &FixedMatrix, ev: &mut MachineEvents) -> Option<u64> {
        let rows = if self.src.is_empty() { 0 } else { v.rows() };
        self.v_partials = (0..rows)
            .map(|t| {
                let row = v.row(t);
                let mut acc = Accumulator::new();
                for &(col, val) in &self.src {
                    acc.mac(row[col as usize], val);
                }
                acc.raw()
            })
            .collect();
        let macs = (rows * self.src.len()) as u64;
        ev.macs += macs;
        ev.v_reads += macs;
        self.v_next = 0;
        self.u_start = None;
        let ready = self.src.len() as u64 + 1;
        match rows {
            0 => {
                self.u_start = Some(1);
                None
            }
            1 => {
                self.u_start = Some(ready);
                Some(ready)
            }
            _ => Some(ready),
        }
    }

    /// The finished V partial sum `(row, value)` waiting for the reduce
    /// tree, if any.
    pub fn pending_v_emit(&self) -> Option<(u32, i64)> {
        self.v_partials
            .get(self.v_next)
            .map(|&sum| (self.v_next as u32, sum))
    }

    /// The reduce tree accepted the pending partial on `cycle`. The output
    /// register is free again, so the datapath starts the next row on the
    /// same cycle; until then it stalled. Returns the cycle on which the
    /// next partial is ready, or `None` once every partial has left.
    pub fn v_injected(&mut self, cycle: u64) -> Option<u64> {
        self.v_next += 1;
        let left = self.v_partials.len() - self.v_next;
        if left == 0 {
            return None;
        }
        let ready = cycle + self.src.len() as u64;
        if left == 1 {
            // The last row runs now; the datapath turns to the U phase
            // after its last MAC, whether or not the partial has left.
            self.u_start = Some(ready);
        }
        Some(ready)
    }

    /// First cycle of this PE's U phase, known once its last V row has
    /// started.
    pub fn u_start(&self) -> Option<u64> {
        self.u_start
    }

    /// `true` once every V partial has left for the reduce tree.
    pub fn v_done(&self) -> bool {
        self.v_next == self.v_partials.len()
    }
}

/// The row side of one processing element for one tile of a layer's
/// rows: the W and U rows it holds, its predictor register bank and its
/// accumulators.
#[derive(Clone, Debug)]
pub struct Pe {
    id: usize,
    num_pes: usize,
    /// The local output rows: local row `k` is tile position
    /// `id + k · num_pes`.
    local_rows: Vec<Row>,
    /// Local indices of the predicted-active rows, ascending: what the
    /// bank's leading-nonzero detector yields, and the order the W phase
    /// walks them in. Rebuilt whenever the bank changes.
    active: Vec<u32>,
}

/// The state a PE keeps for one of its output rows.
#[derive(Clone, Copy, Debug)]
struct Row {
    /// The W and U row the tile maps this row to.
    w_row: u32,
    /// Wide W-phase accumulator.
    acc_w: Accumulator,
    /// Wide U-phase accumulator.
    acc_u: Accumulator,
    /// W-phase cycle of the last MAC into the row (0 = never touched);
    /// feeds the per-row completion profile at writeback.
    last_w_mac: u64,
    /// Predictor register bank bit (`true` = row predicted active).
    pred: bool,
}

impl Pe {
    /// Builds PE `id`'s rows of a tile: the positions congruent to `id`
    /// mod `num_pes`, position `i` reading W and U row `tile[i]`. A whole
    /// layer is the tile `0..rows`.
    pub fn new(id: usize, num_pes: usize, tile: &[usize]) -> Self {
        let local_rows: Vec<Row> = tile
            .iter()
            .skip(id)
            .step_by(num_pes)
            .map(|&w_row| Row {
                w_row: w_row as u32,
                acc_w: Accumulator::new(),
                acc_u: Accumulator::new(),
                last_w_mac: 0,
                pred: true,
            })
            .collect();
        Self {
            id,
            num_pes,
            active: (0..local_rows.len() as u32).collect(),
            local_rows,
        }
    }

    /// Re-derives the active-row list from the predictor bank. Runs once
    /// per predictor change (latch / force / external mask).
    fn rebuild_active(&mut self) {
        self.active.clear();
        self.active.extend(
            (0..self.local_rows.len() as u32).filter(|&k| self.local_rows[k as usize].pred),
        );
    }

    /// Tile position of local row `k`.
    fn position(&self, k: usize) -> usize {
        self.id + k * self.num_pes
    }

    /// Local output rows (tile positions, ascending).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        (0..self.local_rows.len()).map(|k| self.position(k) as u32)
    }

    /// MACs the W phase issues per activation: one per row the predictor
    /// bank's LNZD yields (every row when the bank is all ones).
    pub fn w_macs_per_flit(&self) -> usize {
        self.active.len()
    }

    /// The U phase's MACs: every broadcast V result — every nonzero of
    /// `v`, indexed by predictor row — against every local U row. Returns
    /// the datapath's busy cycles, one per MAC.
    pub(crate) fn accumulate_u<'m>(
        &mut self,
        u: &'m FixedMatrix,
        v: &Image,
        pass: &mut BlockPass<'m>,
        ev: &mut MachineEvents,
    ) -> u64 {
        let rows = self.local_rows.iter().map(|row| row.w_row as usize);
        let sums = pass.run(u, rows, v);
        for (row, &sum) in self.local_rows.iter_mut().zip(sums) {
            row.acc_u = Accumulator::from_raw(sum);
        }
        let macs = (self.local_rows.len() * v.nnz()) as u64;
        ev.macs += macs;
        ev.u_reads += macs;
        macs
    }

    /// The W phase's MACs: every broadcast activation — every nonzero of
    /// the layer input `x` — against every row the predictor bank's LNZD
    /// yields, walked in ascending order. `last_pop` is the W-phase cycle
    /// on which the PE popped the last flit; the `k`-th row of the walk
    /// got its last MAC `k` cycles later. Returns the datapath's busy
    /// cycles, one per MAC.
    pub(crate) fn accumulate_w<'m>(
        &mut self,
        w: &'m FixedMatrix,
        x: &Image,
        pass: &mut BlockPass<'m>,
        last_pop: u64,
        ev: &mut MachineEvents,
    ) -> u64 {
        let rows = self.active.iter();
        let sums = pass.run(
            w,
            rows.map(|&k| self.local_rows[k as usize].w_row as usize),
            x,
        );
        for (walk, (&local, &sum)) in self.active.iter().zip(sums).enumerate() {
            let row = &mut self.local_rows[local as usize];
            row.acc_w = Accumulator::from_raw(sum);
            row.last_w_mac = last_pop + walk as u64;
        }
        let macs = (self.active.len() * x.nnz()) as u64;
        ev.macs += macs;
        ev.w_reads += macs;
        macs
    }

    /// Latches the predictor register bank from the U accumulators
    /// (`p_i = 1` iff the predicted pre-activation is positive).
    pub fn latch_predictor(&mut self, ev: &mut MachineEvents) {
        for row in &mut self.local_rows {
            row.pred = row.acc_u.is_positive();
        }
        ev.pred_writes += self.local_rows.len() as u64;
        self.rebuild_active();
    }

    /// Forces every predictor bit active (the `uv_off` / EIE mode and
    /// layers without a predictor).
    pub fn force_all_active(&mut self) {
        self.local_rows.iter_mut().for_each(|row| row.pred = true);
        self.rebuild_active();
    }

    /// Loads the predictor register bank from an externally computed
    /// mask indexed by tile position (`mask[i]` = position `i` predicted
    /// active). The batched layer core uses this to drive one W pass with
    /// the *union* of a batch's per-sample predictor verdicts, so each W
    /// row is fetched once per batch.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is shorter than the tile.
    pub fn set_predictor(&mut self, mask: &[bool]) {
        for k in 0..self.local_rows.len() {
            self.local_rows[k].pred = mask[self.position(k)];
        }
        self.rebuild_active();
    }

    /// The predictor bank contents, one bit per local row (for mask
    /// assembly).
    pub fn predictor_bits(&self) -> impl ExactSizeIterator<Item = bool> + '_ {
        self.local_rows.iter().map(|row| row.pred)
    }

    /// Quantizes the W accumulators into output activations
    /// `(tile position, value, last W-MAC cycle)`, applying ReLU for
    /// hidden layers, and counts the destination register file writes.
    ///
    /// The third element is the W-phase cycle of the last MAC into the
    /// row — the moment its value became final (0 for rows that saw no
    /// W MAC: bypassed by the predictor, or an all-zero input). It is the
    /// raw material of the per-row availability profile
    /// ([`LayerRun::row_ready`](crate::LayerRun::row_ready)) that lets a
    /// downstream consumer (the wavefront multi-chip executor) start on
    /// rows before the whole layer drains.
    pub fn writeback(
        &self,
        is_hidden: bool,
        ev: &mut MachineEvents,
    ) -> impl Iterator<Item = (u32, Q6_10, u64)> + '_ {
        ev.dst_writes += self.local_rows.len() as u64;
        self.rows().zip(&self.local_rows).map(move |(id, row)| {
            if !row.pred {
                return (id, Q6_10::ZERO, 0);
            }
            let q: Q6_10 = row.acc_w.to_fixed();
            (id, if is_hidden { q.relu() } else { q }, row.last_w_mac)
        })
    }
}

/// A phase's input as the block pass reads it (see the module docs): its
/// 8-word blocks, the live ones listed, and how many blocks a lane may
/// take between flushes.
#[derive(Debug)]
pub(crate) struct Image {
    /// The input in 8-word blocks, the last one padded with zeros.
    x: Vec<[Q6_10; 8]>,
    /// The whole blocks holding a nonzero word, ascending.
    live: Vec<u32>,
    /// Whole blocks: `x[whole]`, if any, holds the words past them.
    whole: usize,
    /// Blocks a lane takes between flushes; 0 for the product-by-product
    /// path.
    per_flush: usize,
    /// Nonzero words: the flits the phase broadcasts.
    nnz: usize,
}

impl Image {
    /// The image of a layer input.
    pub(crate) fn new(input: &[Q6_10]) -> Self {
        let (whole, tail) = input.as_chunks::<8>();
        let live = (0..whole.len() as u32)
            .filter(|&b| whole[b as usize].iter().any(|a| !a.is_zero()))
            .collect();
        let mut x = whole.to_vec();
        if !tail.is_empty() {
            let mut last = [Q6_10::ZERO; 8];
            last[..tail.len()].copy_from_slice(tail);
            x.push(last);
        }
        let max = input.iter().map(|a| a.raw().unsigned_abs()).max();
        let per_flush = match max.unwrap_or(0) {
            0 => usize::MAX,
            0x8000 => 0,
            m => (i64::from(i32::MAX) / (i64::from(m) << 16)) as usize,
        };
        Self {
            whole: whole.len(),
            x,
            live,
            per_flush,
            nnz: input.iter().filter(|a| !a.is_zero()).count(),
        }
    }

    /// Nonzero words.
    pub(crate) fn nnz(&self) -> usize {
        self.nnz
    }
}

/// The block pass's buffers, reused across the PEs of a phase.
#[derive(Debug, Default)]
pub(crate) struct BlockPass<'m> {
    /// Per row: its whole blocks, and the words past them.
    rows: Vec<&'m [[Q6_10; 8]]>,
    tails: Vec<&'m [Q6_10]>,
    /// Per row: its i32 pair lanes since the last flush.
    lane: Vec<[i32; 4]>,
    /// Per row: its exact sum.
    sum: Vec<i64>,
}

impl<'m> BlockPass<'m> {
    /// Rows `rows` of `m`, each dotted with `x` at full precision.
    fn run(&mut self, m: &'m FixedMatrix, rows: impl Iterator<Item = usize>, x: &Image) -> &[i64] {
        self.rows.clear();
        self.tails.clear();
        for i in rows {
            let (whole, tail) = m.row(i).as_chunks::<8>();
            self.rows.push(whole);
            self.tails.push(tail);
        }
        let dot = |w: &[Q6_10], a: &[Q6_10]| -> i64 {
            w.iter()
                .zip(a)
                .map(|(w, a)| i64::from(w.wide_mul(*a)))
                .sum()
        };
        let tail = x.x.get(x.whole);
        self.sum.clear();
        self.sum
            .extend(self.tails.iter().map(|w| tail.map_or(0, |a| dot(w, a))));
        if x.per_flush == 0 {
            for (sum, row) in self.sum.iter_mut().zip(&self.rows) {
                for &b in &x.live {
                    *sum += dot(&row[b as usize], &x.x[b as usize]);
                }
            }
            return &self.sum;
        }
        self.lane.clear();
        self.lane.resize(self.rows.len(), [0; 4]);
        for run in x.live.chunks(x.per_flush) {
            pairs(&mut self.lane, &self.rows, &x.x, run);
            for (sum, lane) in self.sum.iter_mut().zip(&mut self.lane) {
                *sum += lane.iter().map(|&l| i64::from(l)).sum::<i64>();
                *lane = [0; 4];
            }
        }
        &self.sum
    }
}

/// Every row meets every block of `live`: lane `j` takes
/// `w[2j]·a[2j] + w[2j+1]·a[2j+1]`, one `pmaddwd` per row and block. The
/// shape is what LLVM matches: both blocks copied as `[Q6_10; 8]`, the
/// pairs summed even product first into a temporary, then added to the
/// lanes; summing odd first, or copying through `Q6_10::raw`, swaps the
/// words of every W load. Kept out of line so its slice parameters tell
/// the compiler the lanes alias neither operand: each block then stays in
/// a register across the rows.
#[inline(never)]
fn pairs(lane: &mut [[i32; 4]], rows: &[&[[Q6_10; 8]]], x: &[[Q6_10; 8]], live: &[u32]) {
    for &b in live {
        let b = b as usize;
        let a = x[b];
        for (lane, row) in lane.iter_mut().zip(rows) {
            let w = row[b];
            let mut pair = [0i32; 4];
            for (j, p) in pair.iter_mut().enumerate() {
                *p = w[2 * j].wide_mul(a[2 * j]) + w[2 * j + 1].wide_mul(a[2 * j + 1]);
            }
            for (l, p) in lane.iter_mut().zip(pair) {
                *l += p;
            }
        }
    }
}

/// The activation queues of all PEs, kept as windows into one broadcast
/// log.
///
/// Every PE receives the same flit on the same cycle, so the queues differ
/// only in how far each PE has popped. A PE's datapath holds each popped
/// flit for a fixed number of cycles and starts popping on a known cycle,
/// so when the root emits a flit, the cycle on which every PE will pop it
/// is already determined: the later of its arrival and the PE's datapath
/// coming free. PEs that hold flits equally long and start on the same
/// cycle pop on the same cycles and share one schedule. The log keeps, per
/// flit, the cycle of its last pop across PEs; the least free space of any
/// queue — what the root's sink gate needs — follows from it without
/// visiting the PEs.
#[derive(Clone, Debug)]
pub(crate) struct ActQueues {
    /// Entries per queue.
    depth: usize,
    /// Per emitted flit, in emission order: the cycle on which the last PE
    /// pops it.
    last_pop: Vec<u64>,
    /// Leading flits every PE had popped before the cycle last asked about.
    popped_by_all: usize,
    /// Per PE: its schedule.
    schedule_of: Vec<usize>,
    /// The distinct schedules.
    schedules: Vec<Schedule>,
    /// Last cycle on which some PE is still busy with a popped flit.
    drain_end: u64,
}

/// The pops of the PEs that hold a flit `hold` cycles and start popping
/// on cycle `start`.
#[derive(Clone, Copy, Debug)]
struct Schedule {
    hold: u64,
    start: u64,
    /// First cycle on which the next flit can be popped.
    free: u64,
}

impl Schedule {
    /// Pops the flit arriving on `arrives`; returns the pop cycle.
    fn pop(&mut self, arrives: u64) -> u64 {
        let pop = self.free.max(arrives);
        self.free = pop + self.hold;
        pop
    }
}

impl ActQueues {
    /// Empty queues of `depth` entries for PEs that hold a flit for
    /// `hold[pe]` cycles (at least 1) and pop from cycle `start[pe]` on.
    pub(crate) fn new(depth: usize, hold: &[u64], start: &[u64]) -> Self {
        debug_assert!(hold.iter().all(|&h| h >= 1), "a pop takes a cycle");
        debug_assert_eq!(hold.len(), start.len(), "one start per PE");
        let mut schedules: Vec<Schedule> = Vec::new();
        let schedule_of = hold
            .iter()
            .zip(start)
            .map(|(&hold, &start)| {
                let known = schedules
                    .iter()
                    .position(|s| s.hold == hold && s.start == start);
                known.unwrap_or_else(|| {
                    schedules.push(Schedule {
                        hold,
                        start,
                        free: start,
                    });
                    schedules.len() - 1
                })
            })
            .collect();
        Self {
            depth,
            last_pop: Vec::new(),
            popped_by_all: 0,
            schedule_of,
            schedules,
            drain_end: 0,
        }
    }

    /// The least free space of any queue at the start of `cycle` (pops of
    /// earlier cycles done), counting every emitted flit as delivered.
    /// Calls must not go back in time.
    pub(crate) fn min_free(&mut self, cycle: u64) -> usize {
        while self
            .last_pop
            .get(self.popped_by_all)
            .is_some_and(|&t| t < cycle)
        {
            self.popped_by_all += 1;
        }
        self.depth - (self.last_pop.len() - self.popped_by_all)
    }

    /// The first cycle on which every queue has a free slot for a further
    /// flit (0 when one is free already).
    pub(crate) fn opens_at(&self) -> u64 {
        self.last_pop
            .len()
            .checked_sub(self.depth)
            .map_or(0, |k| self.last_pop[k] + 1)
    }

    /// The root emits a flit on cycle `now`; it reaches every queue on
    /// cycle `arrives`, and each PE's pop of it is scheduled.
    ///
    /// # Panics
    ///
    /// Panics if some queue is full — the sink gate must prevent that,
    /// exactly like the credit-based broadcast in hardware.
    pub(crate) fn emit(&mut self, now: u64, arrives: u64) {
        assert!(self.min_free(now) > 0, "activation queue overflow");
        let mut last = 0;
        for schedule in &mut self.schedules {
            last = last.max(schedule.pop(arrives));
            self.drain_end = self.drain_end.max(schedule.free - 1);
        }
        self.last_pop.push(last);
    }

    /// Flits emitted so far.
    pub(crate) fn emitted(&self) -> usize {
        self.last_pop.len()
    }

    /// The cycle on which PE `pe` pops its last flit (`None` before any
    /// flit was emitted).
    pub(crate) fn last_pop_of(&self, pe: usize) -> Option<u64> {
        let schedule = &self.schedules[self.schedule_of[pe]];
        (!self.last_pop.is_empty()).then(|| schedule.free - schedule.hold)
    }

    /// The last cycle on which some PE is still busy with a flit it popped
    /// (0 before any flit was emitted). A PE is drained after it, and
    /// every emitted flit has arrived by then.
    pub(crate) fn drain_end(&self) -> u64 {
        self.drain_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(v: f32) -> Q6_10 {
        Q6_10::from_f32(v)
    }

    /// The whole-layer tile `0..rows`.
    fn all(rows: usize) -> Vec<usize> {
        (0..rows).collect()
    }

    #[test]
    fn src_holds_local_nonzeros_in_order() {
        // Indices 2, 66 belong to PE 2 of 64; index 3 does not; zero dropped.
        let mut input = vec![Q6_10::ZERO; 128];
        input[2] = q(1.0);
        input[66] = q(2.0);
        input[3] = q(3.0);
        let pe = PeSource::new(2, 64, &input);
        assert_eq!(pe.src(), [(2, q(1.0)), (66, q(2.0))]);
        assert!(pe.participates());
        assert!(!PeSource::new(3, 64, &[Q6_10::ZERO; 64]).participates());
    }

    #[test]
    fn rows_are_strided_by_num_pes() {
        let pe = Pe::new(3, 64, &all(200));
        assert_eq!(pe.rows().collect::<Vec<_>>(), [3, 67, 131, 195]);
        let empty = Pe::new(63, 64, &all(10));
        assert_eq!(empty.rows().len(), 0);
    }

    #[test]
    fn w_step_consumes_one_mac_per_cycle() {
        let w = FixedMatrix::from_float(&sparsenn_linalg::Matrix::from_fn(128, 4, |i, j| {
            (i + j) as f32 * 0.01
        }));
        let mut pe = Pe::new(0, 64, &all(128)); // rows 0 and 64
        let mut ev = MachineEvents::default();
        // Popped on cycle 1: one MAC per row, on cycles 1 and 2.
        let x = Image::new(&[q(1.0), Q6_10::ZERO, Q6_10::ZERO, Q6_10::ZERO]);
        let busy = pe.accumulate_w(&w, &x, &mut BlockPass::default(), 1, &mut ev);
        assert_eq!(busy, 2);
        assert_eq!(ev.macs, 2);
        assert_eq!(ev.w_reads, 2);
        // Each row's completion time is the cycle of its last MAC.
        let wb: Vec<_> = pe.writeback(true, &mut ev).collect();
        assert_eq!(wb[0].2, 1, "row 0 finished on cycle 1");
        assert_eq!(wb[1].2, 2, "row 64 finished on cycle 2");
        assert_eq!(wb[1].1, w.get(64, 0), "1.0 × W[64][0]");
    }

    #[test]
    fn predicted_inactive_rows_cost_nothing() {
        let w = FixedMatrix::from_float(&sparsenn_linalg::Matrix::from_fn(128, 4, |_, _| 1.0));
        let mut pe = Pe::new(0, 64, &all(128));
        // Force both local rows (0 and 64) inactive.
        pe.set_predictor(&[false; 128]);
        assert_eq!(pe.w_macs_per_flit(), 0);
        let mut ev = MachineEvents::default();
        let x = Image::new(&[q(1.0), Q6_10::ZERO, Q6_10::ZERO, Q6_10::ZERO]);
        let pass = &mut BlockPass::default();
        assert_eq!(pe.accumulate_w(&w, &x, pass, 1, &mut ev), 0);
        assert_eq!(ev.macs, 0);
        assert_eq!(ev.w_reads, 0);
        // Bypassed rows report no W-MAC completion cycle.
        assert!(pe.writeback(true, &mut ev).all(|(_, _, t)| t == 0));
        // The pop and LNZD scan still hold the datapath for a cycle.
        let mut queues = ActQueues::new(8, &[pe.w_macs_per_flit().max(1) as u64], &[1]);
        queues.emit(1, 1);
        queues.emit(1, 1);
        assert_eq!(queues.last_pop_of(0), Some(2));
        assert_eq!(queues.drain_end(), 2);
    }

    #[test]
    fn v_phase_emits_one_partial_per_row() {
        let v = FixedMatrix::from_float(&sparsenn_linalg::Matrix::from_fn(3, 64, |t, j| {
            (t as f32 + 1.0) * 0.1 + j as f32 * 0.0
        }));
        let mut input = vec![Q6_10::ZERO; 64];
        input[5] = q(2.0); // PE 5's only nonzero
        let mut pe = PeSource::new(5, 64, &input);
        let mut ev = MachineEvents::default();
        // One MAC per row: row 0 on cycle 1, its partial ready on cycle 2.
        let mut ready = pe.begin_v(&v, &mut ev);
        assert_eq!(ready, Some(2));
        let mut emitted = Vec::new();
        while let Some(cycle) = ready {
            emitted.push(pe.pending_v_emit().expect("a partial is ready"));
            ready = pe.v_injected(cycle);
        }
        assert!(pe.v_done());
        assert_eq!(emitted.len(), 3);
        // Partial for row t must equal V[t, 5] · 2.0 at full precision.
        for (t, raw) in emitted {
            let expect = i64::from(v.get(t as usize, 5).wide_mul(q(2.0)));
            assert_eq!(raw, expect, "row {t}");
        }
        assert_eq!(ev.v_reads, 3);
        assert_eq!(ev.macs, 3);
    }

    #[test]
    fn stalls_when_emit_register_is_occupied() {
        let v = FixedMatrix::from_float(&sparsenn_linalg::Matrix::from_fn(2, 64, |_, _| 1.0));
        let mut input = vec![Q6_10::ZERO; 64];
        input[0] = q(1.0);
        let mut pe = PeSource::new(0, 64, &input);
        let mut ev = MachineEvents::default();
        // Row 0's MAC on cycle 1; its partial may leave from cycle 2.
        assert_eq!(pe.begin_v(&v, &mut ev), Some(2));
        assert_eq!(pe.u_start(), None, "row 1 has not started");
        // Refused on cycles 2 and 3, the datapath stalls; the partial
        // leaves on cycle 4, row 1 runs on cycle 4 and its partial may
        // leave on cycle 5, when the U phase starts.
        assert_eq!(pe.v_injected(4), Some(5));
        assert_eq!(pe.u_start(), Some(5));
        assert!(!pe.v_done());
        assert_eq!(pe.v_injected(9), None);
        assert!(pe.v_done());
        assert_eq!(
            pe.u_start(),
            Some(5),
            "the U phase does not wait for the last hand-off"
        );
    }

    #[test]
    fn pe_without_nonzero_inputs_consumes_from_the_first_cycle() {
        let v = FixedMatrix::from_float(&sparsenn_linalg::Matrix::from_fn(2, 64, |_, _| 1.0));
        let mut pe = PeSource::new(1, 64, &[Q6_10::ZERO; 64]);
        let mut ev = MachineEvents::default();
        assert_eq!(pe.begin_v(&v, &mut ev), None);
        assert!(pe.v_done());
        assert_eq!(pe.u_start(), Some(1));
        assert_eq!(ev.macs, 0);
    }

    #[test]
    fn queue_windows_pop_when_the_datapath_frees() {
        // Two PEs holding a flit 3 and 1 cycles; the first starts late.
        let mut queues = ActQueues::new(2, &[3, 1], &[4, 1]);
        queues.emit(1, 2);
        assert_eq!(queues.min_free(3), 1, "PE 0 has not popped");
        queues.emit(3, 4);
        // PE 0 pops on cycles 4 and 7, PE 1 on cycles 2 and 4.
        assert_eq!(queues.last_pop_of(0), Some(7));
        assert_eq!(queues.last_pop_of(1), Some(4));
        assert_eq!(queues.drain_end(), 9);
        assert_eq!(
            queues.opens_at(),
            5,
            "flit 0 leaves PE 0's queue on cycle 4"
        );
        assert_eq!(queues.min_free(5), 1);
        assert_eq!(queues.min_free(8), 2, "flit 1 left PE 0's queue on cycle 7");
    }

    #[test]
    fn equal_pes_share_one_schedule() {
        let mut queues = ActQueues::new(4, &[2, 2, 1, 2], &[1; 4]);
        assert_eq!(queues.schedules.len(), 2, "PEs 0, 1 and 3 pop alike");
        queues.emit(1, 3);
        assert_eq!(queues.last_pop_of(3), Some(3));
        assert_eq!(queues.drain_end(), 4);
    }

    #[test]
    fn latch_predictor_uses_sign_of_u_accumulators() {
        let mut pe = Pe::new(0, 64, &all(128));
        pe.local_rows[0].acc_u.mac(q(1.0), q(1.0)); // positive
        pe.local_rows[1].acc_u.mac(q(-1.0), q(1.0)); // negative
        let mut ev = MachineEvents::default();
        pe.latch_predictor(&mut ev);
        assert_eq!(pe.predictor_bits().collect::<Vec<_>>(), [true, false]);
        assert_eq!(ev.pred_writes, 2);
    }

    #[test]
    fn set_predictor_installs_the_local_slice_of_a_global_mask() {
        // PE 1 of 64 over 200 rows owns rows 1, 65, 129, 193.
        let mut pe = Pe::new(1, 64, &all(200));
        let mut mask = vec![false; 200];
        mask[65] = true;
        mask[193] = true;
        pe.set_predictor(&mask);
        assert_eq!(
            pe.predictor_bits().collect::<Vec<_>>(),
            [false, true, false, true]
        );
    }

    #[test]
    fn writeback_applies_relu_and_bypass() {
        let mut pe = Pe::new(0, 64, &all(128));
        pe.local_rows[0].acc_w.mac(q(-2.0), q(1.0)); // negative pre-activation
        pe.local_rows[1].acc_w.mac(q(3.0), q(1.0));
        let mut mask = vec![false; 128];
        mask[0] = true; // row 64 bypassed
        pe.set_predictor(&mask);
        let mut ev = MachineEvents::default();
        let out: Vec<_> = pe.writeback(true, &mut ev).collect();
        assert_eq!(out[0], (0, Q6_10::ZERO, 0)); // ReLU clamps
        assert_eq!(out[1], (64, Q6_10::ZERO, 0)); // bypassed
        let out_linear: Vec<_> = pe.writeback(false, &mut ev).collect();
        assert_eq!(out_linear[0].1, q(-2.0)); // no ReLU on classifier
    }

    #[test]
    #[should_panic(expected = "activation queue overflow")]
    fn queue_overflow_panics() {
        let mut queues = ActQueues::new(2, &[1; 64], &[1; 64]);
        // Emitted on one cycle, nothing has been popped before it.
        for _ in 0..3 {
            queues.emit(1, 2);
        }
    }
}
