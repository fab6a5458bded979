//! Column-block-major weight layouts, repacked once at construction, and
//! the exact i32-lane passes every matrix stage runs on them.

use sparsenn_model::fixedpoint::{FixedMatrix, FixedPredictor};
use sparsenn_numeric::{Accumulator, Q6_10};
use std::ops::Range;

/// Products one `i32` lane can sum exactly when every weight has
/// `|w| ≤ max_abs` and the activation is any Q6.10 word (`|a| ≤ 2¹⁵`):
/// `⌊(2³¹ − 1) / (max_abs · 2¹⁵)⌋`, at least 1 because `max_abs ≤ 2¹⁵`.
/// A layer of zeros never grows a lane, so its capacity is unbounded.
pub(crate) fn lane_capacity(max_abs: u32) -> usize {
    if max_abs == 0 {
        return usize::MAX;
    }
    (i64::from(i32::MAX) / (i64::from(max_abs) << 15)) as usize
}

/// Rows per row tile. A batched pass runs every sample over one tile
/// before reading the next, so the tile (64 rows of a 1 024-column layer
/// is 128 KB) comes from memory once per batch and from cache for the
/// other samples.
pub(crate) const TILE_ROWS: usize = 64;

/// The i32 lanes and their i64 flush targets, shared by every pass.
#[derive(Clone, Debug, Default)]
pub(crate) struct Lanes {
    lane: Vec<i32>,
    wide: Vec<i64>,
}

impl Lanes {
    /// Grows the buffers to at least `lanes` lanes and `rows` partial sums.
    pub(crate) fn ensure(&mut self, lanes: usize, rows: usize) {
        if self.lane.len() < lanes {
            self.lane.resize(lanes, 0);
        }
        if self.wide.len() < rows {
            self.wide.resize(rows, 0);
        }
    }

    /// Clears `rows` rows of `width` lanes and returns them with their
    /// i64 partial sums.
    fn cleared(&mut self, rows: usize, width: usize) -> (&mut [i32], &mut [i64]) {
        let lane = &mut self.lane[..rows * width];
        let wide = &mut self.wide[..rows];
        lane.fill(0);
        wide.fill(0);
        (lane, wide)
    }
}

/// Moves each row's `width` lanes into its i64 partial sum and clears them.
fn flush(lane: &mut [i32], wide: &mut [i64], width: usize) {
    for (w, l) in wide.iter_mut().zip(lane.chunks_exact_mut(width)) {
        *w += lane_sum(l);
        l.fill(0);
    }
}

/// One row's lanes summed in i64.
#[inline]
fn lane_sum(l: &[i32]) -> i64 {
    l.iter().map(|&v| i64::from(v)).sum()
}

/// The broadcast pass over one row tile: every block in `live` meets
/// every row in `rows` (tile row `i − t0`). `tile` holds the tile's
/// panels, `rt` rows each. With `pairs`, a row has `block / 2` lanes and
/// each takes the pair sum of two products per block; otherwise a row has
/// `block` lanes of one product each. Kept out of line so its slice
/// parameters tell the compiler the lanes alias neither operand: each
/// activation block then stays in registers across the rows.
#[inline(never)]
fn broadcast(
    lane: &mut [i32],
    tile: &[Q6_10],
    x: &[Q6_10],
    rows: &[u32],
    live: &[u32],
    (block, rt, t0): (usize, usize, usize),
    pairs: bool,
) {
    match (block, pairs) {
        (8, true) => broadcast_pairs::<8, 4>(lane, tile, x, rows, live, rt, t0),
        (16, true) => broadcast_pairs::<16, 8>(lane, tile, x, rows, live, rt, t0),
        (32, true) => broadcast_pairs::<32, 16>(lane, tile, x, rows, live, rt, t0),
        _ => {
            for &b in live {
                let b = b as usize;
                let xb = &x[b * block..(b + 1) * block];
                for (l, &i) in lane.chunks_exact_mut(block).zip(rows) {
                    let w = &tile[(b * rt + i as usize - t0) * block..][..block];
                    for ((l, w), a) in l.iter_mut().zip(w).zip(xb) {
                        *l += w.wide_mul(*a);
                    }
                }
            }
        }
    }
}

/// [`broadcast`]'s pair pass at a block width `B = 2H` known to the
/// compiler: lane `j` of a row takes `w[2j]·a[2j] + w[2j+1]·a[2j+1]`, so
/// each 8 words of a row are one `pmaddwd`. The shape is what LLVM
/// matches: both blocks copied into `i16` arrays, the pairs summed odd
/// product first into a temporary, then added to the lanes. Fusing the
/// add splits even and odd words into two masked `pmaddwd`s; summing even
/// first swaps the words of every W load.
#[inline(always)]
fn broadcast_pairs<const B: usize, const H: usize>(
    lane: &mut [i32],
    tile: &[Q6_10],
    x: &[Q6_10],
    rows: &[u32],
    live: &[u32],
    rt: usize,
    t0: usize,
) {
    const { assert!(B == 2 * H) };
    let (lane, _) = lane.as_chunks_mut::<H>();
    let (tile, _) = tile.as_chunks::<B>();
    let (x, _) = x.as_chunks::<B>();
    for &b in live {
        let b = b as usize;
        let (xb, panel) = (x[b].map(Q6_10::raw), &tile[b * rt..(b + 1) * rt]);
        for (l, &i) in lane.iter_mut().zip(rows) {
            let w = panel[i as usize - t0].map(Q6_10::raw);
            let mut pair = [0i32; H];
            for (j, p) in pair.iter_mut().enumerate() {
                *p = i32::from(w[2 * j + 1]) * i32::from(xb[2 * j + 1])
                    + i32::from(w[2 * j]) * i32::from(xb[2 * j]);
            }
            for (l, p) in l.iter_mut().zip(pair) {
                *l += p;
            }
        }
    }
}

/// A weight matrix repacked for the broadcast pass: rows in tiles of
/// [`TILE_ROWS`], each tile column-block-major. Block `b` of a tile is one
/// contiguous panel of `tile rows × block` words, and a tile's panels
/// follow each other, so a pass over one tile streams forward through
/// memory. The last block is zero-padded.
///
/// Zero padding is exact: a padded weight meets a padded (zero)
/// activation and contributes `0`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PackedLayer {
    rows: usize,
    cols: usize,
    block: usize,
    blocks: usize,
    /// Products one lane can take between flushes ([`lane_capacity`] of
    /// the largest packed `|w|`).
    k: usize,
    data: Vec<Q6_10>,
}

impl PackedLayer {
    /// Repacks a quantized matrix into tiled column-block panels (done
    /// once; the compute stage never touches the original layout again).
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    pub(crate) fn pack(m: &FixedMatrix, block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        let (rows, cols) = (m.rows(), m.cols());
        let blocks = cols.div_ceil(block);
        let mut p = Self {
            rows,
            cols,
            block,
            blocks,
            k: 0,
            data: vec![Q6_10::ZERO; rows * blocks * block],
        };
        let mut max_abs = 0u32;
        for i in 0..rows {
            let span = p.tile_rows(i / TILE_ROWS);
            let base = span.start * p.padded() + (i - span.start) * block;
            for (j, &w) in m.row(i).iter().enumerate() {
                p.data[base + (j / block) * span.len() * block + j % block] = w;
                max_abs = max_abs.max(u32::from(w.raw().unsigned_abs()));
            }
        }
        p.k = lane_capacity(max_abs);
        p
    }

    /// Output rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Unpadded input columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Column blocks.
    pub(crate) fn blocks(&self) -> usize {
        self.blocks
    }

    /// Padded input width (`blocks × block`).
    pub(crate) fn padded(&self) -> usize {
        self.blocks * self.block
    }

    /// Row tiles.
    pub(crate) fn tiles(&self) -> usize {
        self.rows.div_ceil(TILE_ROWS)
    }

    /// The rows of tile `t`.
    pub(crate) fn tile_rows(&self, t: usize) -> Range<usize> {
        t * TILE_ROWS..((t + 1) * TILE_ROWS).min(self.rows)
    }

    /// Whether the broadcast pass sums pairs: at the widths [`broadcast`]
    /// has a pair copy for, when a lane can hold two products (`k ≥ 2`).
    fn pairs(&self) -> bool {
        self.k >= 2 && matches!(self.block, 8 | 16 | 32)
    }

    /// The broadcast pass over tile `t` for one sample: each block in
    /// `live` meets every row in `rows` (ascending, all in the tile). With
    /// [`pairs`](Self::pairs), each of a row's `block / 2` lanes takes two
    /// exact products per block and the lanes flush into i64 every
    /// `⌊k / 2⌋` blocks; otherwise each of its `block` lanes takes one
    /// product per block and they flush every `k` blocks. Either way no
    /// lane holds more than `k` products. Calls `emit(row, acc)` with each
    /// row's dot product over the live blocks of the padded activations
    /// `x`. Bit-identical to the golden `row_dot`: zeros inside live
    /// blocks and dead blocks both contribute 0, and integer sums do not
    /// depend on order.
    pub(crate) fn dot_tile(
        &self,
        t: usize,
        rows: &[u32],
        live: &[u32],
        x: &[Q6_10],
        lanes: &mut Lanes,
        mut emit: impl FnMut(usize, Accumulator),
    ) {
        let (block, pairs) = (self.block, self.pairs());
        let (width, per_flush) = if pairs {
            (block / 2, self.k / 2)
        } else {
            (block, self.k)
        };
        let span = self.tile_rows(t);
        let tile = &self.data[span.start * self.padded()..span.end * self.padded()];
        let shape = (block, span.len(), span.start);
        let (lane, wide) = lanes.cleared(rows.len(), width);
        for (c, live) in live.chunks(per_flush).enumerate() {
            if c > 0 {
                flush(lane, wide, width);
            }
            broadcast(lane, tile, x, rows, live, shape, pairs);
        }
        for ((&i, &w), l) in rows.iter().zip(wide.iter()).zip(lane.chunks_exact(width)) {
            emit(i as usize, Accumulator::from_raw(w + lane_sum(l)));
        }
    }
}

/// A UV predictor repacked for the kernel: V (`r × n`) with the layer's
/// column blocking (it reads the same sparse activations and runs the same
/// broadcast pass), U (`m × r`) column-major, so its verdicts are `r`
/// axpys over the rows.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PackedPredictor {
    /// Tiled column-block V factor.
    pub(crate) v: PackedLayer,
    /// U's columns, `u_rows` words each.
    u: Vec<Q6_10>,
    u_rows: usize,
    /// Columns one lane can take between flushes.
    u_k: usize,
}

impl PackedPredictor {
    /// Repacks a quantized predictor pair.
    pub(crate) fn pack(p: &FixedPredictor, block: usize) -> Self {
        let (m, r) = (p.u.rows(), p.u.cols());
        let mut u = vec![Q6_10::ZERO; m * r];
        for i in 0..m {
            for (t, &w) in p.u.row(i).iter().enumerate() {
                u[t * m + i] = w;
            }
        }
        let max_abs = u.iter().map(|w| u32::from(w.raw().unsigned_abs())).max();
        Self {
            v: PackedLayer::pack(&p.v, block),
            u,
            u_rows: m,
            u_k: lane_capacity(max_abs.unwrap_or(0)),
        }
    }

    /// Predictor rank (`r` = V rows = U cols).
    pub(crate) fn rank(&self) -> usize {
        self.v.rows()
    }

    /// U-phase verdicts for the V result `v`: `mask[i] = U[i] · v > 0`,
    /// as one `i32` axpy per column over all rows, the lanes flushed into
    /// i64 at most every `u_k` columns.
    pub(crate) fn verdicts(&self, v: &[Q6_10], lanes: &mut Lanes, mask: &mut [bool]) {
        let m = self.u_rows;
        let (lane, wide) = lanes.cleared(m, 1);
        for (t, (col, &a)) in self.u.chunks_exact(m.max(1)).zip(v).enumerate() {
            if t > 0 && t % self.u_k == 0 {
                flush(lane, wide, 1);
            }
            axpy(lane, col, [a; 8]);
        }
        for ((m, &l), &w) in mask.iter_mut().zip(lane.iter()).zip(wide.iter()) {
            *m = w + i64::from(l) > 0;
        }
    }
}

/// `lane += col · a`, one exact product per lane. `a` arrives as eight
/// copies so the compiler sees an 8-wide multiply (two `pmaddwd`s per
/// eight rows); out of line for the same aliasing reason as
/// [`broadcast`].
#[inline(never)]
fn axpy(lane: &mut [i32], col: &[Q6_10], a: [Q6_10; 8]) {
    let (lanes, lane_tail) = lane.as_chunks_mut::<8>();
    let (cols, col_tail) = col.as_chunks::<8>();
    for (l, w) in lanes.iter_mut().zip(cols) {
        for j in 0..8 {
            l[j] += w[j].wide_mul(a[j]);
        }
    }
    for (l, w) in lane_tail.iter_mut().zip(col_tail) {
        *l += w.wide_mul(a[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_linalg::Matrix;

    fn mat(rows: usize, cols: usize) -> FixedMatrix {
        FixedMatrix::from_float(&Matrix::from_fn(rows, cols, |i, j| {
            ((i * cols + j) as f32 * 0.13).sin()
        }))
    }

    fn dots(p: &PackedLayer, live: &[u32], x: &[Q6_10]) -> Vec<Accumulator> {
        let mut lanes = Lanes::default();
        lanes.ensure(TILE_ROWS * p.block, TILE_ROWS);
        let mut out = vec![Accumulator::new(); p.rows()];
        for t in 0..p.tiles() {
            let span = p.tile_rows(t);
            let rows: Vec<u32> = (span.start as u32..span.end as u32).collect();
            p.dot_tile(t, &rows, live, x, &mut lanes, |i, acc| out[i] = acc);
        }
        out
    }

    #[test]
    fn lane_capacity_is_tight() {
        for m in [1u32, 251, 514, 32767, 32768] {
            let k = lane_capacity(m) as i64;
            let product = i64::from(m) << 15;
            assert!(k >= 1, "m = {m}");
            assert!(
                k * product <= i64::from(i32::MAX),
                "m = {m}: K = {k} overflows"
            );
            assert!(
                i64::from(i32::MAX) < (k + 1) * product,
                "m = {m}: K = {k} not tight"
            );
        }
        assert_eq!(lane_capacity(251), 261);
        assert_eq!(lane_capacity(32768), 1);
        assert_eq!(lane_capacity(32767), 2);
        assert_eq!(lane_capacity(16384), 3);
        assert_eq!(lane_capacity(10923), 5);
        // An all-zero layer never grows a lane.
        assert_eq!(lane_capacity(0), usize::MAX);
    }

    #[test]
    fn pack_records_the_largest_weight_and_zero_layers_never_flush() {
        let zero = FixedMatrix::from_float(&Matrix::zeros(3, 5));
        assert_eq!(PackedLayer::pack(&zero, 2).k, usize::MAX);
        let mut w = Matrix::zeros(2, 3);
        w.set(1, 2, -32.0); // i16::MIN
        let p = PackedLayer::pack(&FixedMatrix::from_float(&w), 2);
        assert_eq!(p.k, 1);
    }

    #[test]
    fn pack_pads_rows_to_whole_blocks() {
        let m = mat(3, 10);
        let p = PackedLayer::pack(&m, 4);
        assert_eq!(p.blocks(), 3);
        assert_eq!(p.padded(), 12);
        for i in 0..3 {
            for j in 0..12 {
                let got = p.data[(j / 4 * 3 + i) * 4 + j % 4];
                let want = if j < 10 { m.row(i)[j] } else { Q6_10::ZERO };
                assert_eq!(got, want, "({i}, {j})");
            }
        }
    }

    #[test]
    fn tiles_hold_their_rows_column_block_major() {
        let rows = TILE_ROWS + 6;
        let m = mat(rows, 10);
        let p = PackedLayer::pack(&m, 4);
        assert_eq!(p.tiles(), 2);
        assert_eq!(p.tile_rows(1), TILE_ROWS..rows);
        // Row TILE_ROWS + 2 is row 2 of the 6-row second tile.
        let base = TILE_ROWS * 12 + 2 * 4;
        assert_eq!(p.data[base + 6 * 4 + 1], m.row(TILE_ROWS + 2)[5]);
    }

    #[test]
    fn block_dot_matches_golden_row_dot() {
        let m = mat(TILE_ROWS + 5, 23);
        // Sparse activations with zeros scattered through live blocks.
        let x: Vec<Q6_10> = (0..23)
            .map(|j| {
                if j % 3 == 0 {
                    Q6_10::ZERO
                } else {
                    Q6_10::from_f32((j as f32 * 0.21).cos())
                }
            })
            .collect();
        for block in [1, 3, 8] {
            let p = PackedLayer::pack(&m, block);
            let mut padded = x.clone();
            padded.resize(p.padded(), Q6_10::ZERO);
            let all: Vec<u32> = (0..p.blocks() as u32).collect();
            for (i, acc) in dots(&p, &all, &padded).into_iter().enumerate() {
                assert_eq!(acc, m.row_dot(i, &x), "row {i}, block {block}");
            }
        }
    }

    #[test]
    fn dead_blocks_are_never_touched_yet_results_match() {
        let m = mat(4, 32);
        let p = PackedLayer::pack(&m, 8);
        // Only block 2 live.
        let mut x = vec![Q6_10::ZERO; 32];
        x[17] = Q6_10::from_f32(0.75);
        x[22] = Q6_10::from_f32(-0.5);
        for (i, acc) in dots(&p, &[2], &x).into_iter().enumerate() {
            assert_eq!(acc, m.row_dot(i, &x), "row {i}");
        }
    }

    #[test]
    fn lanes_flush_every_k_blocks_under_full_scale_operands() {
        // |w| = |a| = 2¹⁵ everywhere: K = 1, so every block flushes and a
        // 64-column row sums 64 · 2³⁰, far past i32.
        let w = FixedMatrix::from_float(&Matrix::from_fn(2, 64, |_, _| -32.0));
        let x = vec![Q6_10::MIN; 64];
        let p = PackedLayer::pack(&w, 8);
        assert_eq!(p.k, 1);
        let all: Vec<u32> = (0..8).collect();
        for (i, acc) in dots(&p, &all, &x).into_iter().enumerate() {
            assert_eq!(acc.raw(), 64 << 30, "row {i}");
            assert_eq!(acc, w.row_dot(i, &x), "row {i}");
        }
    }

    #[test]
    fn pair_lanes_hold_two_products_at_the_bound() {
        // |w| = 32767 gives K = 2: each lane takes one block's pair,
        // (2³⁰ − 2¹⁵) · 2 = 2³¹ − 2¹⁶, and must flush after every block of
        // the four. Debug builds overflow-check every lane add.
        let w = FixedMatrix::from_float(&Matrix::from_fn(3, 32, |_, _| -32767.0 / 1024.0));
        let x = vec![Q6_10::MIN; 32];
        let p = PackedLayer::pack(&w, 8);
        assert_eq!((p.k, p.pairs()), (2, true));
        let pair = 2 * (-32767 * i32::from(i16::MIN));
        assert_eq!(i64::from(pair), (1 << 31) - (1 << 16));
        for (i, acc) in dots(&p, &[0, 1, 2, 3], &x).into_iter().enumerate() {
            assert_eq!(acc.raw(), 16 * i64::from(pair), "row {i}");
            assert_eq!(acc, w.row_dot(i, &x), "row {i}");
        }
    }

    #[test]
    fn a_full_scale_weight_takes_the_one_product_pass() {
        // One −32.0 (i16::MIN) makes K = 1: a pair of 2³⁰ products would
        // wrap an i32, so the layer keeps one product per lane.
        let mut m = Matrix::from_fn(5, 24, |i, j| ((i * 24 + j) as f32 * 0.13).sin());
        m.set(2, 13, -32.0);
        let w = FixedMatrix::from_float(&m);
        let x = vec![Q6_10::MIN; 24];
        let p = PackedLayer::pack(&w, 8);
        assert_eq!((p.k, p.pairs()), (1, false));
        for (i, acc) in dots(&p, &[0, 1, 2], &x).into_iter().enumerate() {
            assert_eq!(acc, w.row_dot(i, &x), "row {i}");
        }
    }

    #[test]
    fn u_verdict_matches_golden_u_phase() {
        use sparsenn_model::Predictor;
        let u = Matrix::from_fn(6, 3, |i, j| ((i + j) as f32 * 0.3).sin());
        let v = Matrix::from_fn(3, 8, |i, j| ((i * 8 + j) as f32 * 0.17).cos());
        let fp = FixedPredictor::from_float(&Predictor::new(u, v));
        let pp = PackedPredictor::pack(&fp, 4);
        let vr: Vec<Q6_10> = [0.5f32, 0.0, -0.25]
            .iter()
            .map(|&x| Q6_10::from_f32(x))
            .collect();
        let mut lanes = Lanes::default();
        lanes.ensure(6, 6);
        let mut mask = vec![false; 6];
        pp.verdicts(&vr, &mut lanes, &mut mask);
        assert_eq!(mask, fp.u_phase(&vr));
        assert_eq!(pp.rank(), 3);
        assert_eq!(pp.u_rows, 6);
    }
}
