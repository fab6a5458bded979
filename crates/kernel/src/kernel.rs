//! The two-stage kernel: prescan → broadcast lane pass, over a whole
//! quantized network.

use crate::packed::{Lanes, PackedLayer, PackedPredictor, TILE_ROWS};
use crate::prescan::BlockIndex;
use sparsenn_model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_numeric::{argmax, Q6_10};

/// Which compute stage to run. Both produce bit-identical outputs; they
/// differ only in wall-clock cost — [`Dense`](Strategy::Dense) is the
/// baseline [`Prescan`](Strategy::Prescan)'s measured speedup is reported
/// against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Two-stage: prescan builds the nonzero-block index, compute touches
    /// only live blocks and predictor-active rows.
    #[default]
    Prescan,
    /// The same broadcast pass over every column block and every row
    /// (predictor verdicts still computed; bypassed rows zeroed after the
    /// fact), on the same packed layout with the same lanes.
    Dense,
}

/// Functional activity of one kernel layer pass — what the compute stage
/// actually touched. Deterministic (a pure function of the input pattern
/// and strategy), so records built from it are reproducible run to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerStats {
    /// Output rows of the layer.
    pub rows: u64,
    /// Unpadded input columns.
    pub cols: u64,
    /// Nonzero input activations (prescan's exact count).
    pub nnz_in: u64,
    /// Live column blocks the prescan found.
    pub live_blocks: u64,
    /// Total column blocks.
    pub total_blocks: u64,
    /// Rows the W stage computed (predictor-active, or all).
    pub active_rows: u64,
    /// 16-bit W words the compute stage read.
    pub w_words: u64,
    /// 16-bit V words read (0 for unpredicted layers).
    pub v_words: u64,
    /// 16-bit U words read (0 for unpredicted layers).
    pub u_words: u64,
    /// Multiply-accumulates executed.
    pub macs: u64,
}

/// One layer of a kernel forward pass.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelLayer {
    /// Output activations (bit-exact vs the golden model).
    pub output: Vec<Q6_10>,
    /// Predictor mask when the layer ran predicted (`true` = computed).
    pub mask: Option<Vec<bool>>,
    /// What the pass touched.
    pub stats: LayerStats,
}

/// Result of one kernel forward pass.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelRun {
    /// Per-layer results, input side first.
    pub layers: Vec<KernelLayer>,
}

impl KernelRun {
    /// Final-layer output activations.
    pub fn output(&self) -> &[Q6_10] {
        &self.layers.last().expect("at least one layer").output
    }

    /// Argmax classification of the final layer.
    pub fn classify(&self) -> usize {
        argmax(self.output())
    }
}

/// Result of one batched kernel pass: per-sample runs (each bit-identical
/// to running that sample alone) plus the batch's W-traffic books.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelBatchRun {
    /// Per-sample forward passes.
    pub runs: Vec<KernelRun>,
    /// W words B serial passes would read (sum of per-sample `w_words`).
    pub w_words_serial: u64,
    /// W words the batched pass reads: each row panel is streamed once
    /// per batch, over the union of the active samples' live blocks
    /// (≤ serial).
    pub w_words_batch: u64,
}

impl KernelBatchRun {
    /// W-traffic amortization factor: serial over batch (≥ 1).
    pub fn w_amortization(&self) -> f64 {
        if self.w_words_batch == 0 {
            return 1.0;
        }
        self.w_words_serial as f64 / self.w_words_batch as f64
    }
}

/// One sample's working memory: padded ping-pong activation buffers, its
/// prescan index, predictor intermediates and the current layer's stats.
#[derive(Clone, Debug, Default)]
struct Sample {
    act: Vec<Q6_10>,
    next: Vec<Q6_10>,
    index: BlockIndex,
    v: Vec<Q6_10>,
    mask: Vec<bool>,
    /// Predictor-active rows, ascending.
    active: Vec<u32>,
    stats: LayerStats,
}

/// Preallocated working memory for [`SparseKernel`] runs: one set of
/// per-sample buffers per batch slot, plus the lanes every pass
/// accumulates in. Build once with [`SparseKernel::scratch`]; every
/// subsequent run allocates only its output vectors.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    samples: Vec<Sample>,
    lanes: Lanes,
    union_words: Vec<u64>,
}

impl Scratch {
    fn ensure(&mut self, k: &SparseKernel, b: usize) {
        if self.samples.len() < b {
            self.samples.resize_with(b, Sample::default);
        }
        for smp in &mut self.samples[..b] {
            grow(&mut smp.act, k.buf_len, Q6_10::ZERO);
            grow(&mut smp.next, k.buf_len, Q6_10::ZERO);
            grow(&mut smp.v, k.max_rank, Q6_10::ZERO);
            grow(&mut smp.mask, k.max_rows, false);
            smp.active.clear();
            smp.active.reserve(k.max_rows);
        }
        // One row tile of lanes for the broadcast pass, one lane per row
        // for U's axpys.
        self.lanes.ensure(
            (TILE_ROWS * k.block).max(k.max_rows),
            TILE_ROWS.max(k.max_rows),
        );
        grow(&mut self.union_words, k.max_words, 0);
    }
}

fn grow<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() < len {
        v.resize(len, fill);
    }
}

/// A quantized network repacked for the two-stage kernel: one
/// column-block-major W per weight layer, one V/U pair per predicted
/// hidden layer. Packing happens once here; runs only read.
#[derive(Clone, Debug)]
pub struct SparseKernel {
    block: usize,
    layers: Vec<PackedLayer>,
    preds: Vec<Option<PackedPredictor>>,
    /// `0, 1, 2, …` as far as the widest layer: the row list of a pass
    /// over every row and the block list of a pass over every block.
    ids: Vec<u32>,
    buf_len: usize,
    max_rank: usize,
    max_rows: usize,
    max_words: usize,
}

impl SparseKernel {
    /// Repacks a quantized network with the given column-block size.
    ///
    /// # Panics
    ///
    /// Panics if the network has no layers or `block == 0`.
    pub fn pack(net: &FixedNetwork, block: usize) -> Self {
        assert!(net.num_layers() > 0, "network has no layers");
        assert!(block > 0, "block size must be positive");
        let n = net.num_layers();
        let layers: Vec<PackedLayer> = net
            .layers()
            .iter()
            .map(|w| PackedLayer::pack(w, block))
            .collect();
        let preds: Vec<Option<PackedPredictor>> = (0..n)
            .map(|l| {
                (l + 1 < n)
                    .then(|| net.predictors().get(l))
                    .flatten()
                    .map(|p| PackedPredictor::pack(p, block))
            })
            .collect();
        let max_of = |f: fn(&PackedLayer) -> usize| layers.iter().map(f).max().unwrap_or(0);
        let (max_padded, max_rows, max_blocks) = (
            max_of(PackedLayer::padded),
            max_of(PackedLayer::rows),
            max_of(PackedLayer::blocks),
        );
        let max_rank = preds
            .iter()
            .flatten()
            .map(PackedPredictor::rank)
            .max()
            .unwrap_or(0);
        Self {
            block,
            layers,
            preds,
            ids: (0..max_rows.max(max_rank).max(max_blocks) as u32).collect(),
            buf_len: max_padded.max(max_rows),
            max_rank,
            max_rows,
            max_words: max_blocks.div_ceil(64),
        }
    }

    /// The column-block size every layer was packed with.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Number of weight layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input width the kernel expects.
    pub fn input_width(&self) -> usize {
        self.layers[0].cols()
    }

    /// A scratch arena sized for this kernel.
    pub fn scratch(&self) -> Scratch {
        let mut s = Scratch::default();
        s.ensure(self, 1);
        s
    }

    /// Runs one quantized input through the network.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the first layer's width.
    pub fn run(
        &self,
        input: &[Q6_10],
        mode: UvMode,
        strategy: Strategy,
        s: &mut Scratch,
    ) -> KernelRun {
        let mut run = [self.empty_run()];
        self.forward(std::iter::once(input), mode, strategy, s, &mut run);
        let [run] = run;
        run
    }

    /// Runs a batch of quantized inputs in one pass: prescan and predictor
    /// per sample, then each layer's W stage runs **row tile → sample →
    /// live block**, so every sample in the batch reuses one tile of W
    /// while it is in cache, applying its own live-block index and
    /// predictor verdicts — per-sample results stay bit-identical to
    /// serial [`run`](Self::run)s.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or any input width mismatches.
    pub fn run_batch(
        &self,
        inputs: &[Vec<Q6_10>],
        mode: UvMode,
        strategy: Strategy,
        s: &mut Scratch,
    ) -> KernelBatchRun {
        assert!(!inputs.is_empty(), "batch has no samples");
        let mut runs: Vec<KernelRun> = inputs.iter().map(|_| self.empty_run()).collect();
        let w_words_batch = self.forward(
            inputs.iter().map(Vec::as_slice),
            mode,
            strategy,
            s,
            &mut runs,
        );
        let w_words_serial = runs
            .iter()
            .flat_map(|r| &r.layers)
            .map(|l| l.stats.w_words)
            .sum();
        KernelBatchRun {
            runs,
            w_words_serial,
            w_words_batch,
        }
    }

    /// Whether layer `l` runs the predictor in the given mode.
    fn predicted(&self, l: usize, mode: UvMode) -> bool {
        mode == UvMode::On && self.preds[l].is_some()
    }

    fn empty_run(&self) -> KernelRun {
        KernelRun {
            layers: Vec::with_capacity(self.layers.len()),
        }
    }

    /// The forward pass behind [`run`](Self::run) and
    /// [`run_batch`](Self::run_batch): fills one run per input and
    /// returns the W words the batch read (each row's tile once, over the
    /// union of its active samples' live blocks).
    fn forward<'x>(
        &self,
        inputs: impl ExactSizeIterator<Item = &'x [Q6_10]>,
        mode: UvMode,
        strategy: Strategy,
        s: &mut Scratch,
        runs: &mut [KernelRun],
    ) -> u64 {
        let b = inputs.len();
        s.ensure(self, b);
        let samples = &mut s.samples[..b];
        for (x, smp) in inputs.zip(samples.iter_mut()) {
            assert_eq!(x.len(), self.input_width(), "input width mismatch");
            smp.act[..x.len()].copy_from_slice(x);
            smp.act[x.len()..self.layers[0].padded()].fill(Q6_10::ZERO);
        }
        let mut w_batch = 0u64;
        for (l, lay) in self.layers.iter().enumerate() {
            self.layer_pass(l, mode, strategy, samples, &mut s.lanes);
            // One sample reads each active row's live blocks once, which
            // is exactly its own W book.
            w_batch += match samples {
                [one] => one.stats.w_words,
                _ => self.batch_w_words(l, mode, strategy, samples, &mut s.union_words),
            };
            let rows = lay.rows();
            let predicted = self.predicted(l, mode);
            for (smp, run) in samples.iter_mut().zip(runs.iter_mut()) {
                run.layers.push(KernelLayer {
                    output: smp.next[..rows].to_vec(),
                    mask: predicted.then(|| smp.mask[..rows].to_vec()),
                    stats: smp.stats,
                });
                // Zero the padding tail the next layer's prescan will scan.
                if let Some(nx) = self.layers.get(l + 1) {
                    smp.next[rows..nx.padded()].fill(Q6_10::ZERO);
                }
                std::mem::swap(&mut smp.act, &mut smp.next);
            }
        }
        w_batch
    }

    /// One layer for every sample: prescan + predictor per sample, then the
    /// W stage tile by tile. Activations are read from `act[..padded]`,
    /// outputs written to `next[..rows]`, the mask to `mask[..rows]` when
    /// predicted, and what was touched to `stats`.
    fn layer_pass(
        &self,
        l: usize,
        mode: UvMode,
        strategy: Strategy,
        samples: &mut [Sample],
        lanes: &mut Lanes,
    ) {
        let lay = &self.layers[l];
        let (rows, cols) = (lay.rows(), lay.cols());
        let hidden = l + 1 < self.layers.len();
        let pred = self.preds[l].as_ref().filter(|_| mode == UvMode::On);
        let every_block = &self.ids[..lay.blocks()];
        // Stage 1 (the dense baseline pays a plain nnz count instead — it
        // reads the input either way) and the predictor: V·a quantized per
        // rank row, then the sign of U·(V·a) per output row.
        for smp in samples.iter_mut() {
            let Sample {
                act,
                index,
                v,
                mask,
                active,
                stats,
                ..
            } = smp;
            let act = &act[..lay.padded()];
            *stats = LayerStats {
                rows: rows as u64,
                cols: cols as u64,
                total_blocks: lay.blocks() as u64,
                ..LayerStats::default()
            };
            stats.nnz_in = match strategy {
                Strategy::Prescan => {
                    index.prescan(act, self.block);
                    index.nnz()
                }
                Strategy::Dense => act[..cols].iter().filter(|v| !v.is_zero()).count() as u64,
            };
            let live = live_blocks(strategy, index, every_block);
            stats.live_blocks = live.len() as u64;
            active.clear();
            if let Some(p) = pred {
                let r = p.rank();
                for t in 0..p.v.tiles() {
                    let span = p.v.tile_rows(t);
                    p.v.dot_tile(t, &self.ids[span], live, act, lanes, |t, acc| {
                        v[t] = acc.to_fixed();
                    });
                }
                p.verdicts(&v[..r], lanes, &mut mask[..rows]);
                active.extend((0..rows as u32).filter(|&i| mask[i as usize]));
                stats.v_words = (r * row_words(strategy, stats, self.block)) as u64;
                stats.u_words = (rows * r) as u64;
            }
        }
        // Stage 2: the W pass, row tile → sample → live block.
        for t in 0..lay.tiles() {
            let span = lay.tile_rows(t);
            for smp in samples.iter_mut() {
                let Sample {
                    act,
                    next,
                    index,
                    active,
                    ..
                } = smp;
                let pass_rows = match (pred, strategy) {
                    (Some(_), Strategy::Prescan) => {
                        let at = |r: usize| active.partition_point(|&i| (i as usize) < r);
                        &active[at(span.start)..at(span.end)]
                    }
                    _ => &self.ids[span.clone()],
                };
                let live = live_blocks(strategy, index, every_block);
                lay.dot_tile(t, pass_rows, live, act, lanes, |i, acc| {
                    let q: Q6_10 = acc.to_fixed();
                    next[i] = if hidden { q.relu() } else { q };
                });
            }
        }
        for smp in samples.iter_mut() {
            let st = &mut smp.stats;
            st.active_rows = if pred.is_some() {
                // Bypassed rows read as zero; the prescan pass never wrote
                // them, the dense one computed them at full cost.
                for (o, _) in smp.next[..rows]
                    .iter_mut()
                    .zip(&smp.mask[..rows])
                    .filter(|(_, &m)| !m)
                {
                    *o = Q6_10::ZERO;
                }
                smp.active.len() as u64
            } else {
                rows as u64
            };
            st.w_words = match strategy {
                Strategy::Prescan => st.active_rows * row_words(strategy, st, self.block) as u64,
                Strategy::Dense => (rows * cols) as u64,
            };
            st.macs = st.w_words + st.v_words + st.u_words;
        }
    }

    /// W words a batched prescan pass reads for layer `l`: each row's
    /// tile once per batch, over the union of the live blocks of the
    /// samples that keep the row. Dense reads every row once.
    fn batch_w_words(
        &self,
        l: usize,
        mode: UvMode,
        strategy: Strategy,
        samples: &[Sample],
        union: &mut [u64],
    ) -> u64 {
        let lay = &self.layers[l];
        if strategy == Strategy::Dense {
            return (lay.rows() * lay.cols()) as u64;
        }
        let predicted = self.predicted(l, mode);
        let union = &mut union[..lay.blocks().div_ceil(64)];
        let mut blocks = 0u64;
        for i in 0..lay.rows() {
            union.fill(0);
            for smp in samples.iter().filter(|smp| !predicted || smp.mask[i]) {
                for (u, w) in union.iter_mut().zip(smp.index.words()) {
                    *u |= *w;
                }
            }
            blocks += union.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        }
        blocks * self.block as u64
    }
}

/// The blocks a pass reads: the prescan's live list, or every block for
/// the dense baseline.
fn live_blocks<'a>(strategy: Strategy, index: &'a BlockIndex, every: &'a [u32]) -> &'a [u32] {
    match strategy {
        Strategy::Prescan => index.live(),
        Strategy::Dense => every,
    }
}

/// Activation words one row's dot product reads: the live blocks in
/// full, or every unpadded column for the dense baseline.
fn row_words(strategy: Strategy, st: &LayerStats, block: usize) -> usize {
    match strategy {
        Strategy::Prescan => st.live_blocks as usize * block,
        Strategy::Dense => st.cols as usize,
    }
}
