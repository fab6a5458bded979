//! Stage 1: the prescan — a nonzero-block index over an activation vector.

use sparsenn_numeric::Q6_10;

/// The nonzero-block index one prescan pass produces: a bitmask word per
/// 64 blocks (bit set = block holds at least one nonzero activation) and
/// the ascending live-block list derived from the words by a
/// trailing-zeros scan. The compute stage broadcasts each live block to
/// every row it computes.
///
/// Reused across layers and samples: [`prescan`](Self::prescan) clears and
/// refills in place, so a warmed index never allocates.
#[derive(Clone, Debug, Default)]
pub struct BlockIndex {
    block: usize,
    blocks: usize,
    words: Vec<u64>,
    live: Vec<u32>,
    nnz: u64,
}

impl BlockIndex {
    /// An empty index (fills on first [`prescan`](Self::prescan)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Walks `x` once, recording which fixed-size column blocks hold at
    /// least one nonzero activation (and the exact nonzero count, for the
    /// activity book). `x.len()` need not be a multiple of `block`; the
    /// final partial chunk forms the last block.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    pub fn prescan(&mut self, x: &[Q6_10], block: usize) {
        assert!(block > 0, "block size must be positive");
        let blocks = x.len().div_ceil(block);
        self.block = block;
        self.blocks = blocks;
        self.words.clear();
        self.words.resize(blocks.div_ceil(64), 0);
        self.nnz = 0;
        for (b, chunk) in x.chunks(block).enumerate() {
            // Branchless count so the scan vectorizes — the block verdict
            // falls out of it for free.
            let nz = chunk.iter().filter(|v| !v.is_zero()).count();
            if nz > 0 {
                self.words[b / 64] |= 1u64 << (b % 64);
            }
            self.nnz += nz as u64;
        }
        self.live.clear();
        for (wi, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                self.live
                    .push((wi * 64 + bits.trailing_zeros() as usize) as u32);
                bits &= bits - 1;
            }
        }
    }

    /// The block size this index was built with.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Total blocks the scanned vector spans.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// The bitmask words (bit `b % 64` of word `b / 64` = block `b` live).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Live block ids, ascending.
    pub fn live(&self) -> &[u32] {
        &self.live
    }

    /// Whether block `b` holds a nonzero.
    pub fn is_live(&self, b: usize) -> bool {
        b < self.blocks && self.words[b / 64] & (1u64 << (b % 64)) != 0
    }

    /// Exact nonzero count of the scanned vector.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// Activation words the compute stage will touch per row:
    /// `live blocks × block size`.
    pub fn live_cols(&self) -> usize {
        self.live.len() * self.block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(vals: &[f32]) -> Vec<Q6_10> {
        vals.iter().map(|&x| Q6_10::from_f32(x)).collect()
    }

    #[test]
    fn live_blocks_are_exactly_those_with_nonzeros() {
        // 10 elements, block 4 → blocks {0,1,2}; only block 1 has data.
        let x = v(&[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.5, 0.0, 0.0, 0.0]);
        let mut idx = BlockIndex::new();
        idx.prescan(&x, 4);
        assert_eq!(idx.blocks(), 3);
        assert_eq!(idx.live(), &[1]);
        assert!(!idx.is_live(0) && idx.is_live(1) && !idx.is_live(2));
        assert_eq!(idx.nnz(), 2);
        assert_eq!(idx.live_cols(), 4);
    }

    #[test]
    fn all_zero_vector_has_no_live_blocks() {
        let x = vec![Q6_10::ZERO; 100];
        let mut idx = BlockIndex::new();
        idx.prescan(&x, 16);
        assert!(idx.live().is_empty());
        assert_eq!(idx.nnz(), 0);
        assert!(idx.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn dense_vector_lights_every_block() {
        let x = v(&[1.0; 33]);
        let mut idx = BlockIndex::new();
        idx.prescan(&x, 8);
        assert_eq!(idx.blocks(), 5); // ceil(33/8)
        assert_eq!(idx.live(), &[0, 1, 2, 3, 4]);
        assert_eq!(idx.nnz(), 33);
    }

    #[test]
    fn reuse_clears_previous_state() {
        let mut idx = BlockIndex::new();
        idx.prescan(&v(&[1.0; 64]), 4);
        assert_eq!(idx.live().len(), 16);
        idx.prescan(&[Q6_10::ZERO; 8], 4);
        assert!(idx.live().is_empty());
        assert_eq!(idx.blocks(), 2);
    }

    #[test]
    fn more_than_64_blocks_spans_words() {
        // 520 elements at block 4 → 130 blocks → 3 mask words.
        let mut x = vec![Q6_10::ZERO; 520];
        x[0] = Q6_10::from_f32(1.0); // block 0 (word 0)
        x[517] = Q6_10::from_f32(1.0); // block 129 (word 2)
        let mut idx = BlockIndex::new();
        idx.prescan(&x, 4);
        assert_eq!(idx.words().len(), 3);
        assert_eq!(idx.live(), &[0, 129]);
    }
}
