//! Network-on-chip configuration.

/// Number of levels of a radix-`radix` tree over `nodes` leaves — the
/// smallest `L` with `radix^L >= nodes` (0 for a single node). Shared by
/// the PE-level H-tree ([`NocConfig::levels`]) and the chip-level
/// interconnect of `sparsenn-partition`, which lifts the same tree shape
/// one level up. Unlike [`NocConfig::levels`] it accepts any node count.
///
/// # Panics
///
/// Panics if `radix < 2` or `nodes == 0`.
pub fn tree_levels(nodes: usize, radix: usize) -> usize {
    assert!(radix >= 2, "tree radix must be at least 2");
    assert!(nodes > 0, "a tree needs at least one node");
    let mut n = 1usize;
    let mut levels = 0usize;
    while n < nodes {
        n = n.saturating_mul(radix);
        levels += 1;
    }
    levels
}

/// Topology and flow-control parameters of the H-tree.
///
/// Defaults reproduce the paper's Table II machine: 64 PEs, radix-4 tree
/// (16 leaf + 4 internal + 1 root router), credit-based packet buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NocConfig {
    /// Number of processing elements (leaves of the tree).
    pub num_pes: usize,
    /// Router radix (children per router).
    pub radix: usize,
    /// Capacity of each router input buffer, in flits.
    pub queue_capacity: usize,
    /// Link/pipeline latency per hop, in cycles (the RC/SA/ST/LT stages
    /// sustain one flit per cycle but add this much latency).
    pub hop_latency: u64,
}

impl NocConfig {
    /// Number of tree levels (routers between PE and root, inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `num_pes` is not a power of `radix`.
    pub fn levels(&self) -> usize {
        let levels = tree_levels(self.num_pes, self.radix);
        assert_eq!(
            self.radix.pow(levels as u32),
            self.num_pes,
            "num_pes must be a power of radix"
        );
        levels
    }

    /// Routers at tree level `l` (level 0 = leaves).
    pub fn routers_at_level(&self, l: usize) -> usize {
        self.num_pes / self.radix.pow(l as u32 + 1)
    }

    /// The tree level of every router, leaves first and level by level,
    /// so the root is the last router.
    pub(crate) fn router_levels(&self) -> Vec<usize> {
        (0..self.levels())
            .flat_map(|l| std::iter::repeat_n(l, self.routers_at_level(l)))
            .collect()
    }

    /// One-way latency of the downward broadcast pipeline, root to PE.
    pub fn broadcast_latency(&self) -> u64 {
        self.hop_latency * self.levels() as u64
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        Self {
            num_pes: 64,
            radix: 4,
            queue_capacity: 4,
            hop_latency: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_machine() {
        let c = NocConfig::default();
        assert_eq!(c.num_pes, 64);
        assert_eq!(c.levels(), 3);
        assert_eq!(c.routers_at_level(0), 16); // leaf
        assert_eq!(c.routers_at_level(1), 4); // internal
        assert_eq!(c.routers_at_level(2), 1); // root
    }

    #[test]
    fn small_tree_levels() {
        let c = NocConfig {
            num_pes: 16,
            ..NocConfig::default()
        };
        assert_eq!(c.levels(), 2);
        assert_eq!(c.broadcast_latency(), 2);
    }

    #[test]
    fn tree_levels_rounds_up_for_non_powers() {
        assert_eq!(tree_levels(1, 2), 0);
        assert_eq!(tree_levels(2, 2), 1);
        assert_eq!(tree_levels(3, 2), 2);
        assert_eq!(tree_levels(8, 2), 3);
        assert_eq!(tree_levels(64, 4), 3);
        assert_eq!(tree_levels(5, 4), 2);
    }

    #[test]
    #[should_panic(expected = "power of radix")]
    fn non_power_panics() {
        NocConfig {
            num_pes: 48,
            ..NocConfig::default()
        }
        .levels();
    }
}
