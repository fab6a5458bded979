//! The partial-sum reduction tree (V phase, paper Fig. 4).
//!
//! During the V computation the columns of `V` live with the PEs, so each
//! PE produces a *partial sum* for every predictor row. The H-tree routers
//! carry an extra ACC pipeline stage (Fig. 4(c): RC → SA → ST → ACC → LT):
//! a partial sum entering a router is added into that router's accumulation
//! register for its row; the flit carrying the **last** missing contribution
//! continues up the tree with the merged value, the others are absorbed.
//! The root therefore emits each row's complete 64-PE sum exactly once.

use crate::config::NocConfig;
use crate::link::{Keyed, Ports};
use crate::stats::NocStats;
use std::collections::VecDeque;

/// A partial-sum flit: predictor row and the running Q(2·FRAC) value.
type SumFlit = (u32, i64);

/// Routers serve the smallest row first (a deterministic service order;
/// any fair policy works because addition commutes).
impl Keyed for SumFlit {
    fn key(&self) -> u32 {
        self.0
    }
}

/// Cycle-level model of the accumulating reduction through the H-tree.
///
/// Construct it with the set of *participating* PEs (those holding at least
/// one nonzero input activation — PEs with nothing to contribute stay
/// silent, and the expected-contribution counts adjust so rows still
/// complete).
///
/// A tick visits only the routers that may merge: those a flit landed in,
/// those whose parent port returned a credit, and those that merged in the
/// last tick.
#[derive(Clone, Debug)]
pub struct ReduceTree {
    cfg: NocConfig,
    /// Tree level of every router, leaves first; the root is the last
    /// router. Router `r` below the root feeds port `r + num_pes`.
    level: Vec<usize>,
    ports: Ports<SumFlit>,
    /// Per level: routers to visit this tick.
    wake: Vec<Vec<usize>>,
    /// Per router: whether it is in its level's `wake` list.
    woken: Vec<bool>,
    /// Routers that merged this tick.
    moved: Vec<usize>,
    rows: usize,
    /// Per router and row: the accumulation register.
    acc: Vec<i64>,
    /// Per router and row: contributions merged so far.
    cnt: Vec<u32>,
    /// Per router: contributions expected per row (ports with
    /// participating subtrees).
    expected: Vec<u32>,
    /// Completed row sums waiting at the root (emitted one per cycle).
    root_out: VecDeque<SumFlit>,
    cycle: u64,
    stats: NocStats,
    expected_total: u64,
    emitted: u64,
    /// Ports a flit landed in this tick.
    landed: Vec<usize>,
}

impl ReduceTree {
    /// Builds a tree for `rows` predictor rows with the given PE
    /// participation mask.
    ///
    /// # Panics
    ///
    /// Panics if `participants.len() != cfg.num_pes`.
    pub fn new(cfg: &NocConfig, rows: usize, participants: &[bool]) -> Self {
        assert_eq!(
            participants.len(),
            cfg.num_pes,
            "one participation flag per PE"
        );
        let level = cfg.router_levels();
        let levels = level[level.len() - 1] + 1;
        let routers = level.len();
        // A subtree contributes if any of its PEs participate.
        let mut contributing: Vec<bool> = participants.to_vec();
        let mut expected = Vec::with_capacity(routers);
        for _ in 0..levels {
            let next: Vec<bool> = contributing
                .chunks(cfg.radix)
                .map(|children| {
                    let n = children.iter().filter(|&&c| c).count() as u32;
                    expected.push(n);
                    n > 0
                })
                .collect();
            contributing = next;
        }
        let participating_rows = if participants.iter().any(|&p| p) {
            rows as u64
        } else {
            0
        };
        Self {
            cfg: *cfg,
            ports: Ports::new(routers, cfg.radix, cfg.queue_capacity, cfg.hop_latency),
            level,
            wake: vec![Vec::new(); levels],
            woken: vec![false; routers],
            moved: Vec::new(),
            rows,
            acc: vec![0; routers * rows],
            cnt: vec![0; routers * rows],
            expected,
            root_out: VecDeque::new(),
            cycle: 0,
            stats: NocStats::default(),
            expected_total: participating_rows,
            emitted: 0,
            landed: Vec::new(),
        }
    }

    /// Injects a partial sum from PE `pe` for `row`. Returns `false` when
    /// the leaf router has no credit (the PE must retry next cycle).
    ///
    /// # Panics
    ///
    /// Panics if `pe` or `row` is out of range.
    pub fn try_inject(&mut self, pe: usize, row: u32, partial: i64) -> bool {
        assert!(pe < self.cfg.num_pes, "PE index out of range");
        assert!((row as usize) < self.rows, "row out of range");
        if self.ports.has_credit(pe) {
            self.ports.send(self.cycle, pe, (row, partial));
            true
        } else {
            false
        }
    }

    /// Queues router `r` for a visit this tick.
    fn wake(&mut self, r: usize) {
        if !std::mem::replace(&mut self.woken[r], true) {
            self.wake[self.level[r]].push(r);
        }
    }

    /// Advances one cycle; returns a completed `(row, total)` if the root
    /// finished one.
    pub fn tick(&mut self) -> Option<SumFlit> {
        self.cycle += 1;
        self.stats.cycles += 1;
        let cycle = self.cycle;
        let n = self.cfg.num_pes;
        let root = self.level.len() - 1;

        self.ports.land(cycle, &mut self.landed);
        for i in 0..self.landed.len() {
            self.wake(self.landed[i] / self.cfg.radix);
        }
        // Every router holding a flit merges it or stalls for a credit.
        let waiting = self.ports.occupied();
        let mut merged = 0;

        // Root-side first so credits free up for the levels below. A
        // flit that completes its row below the root needs a credit at
        // the parent; every other merges.
        for l in (0..self.wake.len()).rev() {
            let mut routers = std::mem::take(&mut self.wake[l]);
            for &r in &routers {
                self.woken[r] = false;
                let Some(port) = self.ports.winner(r) else {
                    continue;
                };
                let row = self.ports.head_key(port).expect("a winner has a head");
                let slot = r * self.rows + row as usize;
                let completes = self.cnt[slot] + 1 == self.expected[r];
                if completes && r != root && !self.ports.has_credit(r + n) {
                    continue;
                }
                let (_, val) = self.ports.pop(port);
                if let Some(child) = port.checked_sub(n) {
                    self.wake(child);
                }
                self.acc[slot] += val;
                self.cnt[slot] += 1;
                merged += 1;
                if completes {
                    let total = self.acc[slot];
                    if r == root {
                        self.root_out.push_back((row, total));
                    } else {
                        self.ports.send(cycle, r + n, (row, total));
                    }
                }
                self.moved.push(r);
            }
            routers.clear();
            self.wake[l] = routers;
        }
        self.stats.acc_merges += merged as u64;
        self.stats.hops += merged as u64;
        self.stats.credit_stalls += (waiting - merged) as u64;
        // A router that merged may merge again next tick.
        for i in 0..self.moved.len() {
            let r = self.moved[i];
            if self.ports.winner(r).is_some() {
                self.wake(r);
            }
        }
        self.moved.clear();

        // Only a landing can raise a buffer's occupancy.
        for &port in &self.landed {
            self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.ports.occupancy(port));
        }

        let out = self.root_out.pop_front();
        if out.is_some() {
            self.stats.root_emissions += 1;
            self.emitted += 1;
        }
        out
    }

    /// `true` once every expected row has been emitted and nothing is in
    /// flight.
    pub fn is_done(&self) -> bool {
        self.emitted == self.expected_total && self.is_empty()
    }

    /// `true` when no partial sum is buffered, on a link or waiting at
    /// the root: a tick then only counts a cycle.
    pub fn is_empty(&self) -> bool {
        self.root_out.is_empty() && self.ports.is_empty()
    }

    /// Books `n` ticks of an [empty](Self::is_empty) tree in one step.
    ///
    /// # Panics
    ///
    /// Panics if the tree is not empty.
    pub fn skip_empty(&mut self, n: u64) {
        assert!(self.is_empty(), "only an empty tree skips ticks");
        self.cycle += n;
        self.stats.cycles += n;
    }

    /// Activity counters accumulated since construction.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_reduction(
        rows: usize,
        contributions: &[(usize, u32, i64)],
        participants: &[bool],
    ) -> Vec<(u32, i64)> {
        let cfg = NocConfig::default();
        let mut tree = ReduceTree::new(&cfg, rows, participants);
        let mut pending: Vec<(usize, u32, i64)> = contributions.to_vec();
        let mut out = Vec::new();
        for _ in 0..20_000 {
            pending.retain(|&(pe, row, v)| !tree.try_inject(pe, row, v));
            if let Some(done) = tree.tick() {
                out.push(done);
            }
            if pending.is_empty() && tree.is_done() {
                break;
            }
        }
        assert!(pending.is_empty(), "injection starved");
        assert!(tree.is_done(), "reduction did not finish");
        out
    }

    #[test]
    fn sums_match_sequential_reference() {
        let rows = 5;
        let participants = vec![true; 64];
        let mut contributions = Vec::new();
        let mut expect = vec![0i64; rows];
        for pe in 0..64usize {
            for (row, e) in expect.iter_mut().enumerate() {
                let v = (pe as i64 + 1) * (row as i64 + 3) - 40;
                contributions.push((pe, row as u32, v));
                *e += v;
            }
        }
        let out = run_reduction(rows, &contributions, &participants);
        assert_eq!(out.len(), rows);
        let mut got = vec![0i64; rows];
        for (row, total) in out {
            got[row as usize] = total;
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn each_row_emitted_exactly_once() {
        let participants = vec![true; 64];
        let contributions: Vec<(usize, u32, i64)> = (0..64)
            .flat_map(|pe| (0..3u32).map(move |r| (pe, r, 1)))
            .collect();
        let out = run_reduction(3, &contributions, &participants);
        let mut rows: Vec<u32> = out.iter().map(|&(r, _)| r).collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 1, 2]);
        assert!(out.iter().all(|&(_, total)| total == 64));
    }

    #[test]
    fn silent_pes_do_not_block_completion() {
        // Only 3 PEs participate, scattered across subtrees.
        let mut participants = vec![false; 64];
        for &pe in &[2usize, 21, 63] {
            participants[pe] = true;
        }
        let contributions = vec![(2usize, 0u32, 10i64), (21, 0, 20), (63, 0, 30)];
        let out = run_reduction(1, &contributions, &participants);
        assert_eq!(out, vec![(0, 60)]);
    }

    #[test]
    fn no_participants_is_immediately_done() {
        let cfg = NocConfig::default();
        let tree = ReduceTree::new(&cfg, 4, &[false; 64]);
        assert!(tree.is_done());
    }

    #[test]
    fn merge_count_matches_total_contributions() {
        let participants = vec![true; 64];
        let contributions: Vec<(usize, u32, i64)> = (0..64).map(|pe| (pe, 0u32, 1i64)).collect();
        let cfg = NocConfig::default();
        let mut tree = ReduceTree::new(&cfg, 1, &participants);
        let mut pending = contributions;
        for _ in 0..10_000 {
            pending.retain(|&(pe, row, v)| !tree.try_inject(pe, row, v));
            tree.tick();
            if pending.is_empty() && tree.is_done() {
                break;
            }
        }
        assert!(tree.is_done());
        // 64 merges at the leaves + 16 at internal + 4 at root = 84.
        assert_eq!(tree.stats().acc_merges, 84);
    }

    #[test]
    #[should_panic(expected = "row out of range")]
    fn row_out_of_range_panics() {
        let cfg = NocConfig::default();
        let mut tree = ReduceTree::new(&cfg, 2, &[true; 64]);
        tree.try_inject(0, 7, 1);
    }
}
