//! The activation broadcast tree (W and U phases).

use crate::config::NocConfig;
use crate::link::{Keyed, Ports};
use crate::stats::NocStats;
use crate::ActFlit;

impl Keyed for ActFlit {
    fn key(&self) -> u32 {
        self.index
    }
}

/// Cycle-level model of the upward concentration + downward broadcast
/// H-tree (paper Fig. 3(b)).
///
/// Per cycle, each radix-`k` router grants **one** flit — the one with the
/// smallest activation index among its input-buffer heads — to the next
/// level if the parent buffer has a credit. The root consumes one winner
/// per cycle (when the sink is ready) and sends it down the
/// fully-pipelined broadcast, which delivers it to *every* PE
/// [`broadcast_latency`] cycles later. Nothing can stop a flit on its way
/// down, so [`tick`](Self::tick) reports each flit when the root emits it,
/// with its delivery cycle, and the tree keeps no record of it after that.
///
/// A tick visits only the routers that may forward: those a flit landed
/// in, those whose parent port returned a credit, and those that forwarded
/// in the last tick. When no flit is on a link and no router below the
/// root can forward, the tree is [quiet](Self::is_quiet): until the sink
/// opens or a PE injects, every tick only repeats the same stall counts,
/// so [`skip_quiet`](Self::skip_quiet) books a run of them at once.
///
/// [`broadcast_latency`]: NocConfig::broadcast_latency
#[derive(Clone, Debug)]
pub struct BroadcastTree {
    cfg: NocConfig,
    /// Tree level of every router, leaves first; the root is the last
    /// router. Router `r` below the root feeds port `r + num_pes`, so the
    /// ports below `num_pes` are the PEs' and port `p` above is fed by
    /// router `p - num_pes`.
    level: Vec<usize>,
    ports: Ports<ActFlit>,
    /// Per level below the root: routers to visit this tick.
    wake: Vec<Vec<usize>>,
    /// Per router: whether it is in its level's `wake` list.
    woken: Vec<bool>,
    /// Routers that forwarded this tick.
    moved: Vec<usize>,
    cycle: u64,
    stats: NocStats,
    /// PEs whose leaf port returned a credit in the last tick.
    credited: Vec<usize>,
    /// Ports a flit landed in this tick.
    landed: Vec<usize>,
}

impl BroadcastTree {
    /// Builds an idle tree for the given configuration.
    pub fn new(cfg: &NocConfig) -> Self {
        let level = cfg.router_levels();
        let routers = level.len();
        Self {
            cfg: *cfg,
            wake: vec![Vec::new(); level[routers - 1]],
            level,
            ports: Ports::new(routers, cfg.radix, cfg.queue_capacity, cfg.hop_latency),
            woken: vec![false; routers],
            moved: Vec::new(),
            cycle: 0,
            stats: NocStats::default(),
            credited: Vec::new(),
            landed: Vec::new(),
        }
    }

    /// The root router.
    fn root(&self) -> usize {
        self.level.len() - 1
    }

    /// Queues router `r` (below the root) for a visit this tick.
    fn wake(&mut self, r: usize) {
        if !std::mem::replace(&mut self.woken[r], true) {
            self.wake[self.level[r]].push(r);
        }
    }

    /// A flit left `port`: its sender holds a credit again.
    fn credit(&mut self, port: usize) {
        match port.checked_sub(self.cfg.num_pes) {
            None => self.credited.push(port),
            Some(r) => self.wake(r),
        }
    }

    /// `true` if router `r` below the root has a winner and a credit to
    /// forward it with.
    fn can_forward(&self, r: usize) -> bool {
        self.ports.winner(r).is_some() && self.ports.has_credit(r + self.cfg.num_pes)
    }

    /// `true` when PE `pe`'s leaf port has a credit, so
    /// [`try_inject`](Self::try_inject) would accept a flit.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range.
    pub fn can_inject(&self, pe: usize) -> bool {
        assert!(pe < self.cfg.num_pes, "PE index out of range");
        self.ports.has_credit(pe)
    }

    /// Attempts to inject a flit from PE `pe`'s network interface into its
    /// leaf router. Returns `false` (and leaves the flit with the caller)
    /// when the router buffer has no credit.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range.
    pub fn try_inject(&mut self, pe: usize, flit: ActFlit) -> bool {
        if !self.can_inject(pe) {
            return false;
        }
        self.ports.send(self.cycle, pe, flit);
        true
    }

    /// Advances one clock cycle.
    ///
    /// `sink_ready` gates the root: when `false` (some PE activation queue
    /// is full), the root holds its winner — backpressure instead of drops.
    /// Returns the flit the root emitted this cycle, if any, with the later
    /// cycle on which the broadcast delivers it to **all** PEs.
    pub fn tick(&mut self, sink_ready: bool) -> Option<(u64, ActFlit)> {
        self.cycle += 1;
        self.stats.cycles += 1;
        let cycle = self.cycle;
        let root = self.root();
        self.credited.clear();

        // 1. Link arrivals: a router with a new head may forward.
        self.ports.land(cycle, &mut self.landed);
        for i in 0..self.landed.len() {
            let r = self.landed[i] / self.cfg.radix;
            if r != root {
                self.wake(r);
            }
        }
        let waiting_below_root =
            self.ports.occupied() - usize::from(self.ports.winner(root).is_some());

        // 2. Root arbitration (gated by the sink).
        let mut emitted = None;
        if let Some(port) = self.ports.winner(root) {
            if sink_ready {
                let flit = self.ports.pop(port);
                // Delivered on a later tick: the pipeline's latency, and
                // at least the next one.
                let delivery = (cycle + self.cfg.broadcast_latency()).max(cycle + 1);
                emitted = Some((delivery, flit));
                self.stats.root_emissions += 1;
                self.stats.hops += 1;
                self.credit(port);
            } else {
                self.stats.sink_stalls += 1;
            }
        }

        // 3. Lower levels, root side first so freed credits propagate.
        // Every router below the root that holds a flit and does not
        // forward it stalls for want of a credit.
        let mut forwarded = 0;
        for l in (0..self.wake.len()).rev() {
            let mut routers = std::mem::take(&mut self.wake[l]);
            for &r in &routers {
                self.woken[r] = false;
                if !self.can_forward(r) {
                    continue;
                }
                let port = self.ports.winner(r).expect("checked");
                let flit = self.ports.pop(port);
                self.ports.send(cycle, r + self.cfg.num_pes, flit);
                self.stats.hops += 1;
                forwarded += 1;
                self.moved.push(r);
                self.credit(port);
            }
            routers.clear();
            self.wake[l] = routers;
        }
        self.stats.credit_stalls += (waiting_below_root - forwarded) as u64;
        // A router that forwarded may forward again next tick.
        for i in 0..self.moved.len() {
            let r = self.moved[i];
            if self.can_forward(r) {
                self.wake(r);
            }
        }
        self.moved.clear();

        // 4. Occupancy statistics: only a landing can raise a buffer.
        for &port in &self.landed {
            self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.ports.occupancy(port));
        }

        emitted
    }

    /// `true` when every flit has landed and no router below the root can
    /// forward. With the sink closed and no injection, a tick then changes
    /// nothing in the routers and adds only to the counters: one cycle, a
    /// sink stall if the root holds a winner, and a credit stall per
    /// router below it that holds one. If the tree is quiet but not
    /// [empty](Self::is_empty), a flit waits at the root.
    pub fn is_quiet(&self) -> bool {
        self.ports.links_empty() && self.wake.iter().all(Vec::is_empty)
    }

    /// Books `n` ticks of a [quiet](Self::is_quiet) tree in one step: the
    /// cycles and the stall counts those ticks would have added. The
    /// caller keeps the sink closed and injects nothing over those cycles.
    ///
    /// # Panics
    ///
    /// Panics if the tree is not quiet.
    pub fn skip_quiet(&mut self, n: u64) {
        assert!(self.is_quiet(), "only a quiet tree skips ticks");
        let root_waits = self.ports.winner(self.root()).is_some();
        if root_waits {
            self.stats.sink_stalls += n;
        }
        let waiting_below_root = self.ports.occupied() - usize::from(root_waits);
        self.stats.credit_stalls += n * waiting_below_root as u64;
        self.cycle += n;
        self.stats.cycles += n;
        self.credited.clear();
    }

    /// PEs whose leaf port returned a credit in the last tick: a PE that
    /// found its port full can inject again from the next cycle.
    pub fn credits_returned(&self) -> &[usize] {
        &self.credited
    }

    /// `true` when no flit is buffered in a router or on a link: every
    /// injected flit has been emitted.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Activity counters accumulated since construction.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(i: u32) -> ActFlit {
        ActFlit {
            index: i,
            value: i as i16,
        }
    }

    /// The indices of the flits the root emits, in emission order (the
    /// order every PE receives them in).
    fn drain(tree: &mut BroadcastTree, max_cycles: usize) -> Vec<u32> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            if let Some((_, f)) = tree.tick(true) {
                out.push(f.index);
            }
            if tree.is_empty() {
                break;
            }
        }
        out
    }

    #[test]
    fn single_flit_is_broadcast_once() {
        let mut tree = BroadcastTree::new(&NocConfig::default());
        assert!(tree.try_inject(17, flit(9)));
        let out = drain(&mut tree, 100);
        assert_eq!(out, vec![9]);
        assert!(tree.is_empty());
    }

    #[test]
    fn all_flits_delivered_exactly_once() {
        let mut tree = BroadcastTree::new(&NocConfig::default());
        let mut pending: Vec<(usize, ActFlit)> =
            (0..64).map(|pe| (pe, flit(1000 + pe as u32))).collect();
        let mut out = Vec::new();
        for _ in 0..1000 {
            pending.retain(|&(pe, f)| !tree.try_inject(pe, f));
            if let Some((_, f)) = tree.tick(true) {
                out.push(f.index);
            }
            if pending.is_empty() && tree.is_empty() {
                break;
            }
        }
        out.sort_unstable();
        let expect: Vec<u32> = (1000..1064).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn smallest_index_wins_local_arbitration() {
        // PEs 0 and 1 share a leaf router; inject a large and a small index
        // in the same cycle: the small one must come out first.
        let mut tree = BroadcastTree::new(&NocConfig::default());
        assert!(tree.try_inject(0, flit(500)));
        assert!(tree.try_inject(1, flit(3)));
        let out = drain(&mut tree, 100);
        assert_eq!(out, vec![3, 500]);
    }

    #[test]
    fn out_of_order_delivery_across_subtrees_is_possible() {
        // The paper: "the earlier nonzero activations might be blocked in a
        // leaf node, while some of the activations with a higher index may
        // enter into a higher level node from another leaf node".
        // Index 5 sits *behind* 100 in PE0's FIFO port, so index 50 from a
        // distant subtree overtakes it — and 100 itself beats 5.
        let mut tree = BroadcastTree::new(&NocConfig::default());
        assert!(tree.try_inject(0, flit(100)));
        assert!(tree.try_inject(0, flit(5)));
        assert!(tree.try_inject(63, flit(50)));
        let out = drain(&mut tree, 200);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![5, 50, 100]);
        assert_ne!(
            out, sorted,
            "delivery {out:?} should not be globally index-ordered"
        );
        let pos = |i: u32| out.iter().position(|&x| x == i).unwrap();
        assert!(pos(100) < pos(5), "{out:?}: 5 was blocked behind 100");
    }

    #[test]
    fn sink_backpressure_stalls_but_never_drops() {
        let mut tree = BroadcastTree::new(&NocConfig::default());
        for pe in 0..8 {
            assert!(tree.try_inject(pe, flit(pe as u32)));
        }
        // Sink never ready: nothing may be emitted.
        for _ in 0..100 {
            assert_eq!(tree.tick(false), None);
        }
        assert!(tree.stats().sink_stalls > 0);
        assert!(!tree.is_empty());
        // Release the sink: all 8 arrive.
        let out = drain(&mut tree, 200);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn saturated_root_delivers_one_per_cycle() {
        let mut tree = BroadcastTree::new(&NocConfig::default());
        let mut pending: Vec<(usize, ActFlit)> = (0..64)
            .flat_map(|pe| (0..4u32).map(move |k| (pe, flit((pe as u32) * 4 + k))))
            .collect();
        let mut deliveries = Vec::new();
        for _ in 0..2000 {
            pending.retain(|&(pe, f)| !tree.try_inject(pe, f));
            if let Some((delivery, _)) = tree.tick(true) {
                deliveries.push(delivery);
            }
            if pending.is_empty() && tree.is_empty() {
                break;
            }
        }
        assert_eq!(deliveries.len(), 256);
        // After warmup the root must sustain 1 delivery/cycle: the whole
        // span is 256 deliveries in at most 256 + generous warmup cycles.
        let span = deliveries.last().unwrap() - deliveries.first().unwrap();
        assert!(span <= 300, "span {span} too slack for a pipelined tree");
    }

    #[test]
    fn broadcast_latency_matches_config() {
        let cfg = NocConfig {
            hop_latency: 2,
            ..NocConfig::default()
        };
        let mut tree = BroadcastTree::new(&cfg);
        assert!(tree.try_inject(0, flit(1)));
        let mut delivered_at = None;
        for _ in 0..100 {
            if let Some((delivery, _)) = tree.tick(true) {
                delivered_at = Some(delivery);
                break;
            }
        }
        // 3 hops up at 2 cycles each (the leaf-injection link counts as the
        // first) + 1 arbitration step per level + 6 cycles down.
        let t = delivered_at.expect("must deliver");
        assert!(
            t >= 2 * 3 + 6,
            "delivery at {t} is faster than physically possible"
        );
        assert!(t <= 30, "delivery at {t} is suspiciously slow");
    }
}
