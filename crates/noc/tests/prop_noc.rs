//! Property-based tests for the on-chip network: conservation (nothing is
//! ever dropped or duplicated), bounded buffers, and reduction
//! correctness under arbitrary injection patterns.

use proptest::prelude::*;
use sparsenn_noc::{ActFlit, BroadcastTree, NocConfig, ReduceTree};

fn cfg_strategy() -> impl Strategy<Value = NocConfig> {
    (1usize..6, 1u64..4).prop_map(|(cap, lat)| NocConfig {
        num_pes: 64,
        radix: 4,
        queue_capacity: cap,
        hop_latency: lat,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every injected flit is broadcast exactly once, whatever the buffer
    /// sizes, link latencies and injection pattern.
    #[test]
    fn broadcast_conserves_flits(
        cfg in cfg_strategy(),
        flits in prop::collection::vec((0usize..64, 0u32..10_000), 1..200),
        stall_mask in any::<u64>(),
    ) {
        let mut tree = BroadcastTree::new(&cfg);
        let mut pending: Vec<(usize, ActFlit)> = flits
            .iter()
            .enumerate()
            .map(|(k, &(pe, idx))| (pe, ActFlit { index: idx, value: k as i16 }))
            .collect();
        let mut delivered: Vec<ActFlit> = Vec::new();
        let mut cycles = 0u64;
        while !(pending.is_empty() && tree.is_empty()) {
            cycles += 1;
            prop_assert!(cycles < 200_000, "network livelock");
            pending.retain(|&(pe, f)| !tree.try_inject(pe, f));
            // Pseudo-random sink stalls exercise the backpressure path.
            let ready = (stall_mask >> (cycles % 64)) & 1 == 0 || cycles > 100_000;
            if let Some((delivery, f)) = tree.tick(ready) {
                prop_assert!(delivery > cycles, "a broadcast takes at least a cycle");
                delivered.push(f);
            }
        }
        prop_assert_eq!(delivered.len(), flits.len());
        // Multiset equality via the unique value tag.
        let mut got: Vec<i16> = delivered.iter().map(|f| f.value).collect();
        got.sort_unstable();
        let expect: Vec<i16> = (0..flits.len() as i16).collect();
        prop_assert_eq!(got, expect);
        // Buffers never exceeded their configured capacity.
        prop_assert!(tree.stats().peak_occupancy <= cfg.queue_capacity);
    }

    /// Skipping a quiet broadcast tree's ticks books exactly what ticking
    /// them would: a tree that jumps over every run of closed-sink cycles
    /// it is quiet for emits the same flits on the same cycles, and ends
    /// with the same counters, as a twin that ticks every cycle.
    #[test]
    fn skipping_quiet_ticks_equals_ticking(
        cfg in cfg_strategy(),
        flits in prop::collection::vec((0usize..64, 0u32..10_000), 1..200),
        stall_mask in any::<u64>(),
    ) {
        let mut ticked = BroadcastTree::new(&cfg);
        let mut skipping = BroadcastTree::new(&cfg);
        let mut pending: Vec<(usize, ActFlit)> = flits
            .iter()
            .enumerate()
            .map(|(k, &(pe, idx))| (pe, ActFlit { index: idx, value: k as i16 }))
            .collect();
        let ready = |cycle: u64| (stall_mask >> (cycle % 64)) & 1 == 0 || cycle > 100_000;
        let (mut by_tick, mut by_skip) = (Vec::new(), Vec::new());
        let mut cycle = 0u64;
        while !(pending.is_empty() && ticked.is_empty()) {
            cycle += 1;
            prop_assert!(cycle < 200_000, "network livelock");
            let mut refused = Vec::new();
            for (pe, f) in pending.drain(..) {
                let into_ticked = ticked.try_inject(pe, f);
                prop_assert_eq!(into_ticked, skipping.try_inject(pe, f));
                if !into_ticked {
                    refused.push((pe, f));
                }
            }
            pending = refused;
            if let Some(f) = ticked.tick(ready(cycle)) {
                by_tick.push((cycle, f));
            }
            if let Some(f) = skipping.tick(ready(cycle)) {
                by_skip.push((cycle, f));
            }
            // Jump over the closed-sink cycles in which no pending flit can
            // enter.
            if skipping.is_quiet() && pending.iter().all(|&(pe, _)| !skipping.can_inject(pe)) {
                let n = (cycle + 1..).take_while(|&c| !ready(c)).count() as u64;
                if n > 0 {
                    skipping.skip_quiet(n);
                    for _ in 0..n {
                        cycle += 1;
                        prop_assert_eq!(ticked.tick(ready(cycle)), None, "the sink is closed");
                    }
                }
            }
            prop_assert_eq!(ticked.stats(), skipping.stats(), "cycle {}", cycle);
        }
        prop_assert_eq!(by_tick, by_skip);
        prop_assert_eq!(ticked.cycle(), skipping.cycle());
    }

    /// The reduce tree computes exact per-row sums for arbitrary
    /// participation patterns and values, each row exactly once.
    #[test]
    fn reduction_is_exact(
        cfg in cfg_strategy(),
        rows in 1usize..8,
        participant_bits in any::<u64>(),
        scale in 1i64..1_000_000,
    ) {
        let participants: Vec<bool> = (0..64).map(|i| (participant_bits >> i) & 1 == 1).collect();
        let mut tree = ReduceTree::new(&cfg, rows, &participants);
        let mut pending = Vec::new();
        let mut expect = vec![0i64; rows];
        for (pe, &participates) in participants.iter().enumerate() {
            if !participates {
                continue;
            }
            for (row, e) in expect.iter_mut().enumerate() {
                let v = (pe as i64 - 31) * (row as i64 + 1) * scale;
                pending.push((pe, row as u32, v));
                *e += v;
            }
        }
        let mut got = vec![None::<i64>; rows];
        let mut cycles = 0u64;
        while !(pending.is_empty() && tree.is_done()) {
            cycles += 1;
            prop_assert!(cycles < 200_000, "reduction livelock");
            pending.retain(|&(pe, row, v)| !tree.try_inject(pe, row, v));
            if let Some((row, total)) = tree.tick() {
                prop_assert!(got[row as usize].is_none(), "row {} emitted twice", row);
                got[row as usize] = Some(total);
            }
        }
        if participants.iter().any(|&p| p) {
            for (row, (g, e)) in got.iter().zip(&expect).enumerate() {
                prop_assert_eq!(g.expect("row must complete"), *e, "row {}", row);
            }
        } else {
            prop_assert!(got.iter().all(Option::is_none));
        }
    }

    /// Arbitration is locally smallest-index-first: when two flits sit at
    /// the heads of different ports of the same leaf router, the smaller
    /// index is always delivered first.
    #[test]
    fn local_arbitration_orders_head_flits(a in 0u32..1000, b in 0u32..1000) {
        prop_assume!(a != b);
        let mut tree = BroadcastTree::new(&NocConfig::default());
        // PEs 0 and 1 share leaf router 0; same-cycle injection.
        let first = tree.try_inject(0, ActFlit { index: a, value: 1 });
        let second = tree.try_inject(1, ActFlit { index: b, value: 2 });
        prop_assert!(first && second);
        let mut order = Vec::new();
        for _ in 0..200 {
            if let Some((_, f)) = tree.tick(true) {
                order.push(f.index);
            }
            if tree.is_empty() {
                break;
            }
        }
        prop_assert_eq!(order.len(), 2);
        prop_assert_eq!(order[0], a.min(b));
    }
}
