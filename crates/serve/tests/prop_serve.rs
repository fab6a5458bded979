//! Property tests for the serving simulator's ordering contracts:
//! the event queue's virtual-time order (with deterministic tie-breaking),
//! per-shard FIFO service order under arbitrary arrival sequences, and the
//! batched simulator's no-starvation guarantee (a `SizeOrDeadline` policy
//! never holds a request past its deadline while the shard sits idle).

use proptest::prelude::*;
use sparsenn_serve::{
    simulate_batched, simulate_with, BatchPolicy, BatchShardSpec, EventQueue, FastestCompletion,
    FirstIdle, LeastQueued, MetricsMode, Scheduler, ShardSpec, Workload,
};

fn scheduler_for(which: usize) -> &'static dyn Scheduler {
    match which % 3 {
        0 => &FirstIdle,
        1 => &LeastQueued,
        _ => &FastestCompletion,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pops come in nondecreasing virtual time, and events pushed at the
    /// *same* time pop in push order — exactly a stable sort by time.
    /// Coarse integer times force plenty of ties.
    #[test]
    fn event_queue_pops_match_a_stable_sort(
        times in prop::collection::vec(0u8..8, 1..80),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(f64::from(t), i);
        }
        let mut expected: Vec<(f64, usize)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (f64::from(t), i))
            .collect();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0)); // stable: push order survives ties
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(&popped, &expected);
        prop_assert!(popped.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    /// Interleaving pushes and pops preserves the contract: every pop is
    /// the earliest-then-oldest pending event at that moment.
    #[test]
    fn event_queue_is_ordered_under_interleaving(
        ops in prop::collection::vec((0u8..6, any::<bool>()), 1..120),
    ) {
        let mut q = EventQueue::new();
        // Model: pending entries as (time, seq), popped by min (time, seq).
        let mut model: Vec<(f64, usize)> = Vec::new();
        let mut seq = 0usize;
        for &(t, do_pop) in &ops {
            if do_pop {
                let got = q.pop();
                let want = model
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                    .map(|(i, _)| i);
                match want {
                    Some(i) => prop_assert_eq!(got, Some(model.remove(i))),
                    None => prop_assert_eq!(got, None),
                }
            } else {
                q.push(f64::from(t), seq);
                model.push((f64::from(t), seq));
                seq += 1;
            }
        }
        prop_assert_eq!(q.len(), model.len());
    }

    /// Per-shard service order is FIFO for every scheduler and any
    /// arrival sequence: a request placed on a shard never overtakes an
    /// earlier-placed one. Request ids are monotone in arrival order, so
    /// each shard's served ids must be strictly increasing (completions of
    /// a sequential server come in service-start order).
    #[test]
    fn per_shard_service_order_is_fifo(
        which_scheduler in 0usize..3,
        shard_services in prop::collection::vec(1u32..400, 1..5),
        rate_rps in 5_000.0f64..400_000.0,
        requests in 1usize..300,
        seed in any::<u64>(),
        closed in any::<bool>(),
        concurrency in 1usize..16,
    ) {
        let shards: Vec<ShardSpec> = shard_services
            .iter()
            .enumerate()
            .map(|(i, &s)| ShardSpec::uniform(format!("s{i}"), f64::from(s)))
            .collect();
        let workload = if closed {
            Workload::ClosedLoop { concurrency, requests, think_us: 0.0 }
        } else {
            Workload::Poisson { rate_rps, requests, seed }
        };
        // Exact mode: the FIFO check below reads the per-request records.
        let summary = simulate_with(
            &shards,
            scheduler_for(which_scheduler),
            &workload,
            MetricsMode::Exact,
        )
        .unwrap();
        prop_assert_eq!(summary.requests, requests, "every request completes");
        for shard in 0..shards.len() {
            let ids: Vec<usize> = summary
                .per_request
                .iter()
                .filter(|r| r.shard == shard)
                .map(|r| r.id)
                .collect();
            prop_assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "shard {} served out of arrival order: {:?} ({})",
                shard,
                ids,
                summary.scheduler
            );
        }
        // Conservation: shards' served counts partition the requests.
        let served: usize = summary.shards.iter().map(|s| s.served).sum();
        prop_assert_eq!(served, requests);
        // Causality per request: arrival ≤ start ≤ completion.
        for r in &summary.per_request {
            prop_assert!(r.arrival_us <= r.start_us + 1e-12);
            prop_assert!(r.start_us <= r.completion_us + 1e-12);
        }
    }

    /// `SizeOrDeadline` never starves: for any shard tables, batch cap,
    /// deadline and Poisson load, no dispatched batch sat *idle* (shard
    /// free, policy holding the batch open) longer than the deadline —
    /// and every request completes, with one record per batch.
    #[test]
    fn size_or_deadline_never_starves(
        which_scheduler in 0usize..3,
        tables in prop::collection::vec(
            prop::collection::vec(1u32..200, 1..6),
            1..4,
        ),
        max in 1usize..=8,
        deadline_us in 1.0f64..500.0,
        rate_rps in 5_000.0f64..400_000.0,
        requests in 1usize..300,
        seed in any::<u64>(),
    ) {
        let shards: Vec<BatchShardSpec> = tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                // Cumulative sums keep each table nondecreasing in B, the
                // shape a real amortization table has.
                let mut us = 0.0;
                let table = t.iter().map(|&s| { us += f64::from(s); us }).collect();
                BatchShardSpec::with_table(format!("s{i}"), table)
            })
            .collect();
        let summary = simulate_batched(
            &shards,
            scheduler_for(which_scheduler),
            BatchPolicy::SizeOrDeadline { max, deadline_us },
            &Workload::Poisson { rate_rps, requests, seed },
            MetricsMode::Exact,
        )
        .unwrap();
        prop_assert_eq!(summary.requests, requests, "every request completes");
        prop_assert_eq!(
            summary.batch_records.len(),
            summary.batches,
            "one batch record per dispatched batch"
        );
        for b in &summary.batch_records {
            prop_assert!(
                b.idle_wait_us <= deadline_us + 1e-6,
                "batch on shard {} held open {} µs past a {} µs deadline",
                b.shard,
                b.idle_wait_us - deadline_us,
                deadline_us
            );
            prop_assert!(b.size >= 1 && b.size <= max.max(1), "cap respected");
        }
    }

    /// Per-shard service order stays FIFO on the batched path for any
    /// policy: ordering requests placed on one shard by service start
    /// (ties by id — batch members share a start) reproduces arrival
    /// (= id) order.
    #[test]
    fn batched_per_shard_service_order_is_fifo(
        which_scheduler in 0usize..3,
        immediate in any::<bool>(),
        max in 1usize..=8,
        deadline_us in 1.0f64..500.0,
        rate_rps in 5_000.0f64..400_000.0,
        requests in 1usize..300,
        seed in any::<u64>(),
    ) {
        let shards = vec![
            BatchShardSpec::serial("a", 10.0, 8),
            BatchShardSpec::with_table("b", vec![14.0, 20.0, 24.0, 26.0]),
        ];
        let policy = if immediate {
            BatchPolicy::Immediate
        } else {
            BatchPolicy::SizeOrDeadline { max, deadline_us }
        };
        let summary = simulate_batched(
            &shards,
            scheduler_for(which_scheduler),
            policy,
            &Workload::Poisson { rate_rps, requests, seed },
            MetricsMode::Exact,
        )
        .unwrap();
        prop_assert_eq!(summary.requests, requests);
        for shard in 0..shards.len() {
            let mut by_start: Vec<(f64, usize)> = summary
                .per_request
                .iter()
                .filter(|r| r.shard == shard)
                .map(|r| (r.start_us, r.id))
                .collect();
            by_start.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let ids: Vec<usize> = by_start.iter().map(|&(_, id)| id).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&ids, &sorted, "shard {} is FIFO", shard);
        }
    }
}
