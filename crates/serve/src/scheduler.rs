//! Dispatch policies for the virtual-time serving simulators
//! (`sparsenn-serve` and `sparsenn-frontend`).
//!
//! A [`Scheduler`] decides which shard a newly-arrived request should be
//! placed on, given a snapshot of every shard's instantaneous serving
//! state ([`ShardView`]). A simulator honours a usable pick literally: a
//! busy shard's pick joins that shard's FIFO queue. What each does with a
//! pick it cannot use is its own rule (see [`Scheduler::pick`]).

/// Snapshot of one shard's instantaneous serving state, as seen by a
/// [`Scheduler`] placing one request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardView {
    /// `false` when the shard is failed, slowed past usefulness, or still
    /// warming up after a scale-out — schedulers must not place work on
    /// it. The `sparsenn-frontend` simulator drives this from its fault
    /// and autoscaling timelines; `sparsenn-serve`'s shards are always
    /// healthy.
    pub healthy: bool,
    /// `true` when the shard is neither serving nor holding queued work.
    pub idle: bool,
    /// Requests on the shard: in service plus waiting in its queue. In
    /// service is one request, or a whole batch under
    /// [`simulate_batched`](crate::simulate_batched). Always 0 when `idle`.
    pub depth: usize,
    /// Modelled time until the shard could *start* a new request,
    /// microseconds: remaining service of the in-flight request or batch
    /// plus the service demand of everything queued behind it. 0 when
    /// idle; the batching simulator estimates each queued request at its
    /// shard's batch-of-1 time.
    pub backlog_us: f64,
    /// Modelled service time of the request being placed, *on this shard*,
    /// microseconds.
    pub service_us: f64,
}

impl ShardView {
    /// Expected completion offset for the request if placed here:
    /// queueing delay plus own service time, microseconds.
    pub fn expected_completion_us(&self) -> f64 {
        self.backlog_us + self.service_us
    }
}

/// A dispatch policy over a fleet of shards.
pub trait Scheduler {
    /// Policy name (shows up in reports and simulation summaries).
    fn name(&self) -> &str;

    /// Picks the shard the arriving request should be placed on, or
    /// `None` to place it nowhere.
    ///
    /// Returning the index of a busy shard means "queue behind it". An
    /// out-of-range index is treated as `None` by every simulator.
    ///
    /// Each simulator applies its own rule to a request with no usable
    /// pick, documented on its entry point:
    /// `sparsenn_serve::simulate_with` holds the request in a central
    /// queue (unless every shard is idle),
    /// `sparsenn_serve::simulate_batched` places it on the shallowest
    /// queue, and `sparsenn_frontend::simulate_frontend` — for which an
    /// unhealthy shard is unusable too — takes the first healthy idle
    /// shard, else the central queue.
    /// Implementations must never pick an unhealthy shard
    /// ([`ShardView::healthy`] is `false`) — its queue may never drain.
    fn pick(&self, shards: &[ShardView]) -> Option<usize>;
}

/// The PR-2 policy: the lowest-indexed idle shard, else wait for one.
///
/// Arrival order wins; the policy is blind to shard speed, which is what
/// lets a slow shard in a heterogeneous fleet capture requests a fast
/// shard would have finished sooner.
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstIdle;

impl Scheduler for FirstIdle {
    fn name(&self) -> &str {
        "first-idle"
    }

    fn pick(&self, shards: &[ShardView]) -> Option<usize> {
        shards.iter().position(|s| s.healthy && s.idle)
    }
}

/// Join the shortest queue: the shard holding the fewest requests
/// (in service + waiting), lowest index on ties.
#[derive(Clone, Copy, Debug, Default)]
pub struct LeastQueued;

impl Scheduler for LeastQueued {
    fn name(&self) -> &str {
        "least-queued"
    }

    fn pick(&self, shards: &[ShardView]) -> Option<usize> {
        shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.healthy)
            .min_by_key(|(_, s)| s.depth)
            .map(|(i, _)| i)
    }
}

/// Latency-aware dispatch: the shard with the earliest expected
/// completion for *this* request (`backlog + service`, each shard's own
/// modelled `time_us`), lowest index on ties.
///
/// In a heterogeneous fleet this is the policy that queues behind a fast
/// cycle-accurate machine instead of handing the request to an idle but
/// slow SIMD platform.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastestCompletion;

impl Scheduler for FastestCompletion {
    fn name(&self) -> &str {
        "fastest-completion"
    }

    fn pick(&self, shards: &[ShardView]) -> Option<usize> {
        shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.healthy)
            .min_by(|(_, a), (_, b)| {
                a.expected_completion_us()
                    .total_cmp(&b.expected_completion_us())
            })
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(idle: bool, depth: usize, backlog_us: f64, service_us: f64) -> ShardView {
        ShardView {
            healthy: true,
            idle,
            depth,
            backlog_us,
            service_us,
        }
    }

    fn unhealthy() -> ShardView {
        ShardView {
            healthy: false,
            ..view(true, 0, 0.0, 1.0)
        }
    }

    #[test]
    fn first_idle_prefers_lowest_index_and_waits_otherwise() {
        let s = FirstIdle;
        let busy = view(false, 1, 5.0, 5.0);
        let idle = view(true, 0, 0.0, 5.0);
        assert_eq!(s.pick(&[busy, idle, idle]), Some(1));
        assert_eq!(s.pick(&[idle, idle]), Some(0));
        assert_eq!(s.pick(&[busy, busy]), None, "no idle shard: wait");
    }

    #[test]
    fn least_queued_minimizes_depth_with_low_index_ties() {
        let s = LeastQueued;
        assert_eq!(
            s.pick(&[
                view(false, 3, 30.0, 10.0),
                view(false, 1, 10.0, 10.0),
                view(false, 1, 10.0, 10.0),
            ]),
            Some(1)
        );
        assert_eq!(
            s.pick(&[view(true, 0, 0.0, 1.0), view(false, 2, 2.0, 1.0)]),
            Some(0)
        );
    }

    #[test]
    fn fastest_completion_queues_behind_a_fast_shard() {
        let s = FastestCompletion;
        // Busy fast machine (backlog 8, service 4 → done at 12) beats an
        // idle slow SIMD shard (service 100).
        let fast_busy = view(false, 2, 8.0, 4.0);
        let slow_idle = view(true, 0, 0.0, 100.0);
        assert_eq!(s.pick(&[fast_busy, slow_idle]), Some(0));
        // …until the fast backlog exceeds the slow service time.
        let fast_swamped = view(false, 40, 160.0, 4.0);
        assert_eq!(s.pick(&[fast_swamped, slow_idle]), Some(1));
    }

    #[test]
    fn empty_fleet_views_yield_none() {
        assert_eq!(FirstIdle.pick(&[]), None);
        assert_eq!(LeastQueued.pick(&[]), None);
        assert_eq!(FastestCompletion.pick(&[]), None);
    }

    /// An unhealthy shard is invisible to every policy — even when it
    /// looks idle and fast — and an all-unhealthy fleet yields `None`.
    #[test]
    fn unhealthy_shards_are_never_picked() {
        let down = unhealthy();
        let busy = view(false, 2, 20.0, 10.0);
        assert_eq!(FirstIdle.pick(&[down, busy]), None, "down idle is unusable");
        assert_eq!(LeastQueued.pick(&[down, busy]), Some(1));
        assert_eq!(FastestCompletion.pick(&[down, busy]), Some(1));
        assert_eq!(FirstIdle.pick(&[down, down]), None);
        assert_eq!(LeastQueued.pick(&[down, down]), None);
        assert_eq!(FastestCompletion.pick(&[down, down]), None);
    }
}
