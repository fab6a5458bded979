//! The discrete-event core under every serving simulator: [`Core`] and
//! the per-shard [`Shard`] state it drives.

use crate::events::EventQueue;
use crate::metrics::{LatencyStats, RequestMetric, ShardUsage, StreamingLatency};
use crate::scheduler::ShardView;
use crate::workload::{OpenArrivals, Workload};
use std::collections::VecDeque;

/// Slack added to a hold window's oldest wait, µs: it absorbs float
/// round-off when a deadline event fires exactly `deadline_us` after the
/// oldest arrival, so that event does release the batch.
pub const DEADLINE_SLACK_US: f64 = 1e-9;

/// How a simulation accounts for its requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsMode {
    /// Constant-memory accounting (the [`simulate`](crate::simulate)
    /// default): exact counts, means, maxima and queue-depth integrals,
    /// P²-estimated latency percentiles. `per_request` and
    /// `queue.trajectory` stay empty, so a sweep over millions of virtual
    /// requests holds memory at O(shards + in-flight).
    #[default]
    Streaming,
    /// Materialize every [`RequestMetric`] and the full queue-depth
    /// trajectory; all latency statistics are exact nearest-rank. Memory
    /// is O(total requests) — for tests and forensics.
    Exact,
}

/// Why a simulation could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The fleet has no shards.
    NoShards,
    /// A shard's service table is empty or contains a non-finite or
    /// negative time.
    BadServiceTable {
        /// Offending shard index.
        shard: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// The workload parameters are invalid.
    InvalidWorkload(String),
    /// The batching policy's parameters are invalid
    /// ([`BatchPolicy::validate`](crate::BatchPolicy::validate)).
    InvalidPolicy(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoShards => f.write_str("a simulated fleet needs at least one shard"),
            ServeError::BadServiceTable { shard, reason } => {
                write!(f, "shard {shard} service table: {reason}")
            }
            ServeError::InvalidWorkload(reason) => write!(f, "invalid workload: {reason}"),
            ServeError::InvalidPolicy(reason) => write!(f, "invalid batch policy: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One shard's serving state. `T` is what the shard serves: a request,
/// or a front-end service attempt.
#[derive(Clone, Debug)]
pub struct Shard<T> {
    /// FIFO queue of work placed behind this shard.
    pub queue: VecDeque<T>,
    /// The work in service: one request or attempt, or one batch. Empty
    /// while the shard is free.
    pub in_service: Vec<T>,
    /// Virtual time the in-service work started.
    pub started_us: f64,
    /// Virtual time the in-service work completes.
    pub busy_until: f64,
    /// Modelled service demand of everything in `queue`, µs — the part
    /// of [`backlog_us`](Self::backlog_us) behind the in-service work.
    pub queued_work_us: f64,
    /// Requests this shard completed.
    pub served: usize,
    /// Time this shard spent serving, µs, including work it never
    /// completed (cancelled or lost).
    pub busy_us: f64,
}

impl<T> Shard<T> {
    fn new() -> Self {
        Self {
            queue: VecDeque::new(),
            in_service: Vec::new(),
            started_us: 0.0,
            busy_until: 0.0,
            queued_work_us: 0.0,
            served: 0,
            busy_us: 0.0,
        }
    }

    /// Whether work is in service.
    pub fn busy(&self) -> bool {
        !self.in_service.is_empty()
    }

    /// Neither serving nor holding queued work.
    pub fn idle(&self) -> bool {
        self.in_service.is_empty() && self.queue.is_empty()
    }

    /// Requests on the shard: in service plus queued.
    pub fn depth(&self) -> usize {
        self.queue.len() + self.in_service.len()
    }

    /// Modelled time until the shard could start new work, µs: the
    /// in-service work's remaining time plus the queued work.
    pub fn backlog_us(&self, now_us: f64) -> f64 {
        let in_service = if self.busy() {
            (self.busy_until - now_us).max(0.0)
        } else {
            0.0
        };
        in_service + self.queued_work_us
    }
}

/// The machinery of one discrete-event serving run, shared by
/// [`simulate`](crate::simulate), [`simulate_batched`](crate::simulate_batched)
/// and the `sparsenn-frontend` front end: the timeline, per-shard serving
/// state, the central queue, the arrival source (open-loop arrivals
/// pulled lazily, so the timeline stays O(in-flight); closed-loop clients
/// re-issuing after their think time), and the [`ShardView`] snapshots a
/// scheduler places each request by, built into one buffer the run
/// reuses. A driver keeps only its policy: how it honours a pick and what
/// it does with one it cannot use, when a shard fires, what it records.
///
/// `T` is what a shard serves; `E` is the driver's event vocabulary.
pub struct Core<T, E> {
    /// The run's timeline.
    pub events: EventQueue<E>,
    /// Per-shard serving state, in spec order.
    pub shards: Vec<Shard<T>>,
    /// Work no shard took yet, claimed by the first shard that frees up.
    pub central: VecDeque<T>,
    /// Virtual time of the last completion, µs. A driver whose requests
    /// can also end without service (a shed, a lost request) extends it
    /// there too.
    pub makespan_us: f64,
    /// The event that issues one request.
    arrival: E,
    open: Option<OpenArrivals>,
    think_us: f64,
    /// Closed-loop requests still to issue.
    to_issue: usize,
    /// Requests issued so far: the next request's id.
    issued: usize,
    views: Vec<ShardView>,
}

impl<T, E: Copy> Core<T, E> {
    /// A run over shards with the given service `tables` (one per shard,
    /// checked finite and non-negative; `what` names their entries in an
    /// error) driven by `workload`. The workload's first arrivals are on
    /// the timeline as `arrival` events: every closed-loop client's first
    /// request at t = 0, or the first open-loop arrival.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when there are no tables, a table is empty or holds
    /// a non-finite or negative time, or the workload is invalid.
    pub fn new<'t>(
        tables: impl IntoIterator<Item = &'t [f64]>,
        what: &str,
        workload: &Workload,
        arrival: E,
    ) -> Result<Self, ServeError> {
        let mut shards = Vec::new();
        for (shard, table) in tables.into_iter().enumerate() {
            if table.is_empty() {
                return Err(ServeError::BadServiceTable {
                    shard,
                    reason: "empty".into(),
                });
            }
            if let Some(bad) = table.iter().find(|v| !v.is_finite() || **v < 0.0) {
                return Err(ServeError::BadServiceTable {
                    shard,
                    reason: format!("{what} {bad} is not finite and non-negative"),
                });
            }
            shards.push(Shard::new());
        }
        if shards.is_empty() {
            return Err(ServeError::NoShards);
        }
        workload.validate().map_err(ServeError::InvalidWorkload)?;

        let mut events = EventQueue::new();
        let mut open = workload.open_arrivals();
        let (think_us, to_issue) = match *workload {
            Workload::ClosedLoop {
                concurrency,
                requests,
                think_us,
            } => {
                let first = concurrency.min(requests);
                for _ in 0..first {
                    events.push(0.0, arrival);
                }
                (think_us, requests - first)
            }
            _ => {
                let stream = open.as_mut().expect("open workload has a stream");
                if let Some(t) = stream.next() {
                    events.push(t, arrival);
                }
                (0.0, 0)
            }
        };
        let views = Vec::with_capacity(shards.len());
        Ok(Self {
            events,
            shards,
            central: VecDeque::new(),
            makespan_us: 0.0,
            arrival,
            open,
            think_us,
            to_issue,
            issued: 0,
            views,
        })
    }

    /// Takes the arrival just popped: schedules the next open-loop
    /// arrival, and returns the new request's id (ids count up from 0 in
    /// arrival order).
    pub fn arrive(&mut self) -> usize {
        if let Some(t) = self.open.as_mut().and_then(Iterator::next) {
            self.events.push(t, self.arrival);
        }
        self.issued += 1;
        self.issued - 1
    }

    /// `resolved` requests left the system at `now_us`: as many
    /// closed-loop clients as still have requests to issue re-issue one
    /// each after their think time.
    pub fn reissue(&mut self, now_us: f64, resolved: usize) {
        let n = resolved.min(self.to_issue);
        self.to_issue -= n;
        for _ in 0..n {
            self.events.push(now_us + self.think_us, self.arrival);
        }
    }

    /// Snapshots every shard for a scheduler placing one request.
    /// `view(i)` gives shard `i`'s health and the request's service time
    /// there; the core fills in idleness, depth and backlog. The slice
    /// lives in a buffer the whole run reuses.
    pub fn views(
        &mut self,
        now_us: f64,
        mut view: impl FnMut(usize) -> (bool, f64),
    ) -> &[ShardView] {
        self.views.clear();
        for (i, s) in self.shards.iter().enumerate() {
            let (healthy, service_us) = view(i);
            self.views.push(ShardView {
                healthy,
                idle: s.idle(),
                depth: s.depth(),
                backlog_us: s.backlog_us(now_us),
                service_us,
            });
        }
        &self.views
    }

    /// Queues `item` behind `shard`, adding `work_us` of queued work.
    pub fn enqueue(&mut self, shard: usize, item: T, work_us: f64) {
        let s = &mut self.shards[shard];
        s.queued_work_us += work_us;
        s.queue.push_back(item);
    }

    /// The next work for `shard`: the head of its own queue (less
    /// `work(item)` of queued work), else the head of the central queue.
    pub fn next_for(&mut self, shard: usize, work: impl FnOnce(&T) -> f64) -> Option<T> {
        let s = &mut self.shards[shard];
        match s.queue.pop_front() {
            Some(item) => {
                s.queued_work_us -= work(&item);
                Some(item)
            }
            None => self.central.pop_front(),
        }
    }

    /// Starts serving `item` on the free `shard` at `now_us` for
    /// `service_us`; `done` is its completion event.
    pub fn start(&mut self, shard: usize, item: T, now_us: f64, service_us: f64, done: E) {
        debug_assert!(!self.shards[shard].busy(), "shard {shard} is serving");
        self.shards[shard].in_service.push(item);
        self.begin(shard, now_us, service_us, done);
    }

    /// Starts serving the `size` oldest queued items on the free `shard`
    /// as one batch at `now_us` for `service_us`; `done` is its
    /// completion event. The shard's queued work is left to the caller,
    /// who knows what the batch was worth.
    pub fn start_batch(
        &mut self,
        shard: usize,
        size: usize,
        now_us: f64,
        service_us: f64,
        done: E,
    ) {
        let s = &mut self.shards[shard];
        debug_assert!(!s.busy(), "shard {shard} is serving");
        s.in_service.extend(s.queue.drain(..size));
        self.begin(shard, now_us, service_us, done);
    }

    fn begin(&mut self, shard: usize, now_us: f64, service_us: f64, done: E) {
        let s = &mut self.shards[shard];
        s.started_us = now_us;
        s.busy_until = now_us + service_us;
        self.events.push(now_us + service_us, done);
    }

    /// Completes `shard`'s in-service work at `now_us`: books it as
    /// served, with its busy time, extends the makespan and frees the
    /// shard. Returns the time service started; read the finished items
    /// from `in_service` before calling.
    pub fn finish(&mut self, shard: usize, now_us: f64) -> f64 {
        self.makespan_us = self.makespan_us.max(now_us);
        let s = &mut self.shards[shard];
        s.served += s.in_service.len();
        self.abort(shard, now_us)
    }

    /// Ends `shard`'s in-service work at `now_us` without completing it
    /// (cancelled or lost): books the busy time and frees the shard.
    /// Returns the time service started.
    pub fn abort(&mut self, shard: usize, now_us: f64) -> f64 {
        let s = &mut self.shards[shard];
        s.busy_us += now_us - s.started_us;
        s.in_service.clear();
        s.started_us
    }

    /// Per-shard usage over the makespan, named in spec order.
    pub(crate) fn usage<'n>(&self, names: impl IntoIterator<Item = &'n String>) -> Vec<ShardUsage> {
        names
            .into_iter()
            .zip(&self.shards)
            .map(|(name, s)| ShardUsage {
                name: name.clone(),
                served: s.served,
                busy_us: s.busy_us,
                utilization: if self.makespan_us > 0.0 {
                    s.busy_us / self.makespan_us
                } else {
                    0.0
                },
            })
            .collect()
    }
}

/// `count` events per second of virtual time over `makespan_us` (0 for
/// an empty run).
pub fn rate_per_s(count: usize, makespan_us: f64) -> f64 {
    if makespan_us > 0.0 {
        count as f64 / (makespan_us * 1e-6)
    } else {
        0.0
    }
}

/// A request as [`simulate`](crate::simulate) and
/// [`simulate_batched`](crate::simulate_batched) queue it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Request {
    pub(crate) id: usize,
    pub(crate) arrival_us: f64,
}

/// The latency books of a run in which every request completes: the
/// count, the queue and service time sums, and every record
/// ([`MetricsMode::Exact`]) or a streaming latency accumulator.
pub(crate) struct LatencyBook {
    exact: bool,
    pub(crate) done: usize,
    queue_us_sum: f64,
    service_us_sum: f64,
    streaming: StreamingLatency,
    pub(crate) per_request: Vec<RequestMetric>,
}

impl LatencyBook {
    pub(crate) fn new(mode: MetricsMode, requests: usize) -> Self {
        let exact = mode == MetricsMode::Exact;
        Self {
            exact,
            done: 0,
            queue_us_sum: 0.0,
            service_us_sum: 0.0,
            streaming: StreamingLatency::new(),
            per_request: Vec::with_capacity(if exact { requests } else { 0 }),
        }
    }

    pub(crate) fn record(&mut self, m: RequestMetric) {
        self.done += 1;
        self.queue_us_sum += m.start_us - m.arrival_us;
        self.service_us_sum += m.completion_us - m.start_us;
        if self.exact {
            self.per_request.push(m);
        } else {
            self.streaming.observe(m.completion_us - m.arrival_us);
        }
    }

    /// The latency distribution: exact nearest-rank over the records, or
    /// the streaming estimates.
    pub(crate) fn latency(&self) -> LatencyStats {
        if self.exact {
            let latencies: Vec<f64> = self
                .per_request
                .iter()
                .map(RequestMetric::latency_us)
                .collect();
            LatencyStats::of(&latencies)
        } else {
            self.streaming.stats()
        }
    }

    pub(crate) fn queue_us_mean(&self) -> f64 {
        self.queue_us_sum / self.done.max(1) as f64
    }

    pub(crate) fn service_us_mean(&self) -> f64 {
        self.service_us_sum / self.done.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(concurrency: usize, requests: usize) -> Workload {
        Workload::ClosedLoop {
            concurrency,
            requests,
            think_us: 5.0,
        }
    }

    fn core(tables: &[&[f64]], workload: &Workload) -> Result<Core<usize, char>, ServeError> {
        Core::new(tables.iter().copied(), "service time", workload, 'a')
    }

    #[test]
    fn tables_and_workload_are_validated_in_order() {
        let w = closed(1, 1);
        assert_eq!(core(&[], &w).err(), Some(ServeError::NoShards));
        let empty = core(&[&[1.0], &[]], &w).err();
        assert!(matches!(
            empty,
            Some(ServeError::BadServiceTable { shard: 1, .. })
        ));
        // Tables are checked before the (here also invalid) workload.
        let bad_workload = closed(0, 1);
        let negative = core(&[&[-1.0]], &bad_workload).err();
        assert!(matches!(
            negative,
            Some(ServeError::BadServiceTable { shard: 0, .. })
        ));
        assert!(matches!(
            core(&[&[1.0]], &bad_workload).err(),
            Some(ServeError::InvalidWorkload(_))
        ));
    }

    #[test]
    fn closed_loop_clients_issue_then_reissue_within_the_request_budget() {
        let mut c = core(&[&[1.0]], &closed(2, 5)).unwrap();
        assert_eq!(c.events.len(), 2, "one first request per client");
        assert_eq!((c.arrive(), c.arrive()), (0, 1));
        assert_eq!(c.events.len(), 2, "closed-loop arrivals pull nothing");
        c.reissue(10.0, 2);
        c.reissue(20.0, 4);
        assert_eq!(
            c.events.len(),
            5,
            "three more requests, however many resolve"
        );
        assert_eq!(c.events.pop(), Some((0.0, 'a')));
        assert_eq!(c.events.pop(), Some((0.0, 'a')));
        assert_eq!(c.events.pop(), Some((15.0, 'a')));
    }

    #[test]
    fn open_arrivals_are_pulled_one_at_a_time() {
        let w = Workload::Poisson {
            rate_rps: 1e6,
            requests: 3,
            seed: 1,
        };
        let mut c = core(&[&[1.0]], &w).unwrap();
        let expected: Vec<f64> = w.open_arrivals().unwrap().collect();
        let mut seen = Vec::new();
        while let Some((t, _)) = c.events.pop() {
            seen.push(t);
            c.arrive();
            assert!(c.events.len() <= 1, "one pending arrival at a time");
        }
        assert_eq!(seen, expected);
    }

    #[test]
    fn shards_serve_their_own_queue_before_the_central_one() {
        let mut c = core(&[&[1.0], &[1.0]], &closed(1, 1)).unwrap();
        c.events.pop();
        c.start(0, 10, 0.0, 4.0, 'd');
        c.enqueue(0, 11, 4.0);
        c.central.push_back(12);
        let views = c.views(1.0, |i| (i == 0, 4.0)).to_vec();
        assert_eq!(views[0].depth, 2);
        assert_eq!(views[0].backlog_us, 3.0 + 4.0);
        assert!(!views[1].healthy && views[1].idle);
        assert_eq!(c.events.pop(), Some((4.0, 'd')));
        assert_eq!(c.finish(0, 4.0), 0.0);
        assert_eq!(c.next_for(0, |_| 4.0), Some(11));
        assert_eq!(c.shards[0].queued_work_us, 0.0);
        assert_eq!(c.next_for(0, |_| unreachable!()), Some(12));
        assert_eq!(c.next_for(0, |_| unreachable!()), None);
        assert_eq!((c.shards[0].served, c.shards[0].busy_us), (1, 4.0));
        assert_eq!(c.makespan_us, 4.0);
    }

    #[test]
    fn a_batch_starts_from_the_queue_head_and_an_abort_books_no_service() {
        let mut c = core(&[&[1.0]], &closed(1, 1)).unwrap();
        for item in 0..3 {
            c.enqueue(0, item, 1.0);
        }
        c.start_batch(0, 2, 1.0, 6.0, 'b');
        assert_eq!(c.shards[0].in_service, vec![0, 1]);
        assert_eq!(c.shards[0].depth(), 3);
        assert_eq!(c.abort(0, 3.0), 1.0);
        assert_eq!((c.shards[0].served, c.shards[0].busy_us), (0, 2.0));
        assert!(!c.shards[0].busy());
    }
}
