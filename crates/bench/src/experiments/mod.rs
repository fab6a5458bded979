//! One module per paper table/figure, plus the design-choice ablations
//! and the serving studies (beyond the paper): worker scaling, the
//! virtual-time latency-vs-load simulation, and model-parallel
//! partitioning of oversized networks.

pub mod ablations;
pub mod analyze;
pub mod batching;
pub mod fig6;
pub mod fig7;
pub mod fleet;
pub mod frontend;
pub mod kernel;
pub mod obs;
pub mod partition;
pub mod serve;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

use sparsenn_core::engine::InferenceBackend;
use sparsenn_core::model::fixedpoint::UvMode;
use sparsenn_core::TrainedSystem;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The per-sample modelled service times of one backend on the first
/// `batch` test samples — the bridge from the inference engine's clock
/// models to the serving simulators' service tables.
fn service_table(
    sys: &TrainedSystem,
    backend: Box<dyn InferenceBackend>,
    batch: usize,
) -> Vec<f64> {
    let mut table = Vec::with_capacity(batch);
    sys.session_with(backend)
        .stream_batch(batch, UvMode::On, |_, record| {
            table.push(record.time_us());
        })
        .expect("the study network fits every backend");
    table
}

/// Maps `f` over `items` on `engine::default_worker_count()` scoped
/// threads and returns the results in input order. Every thread is joined
/// before it returns, and a panic in `f` resumes on the caller.
///
/// The training experiments run their independent, seeded systems through
/// it, so their reports do not depend on the worker count. The wall-clock
/// studies never do: they time the host and must have it to themselves.
pub(crate) fn side_by_side<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = sparsenn_core::engine::default_worker_count().min(items.len());
    // The counter hands out indices only; results come back through join.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return mine;
                        };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::side_by_side;

    #[test]
    fn side_by_side_keeps_input_order() {
        let items: Vec<u64> = (0..37).collect();
        assert_eq!(
            side_by_side(&items, |&i| i * i),
            items.iter().map(|i| i * i).collect::<Vec<_>>()
        );
        assert!(side_by_side(&[] as &[u64], |&i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn side_by_side_resumes_a_worker_panic() {
        let items: Vec<u64> = (0..8).collect();
        side_by_side(&items, |&i| assert!(i != 5, "item {i}"));
    }
}
