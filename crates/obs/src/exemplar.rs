//! Tail exemplars: the K slowest requests' full span sets.
//!
//! A p99 number says the tail is slow; an **exemplar** explains it with
//! a concrete trace. [`offline_top_k`] reads a recording (any
//! `TraceSink` capture), ranks every finished request — a trace id
//! with a `Request` span — by that span's duration, and keeps the K
//! slowest with every span recorded under their ids: exact, not
//! sampled.

use std::collections::BTreeMap;

use crate::span::{Span, SpanKind};

/// One kept exemplar: a finished request's latency and full span set.
#[derive(Clone, Debug, PartialEq)]
pub struct Exemplar {
    /// The request's trace id.
    pub trace_id: u64,
    /// The request span's duration, µs — the latency it is ranked by.
    pub latency_us: f64,
    /// Every span recorded for the trace id, in recording order —
    /// including spans recorded after the request closed (the machine
    /// re-run traces chip detail post hoc).
    pub spans: Vec<Span>,
}

/// The `k` slowest finished requests in `spans` (minimum 1), slowest
/// first, ties broken by ascending trace id so the result does not
/// depend on the order spans were recorded in. Trace ids without a
/// `Request` span (unfinished requests, batch-keyed infrastructure
/// spans) are never exemplars.
pub fn offline_top_k(spans: &[Span], k: usize) -> Vec<Exemplar> {
    let mut by_id: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        by_id.entry(s.trace_id).or_default().push(*s);
    }
    let mut finished: Vec<Exemplar> = by_id
        .into_iter()
        .filter_map(|(trace_id, spans)| {
            let request = spans.iter().find(|s| s.kind == SpanKind::Request)?;
            Some(Exemplar {
                trace_id,
                latency_us: request.duration_us(),
                spans,
            })
        })
        .collect();
    finished.sort_by(|a, b| {
        a.latency_us
            .total_cmp(&b.latency_us)
            .reverse()
            .then(a.trace_id.cmp(&b.trace_id))
    });
    finished.truncate(k.max(1));
    finished
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::track;

    fn request(id: u64, start: f64, latency: f64) -> Vec<Span> {
        vec![
            Span::new(id, SpanKind::Queued, track::FRONTEND, 1, start, start + 1.0),
            Span::new(
                id,
                SpanKind::Attempt,
                track::FLEET,
                1,
                start + 1.0,
                start + latency,
            ),
            Span::new(
                id,
                SpanKind::Request,
                track::FRONTEND,
                track::CONTROL,
                start,
                start + latency,
            ),
        ]
    }

    #[test]
    fn keeps_the_k_slowest_with_full_span_sets() {
        let latencies = [5.0, 30.0, 10.0, 20.0, 1.0];
        let all: Vec<Span> = latencies
            .iter()
            .enumerate()
            .flat_map(|(i, &l)| request(i as u64, i as f64 * 100.0, l))
            .collect();
        let kept = offline_top_k(&all, 2);
        assert_eq!(kept.len(), 2);
        assert_eq!(
            (kept[0].trace_id, kept[0].latency_us),
            (1, 30.0),
            "slowest first"
        );
        assert_eq!((kept[1].trace_id, kept[1].latency_us), (3, 20.0));
        assert_eq!(kept[0].spans, request(1, 100.0, 30.0), "full span set");
    }

    #[test]
    fn ties_break_on_trace_id_regardless_of_arrival_order() {
        let ids = [4u64, 1, 9, 2];
        let forward: Vec<Span> = ids.iter().flat_map(|&id| request(id, 0.0, 10.0)).collect();
        let mut backward = forward.clone();
        backward.reverse();
        let f: Vec<u64> = offline_top_k(&forward, 3)
            .iter()
            .map(|e| e.trace_id)
            .collect();
        let b: Vec<u64> = offline_top_k(&backward, 3)
            .iter()
            .map(|e| e.trace_id)
            .collect();
        assert_eq!(f, vec![1, 2, 4], "lowest ids win equal latencies");
        assert_eq!(f, b, "arrival order is irrelevant");
    }

    #[test]
    fn post_completion_spans_append_to_survivors_only() {
        // Request 2 is too fast to keep; chip detail for both is
        // recorded after the requests closed.
        let mut all = request(1, 0.0, 50.0);
        all.extend(request(2, 0.0, 5.0));
        let late = |id| Span::new(id, SpanKind::Vu, track::MACHINE, 1, 1.0, 2.0);
        all.extend([late(1), late(2)]);
        let kept = offline_top_k(&all, 1);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].trace_id, 1);
        assert_eq!(kept[0].spans.len(), 4, "late chip span kept");
        assert_eq!(kept[0].spans[3], late(1), "in recording order");
    }

    #[test]
    fn trace_ids_without_a_request_span_are_never_exemplars() {
        // In-flight requests and batch-keyed infrastructure spans carry
        // no `Request` span, however long they run.
        let mut all: Vec<Span> = (10..13u64)
            .map(|id| Span::new(id, SpanKind::Queued, track::FRONTEND, 1, 0.0, 1e6))
            .collect();
        all.extend(request(4, 0.0, 9.0));
        let kept = offline_top_k(&all, 5);
        assert_eq!(kept.len(), 1, "only the finished request");
        assert_eq!((kept[0].trace_id, kept[0].spans.len()), (4, 3));
        assert!(offline_top_k(&all[..3], 5).is_empty());
    }

    #[test]
    fn k_of_zero_is_clamped_to_one() {
        let mut all = request(7, 0.0, 3.0);
        all.extend(request(8, 0.0, 4.0));
        let kept = offline_top_k(&all, 0);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].trace_id, 8);
    }
}
