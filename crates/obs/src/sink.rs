//! Trace sinks: where emitted spans go.
//!
//! Instrumented code holds a `&dyn TraceSink` and guards every span
//! construction behind [`TraceSink::enabled`], so the disabled path is
//! one virtual call returning a constant `false` — no span is built,
//! nothing is allocated. Hot loops record through a [`SpanBuffer`],
//! which stages spans in a plain `Vec` it reuses and hands the sink
//! whole runs ([`TraceSink::record_many`]) — one sink call, so one lock
//! for a locking sink, per ~256 spans. The obs bench enforces both
//! paths as overhead oracles (≤ 1% disabled, ≤ 10% recording).

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::span::Span;

/// Spans staged in a [`SpanBuffer`] before it hands the sink a chunk.
const SPAN_BUFFER_CHUNK: usize = 256;

/// Receives spans from instrumented code.
///
/// `record` takes `&self` because emitters (session workers, the
/// partitioned machine) run under shared references, possibly from
/// several threads; sinks that buffer must manage their own interior
/// mutability.
pub trait TraceSink: Sync {
    /// Whether spans should be built at all. Emitters check this before
    /// constructing a [`Span`], so a disabled sink costs one virtual
    /// call per would-be span and nothing else.
    fn enabled(&self) -> bool;

    /// Accepts one span. Never called by well-behaved emitters when
    /// [`enabled`](Self::enabled) is false.
    fn record(&self, span: Span);

    /// Accepts a run of spans in order — equivalent to recording each
    /// in sequence. Emitters that build several spans per event use
    /// this so buffering sinks can take one lock for the whole run.
    fn record_many(&self, spans: &[Span]) {
        for span in spans {
            self.record(*span);
        }
    }
}

/// The disabled sink: tracing compiled in, turned off. Untraced entry
/// points delegate to their traced twins with a `NullSink`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _span: Span) {}
}

/// An emitter-side staging buffer for recording hot loops.
///
/// Spans accumulate in a plain `Vec` — no lock, no virtual call — and
/// go to the sink a whole chunk at a time via
/// [`TraceSink::record_many`]. A loop recording through one of these
/// pays one sink interaction per ~256 spans, and the `Vec` keeps its
/// capacity across flushes, so a buffer allocates once, at its first
/// span. The sink's `enabled` flag is cached at construction (sinks do
/// not toggle mid-run), so the disabled check is a plain bool load.
///
/// Flushes on drop; call [`flush`](Self::flush) earlier if the sink
/// must be complete at a known point (e.g. before exporting).
pub struct SpanBuffer<'a> {
    sink: &'a dyn TraceSink,
    enabled: bool,
    buf: Vec<Span>,
}

impl<'a> SpanBuffer<'a> {
    /// A buffer staging spans for `sink`.
    pub fn new(sink: &'a dyn TraceSink) -> Self {
        Self {
            sink,
            enabled: sink.enabled(),
            buf: Vec::new(),
        }
    }

    /// Whether the underlying sink wants spans (cached; a bool load).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Stages one span; hands the sink a chunk when one fills. A no-op
    /// when the sink is disabled, so unguarded calls are merely the
    /// cost of constructing the span.
    #[inline]
    pub fn record(&mut self, span: Span) {
        if !self.enabled {
            return;
        }
        if self.buf.capacity() == 0 {
            self.buf.reserve_exact(SPAN_BUFFER_CHUNK);
        }
        self.buf.push(span);
        if self.buf.len() == SPAN_BUFFER_CHUNK {
            self.flush();
        }
    }

    /// Hands any staged spans to the sink now, keeping the buffer's
    /// capacity for the next chunk.
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.sink.record_many(&self.buf);
            self.buf.clear();
        }
    }
}

impl Drop for SpanBuffer<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for SpanBuffer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanBuffer")
            .field("enabled", &self.enabled)
            .field("staged", &self.buf.len())
            .finish()
    }
}

/// A bounded in-memory recorder: the newest `capacity` spans, oldest
/// dropped first (with a drop counter so truncation is visible, never
/// silent). Storage is one flat ring preallocated at construction —
/// trace storage wants to be a single long-lived block the OS can back
/// with huge pages, not a trail of small allocations faulted in
/// mid-run — and [`clear`](Self::clear) keeps it, so one recorder can
/// serve many runs at steady-state cost. A single mutex around the
/// ring keeps recording deterministic: spans come out in exactly the
/// order they went in.
#[derive(Debug)]
pub struct RingRecorder {
    inner: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    spans: VecDeque<Span>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, span: Span) {
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span);
    }
}

impl RingRecorder {
    /// A recorder keeping at most `capacity` spans (minimum 1). The
    /// full backing store is allocated here, up front.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(Ring {
                spans: VecDeque::with_capacity(capacity),
                capacity,
                dropped: 0,
            }),
        }
    }

    /// Recorded spans, oldest first. A snapshot — the recorder can keep
    /// receiving afterwards.
    pub fn spans(&self) -> Vec<Span> {
        let ring = self.inner.lock().expect("recorder poisoned");
        ring.spans.iter().copied().collect()
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder poisoned").spans.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("recorder poisoned").dropped
    }

    /// Discards everything recorded so far (spans and the drop
    /// counter), keeping the backing store. Lets one long-lived
    /// recorder — its pages already faulted in — serve many runs,
    /// which is how the obs bench measures steady-state tracing
    /// overhead.
    pub fn clear(&self) {
        let mut ring = self.inner.lock().expect("recorder poisoned");
        ring.spans.clear();
        ring.dropped = 0;
    }
}

impl TraceSink for RingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, span: Span) {
        let mut ring = self.inner.lock().expect("recorder poisoned");
        ring.push(span);
    }

    fn record_many(&self, spans: &[Span]) {
        let mut ring = self.inner.lock().expect("recorder poisoned");
        let n = spans.len();
        if n >= ring.capacity {
            // The run alone overflows: only its newest `capacity` spans
            // can survive.
            ring.dropped += (ring.spans.len() + n - ring.capacity) as u64;
            let keep = n - ring.capacity;
            ring.spans.clear();
            ring.spans.extend(spans[keep..].iter().copied());
        } else {
            // Evict in bulk, then bulk-copy the run in. Spans are
            // `Copy`, so draining the front is an index advance, not a
            // per-element walk.
            let overflow = (ring.spans.len() + n).saturating_sub(ring.capacity);
            if overflow > 0 {
                ring.spans.drain(..overflow);
                ring.dropped += overflow as u64;
            }
            ring.spans.extend(spans.iter().copied());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{track, SpanKind};

    fn span(id: u64) -> Span {
        Span::new(
            id,
            SpanKind::Attempt,
            track::FLEET,
            1,
            id as f64,
            id as f64 + 1.0,
        )
    }

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.record(span(1)); // harmless even if called
    }

    #[test]
    fn ring_preserves_insertion_order() {
        let rec = RingRecorder::new(10);
        assert!(rec.is_empty());
        for i in 0..5 {
            rec.record(span(i));
        }
        let got: Vec<u64> = rec.spans().iter().map(|s| s.trace_id).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let rec = RingRecorder::new(3);
        for i in 0..7 {
            rec.record(span(i));
        }
        let got: Vec<u64> = rec.spans().iter().map(|s| s.trace_id).collect();
        assert_eq!(got, vec![4, 5, 6], "newest three survive");
        assert_eq!(rec.dropped(), 4);
        assert_eq!(rec.len(), 3);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let rec = RingRecorder::new(0);
        rec.record(span(1));
        rec.record(span(2));
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.spans()[0].trace_id, 2);
    }

    #[test]
    fn chunks_and_singles_interleave_in_order() {
        let rec = RingRecorder::new(100);
        rec.record(span(0));
        rec.record_many(&[span(1), span(2)]);
        rec.record(span(3));
        rec.record_many(&[span(4)]);
        rec.record_many(&[]); // ignored
        let got: Vec<u64> = rec.spans().iter().map(|s| s.trace_id).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(rec.len(), 5);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn chunk_eviction_matches_per_span_semantics() {
        let rec = RingRecorder::new(4);
        rec.record_many(&[span(0), span(1), span(2)]);
        rec.record_many(&[span(3), span(4)]);
        // 5 > 4: exactly the oldest span goes, same as singles would.
        let got: Vec<u64> = rec.spans().iter().map(|s| s.trace_id).collect();
        assert_eq!(got, vec![1, 2, 3, 4]);
        assert_eq!(rec.dropped(), 1);
        assert_eq!(rec.len(), 4);
    }

    #[test]
    fn oversized_single_chunk_keeps_the_newest_spans() {
        let rec = RingRecorder::new(3);
        rec.record_many(&(0..8).map(span).collect::<Vec<_>>());
        let got: Vec<u64> = rec.spans().iter().map(|s| s.trace_id).collect();
        assert_eq!(got, vec![5, 6, 7], "newest `capacity` spans survive");
        assert_eq!(rec.dropped(), 5);
    }

    #[test]
    fn span_buffer_flushes_full_chunks_and_on_drop() {
        let rec = RingRecorder::new(1 << 12);
        {
            let mut buf = SpanBuffer::new(&rec);
            assert!(buf.enabled());
            for i in 0..(SPAN_BUFFER_CHUNK as u64 + 10) {
                buf.record(span(i));
            }
            // One full chunk has landed; the remainder is still staged.
            assert_eq!(rec.len(), SPAN_BUFFER_CHUNK);
        }
        assert_eq!(rec.len(), SPAN_BUFFER_CHUNK + 10, "drop flushed the rest");
        let got: Vec<u64> = rec.spans().iter().map(|s| s.trace_id).collect();
        let want: Vec<u64> = (0..(SPAN_BUFFER_CHUNK as u64 + 10)).collect();
        assert_eq!(got, want, "order survives chunking");
    }

    /// A flush hands the sink its spans but keeps the staging `Vec`'s
    /// allocation: the next chunk reuses it.
    #[test]
    fn span_buffer_keeps_its_capacity_across_a_flush() {
        let rec = RingRecorder::new(1 << 12);
        let mut buf = SpanBuffer::new(&rec);
        for i in 0..SPAN_BUFFER_CHUNK as u64 {
            buf.record(span(i));
        }
        assert_eq!(rec.len(), SPAN_BUFFER_CHUNK, "a full chunk flushed");
        assert!(buf.buf.capacity() >= SPAN_BUFFER_CHUNK);
        buf.record(span(9));
        buf.flush();
        assert!(buf.buf.capacity() >= SPAN_BUFFER_CHUNK);
        assert_eq!(rec.len(), SPAN_BUFFER_CHUNK + 1);
    }

    #[test]
    fn clear_resets_spans_and_drop_counter() {
        let rec = RingRecorder::new(2);
        rec.record_many(&[span(0), span(1), span(2)]);
        assert!(rec.dropped() > 0);
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
        rec.record(span(9));
        assert_eq!(rec.len(), 1, "recorder keeps working after clear");
    }

    #[test]
    fn span_buffer_on_a_disabled_sink_stages_nothing() {
        let sink = NullSink;
        let mut buf = SpanBuffer::new(&sink);
        assert!(!buf.enabled());
        buf.record(span(1));
        buf.flush(); // nothing to move, nothing recorded
    }
}
