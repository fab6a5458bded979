//! Fixed-capacity time-windowed event counters.
//!
//! A [`WindowSeries`] buckets a stream of timestamped events into
//! consecutive virtual-time windows of a fixed width, keeping per-window
//! counter deltas (events, good events). Capacity is fixed at
//! construction: when a new window opens beyond it, the oldest bucket is
//! evicted (counted, like `RingRecorder`'s drop counter, so truncation
//! is visible). The ring is what the burn-rate monitor
//! (`BurnRateMonitor`, in the sibling `slo` module) reads its fast/slow
//! windows from, and what a dashboard would render as a rate time
//! series.

/// One window's worth of accumulated events.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowBucket {
    /// Window index: the bucket covers
    /// `[index * window_us, (index + 1) * window_us)` of virtual time.
    pub index: u64,
    /// Events observed in the window.
    pub events: u64,
    /// Events flagged good (e.g. deadline met) in the window.
    pub good: u64,
}

impl WindowBucket {
    fn new(index: u64) -> Self {
        Self {
            index,
            events: 0,
            good: 0,
        }
    }

    /// Events not flagged good.
    pub fn missed(&self) -> u64 {
        self.events - self.good
    }
}

/// A bounded ring of consecutive time windows (see module docs).
#[derive(Clone, Debug)]
pub struct WindowSeries {
    window_us: f64,
    capacity: usize,
    /// Buckets in strictly increasing `index` order. Only touched
    /// windows materialize — quiet gaps cost nothing.
    buckets: Vec<WindowBucket>,
    evicted: u64,
    late: u64,
}

impl WindowSeries {
    /// A series of `window_us`-wide buckets keeping at most `capacity`
    /// of them (minimum 1 each; the window width is clamped to a
    /// positive minimum so indexing stays finite).
    pub fn new(window_us: f64, capacity: usize) -> Self {
        Self {
            window_us: if window_us.is_finite() && window_us > 1e-9 {
                window_us
            } else {
                1e-9
            },
            capacity: capacity.max(1),
            buckets: Vec::new(),
            evicted: 0,
            late: 0,
        }
    }

    /// The bucket width, µs.
    pub fn window_us(&self) -> f64 {
        self.window_us
    }

    /// Most buckets retained at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Window index a timestamp falls into.
    pub fn index_of(&self, t_us: f64) -> u64 {
        (t_us.max(0.0) / self.window_us) as u64
    }

    /// Folds in one event at `t_us`.
    pub fn count(&mut self, t_us: f64, good: bool) {
        if let Some(bucket) = self.bucket_at(self.index_of(t_us)) {
            bucket.events += 1;
            bucket.good += u64::from(good);
        }
    }

    /// The bucket for `index`, creating (and evicting) as needed.
    /// Returns `None` — and counts the event as late — when `index`
    /// predates the oldest retained bucket, which can only happen after
    /// an eviction (the virtual clocks driving a series are
    /// non-decreasing per stream, but two streams may interleave).
    fn bucket_at(&mut self, index: u64) -> Option<&mut WindowBucket> {
        if let Some(oldest) = self.buckets.first() {
            if index < oldest.index {
                self.late += 1;
                return None;
            }
        }
        // Find the insertion point from the back — observations arrive
        // in (nearly) non-decreasing time order, so this is O(1) on the
        // hot path.
        let mut pos = self.buckets.len();
        while pos > 0 && self.buckets[pos - 1].index > index {
            pos -= 1;
        }
        if pos == 0 || self.buckets[pos - 1].index != index {
            self.buckets.insert(pos, WindowBucket::new(index));
            if self.buckets.len() > self.capacity {
                self.buckets.remove(0);
                self.evicted += 1;
                if pos == 0 {
                    // The bucket we just made was the one evicted.
                    self.late += 1;
                    return None;
                }
                pos -= 1;
            }
        } else {
            pos -= 1;
        }
        Some(&mut self.buckets[pos])
    }

    /// Retained buckets, oldest first.
    pub fn buckets(&self) -> &[WindowBucket] {
        &self.buckets
    }

    /// Buckets evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Observations dropped because their window was already evicted.
    pub fn late(&self) -> u64 {
        self.late
    }

    /// `(events, good)` summed over the retained buckets that overlap
    /// `[now_us - span_us, now_us]` — the sliding-window read the burn
    /// monitor takes. Bucketed, so the window edge quantizes to bucket
    /// boundaries: a bucket counts when it ends after the window start
    /// and starts at or before `now_us`.
    pub fn window_totals(&self, now_us: f64, span_us: f64) -> (u64, u64) {
        let from = now_us - span_us.max(0.0);
        let (mut events, mut good) = (0, 0);
        for b in &self.buckets {
            let start = b.index as f64 * self.window_us;
            let end = start + self.window_us;
            if end > from && start <= now_us {
                events += b.events;
                good += b.good;
            }
        }
        (events, good)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_their_windows() {
        let mut s = WindowSeries::new(10.0, 8);
        s.count(0.0, true);
        s.count(9.999, false);
        s.count(10.0, true);
        s.count(25.0, true);
        let b = s.buckets();
        assert_eq!(b.len(), 3);
        assert_eq!((b[0].index, b[0].events, b[0].good), (0, 2, 1));
        assert_eq!(b[0].missed(), 1);
        assert_eq!((b[1].index, b[1].events), (1, 1));
        assert_eq!((b[2].index, b[2].events), (2, 1));
        assert_eq!(s.evicted(), 0);
        assert_eq!(s.late(), 0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_late_arrivals() {
        let mut s = WindowSeries::new(1.0, 3);
        for t in 0..5 {
            s.count(t as f64, true);
        }
        let kept: Vec<u64> = s.buckets().iter().map(|b| b.index).collect();
        assert_eq!(kept, vec![2, 3, 4], "newest three windows survive");
        assert_eq!(s.evicted(), 2);
        s.count(0.5, true); // window 0 is long gone
        assert_eq!(s.late(), 1);
        assert_eq!(s.buckets().len(), 3, "late arrival creates nothing");
    }

    #[test]
    fn quiet_gaps_cost_no_buckets() {
        let mut s = WindowSeries::new(1.0, 4);
        s.count(0.0, true);
        s.count(1000.0, true);
        assert_eq!(s.buckets().len(), 2, "only touched windows materialize");
        assert_eq!(s.evicted(), 0, "a gap is not an eviction");
    }

    #[test]
    fn window_totals_slide_over_the_ring() {
        let mut s = WindowSeries::new(10.0, 16);
        for i in 0..10u64 {
            let good = i % 2 == 0;
            s.count(i as f64 * 10.0 + 5.0, good);
        }
        assert_eq!(s.window_totals(95.0, 1000.0), (10, 5), "everything");
        // Span 30 ending at 95: window start 65 falls inside bucket 6
        // ([60, 70)), and edges quantize to whole buckets — 6..=9.
        assert_eq!(s.window_totals(95.0, 30.0), (4, 2));
        assert_eq!(s.window_totals(95.0, 0.0), (1, 0), "just the live bucket");
        assert_eq!(s.window_totals(-5.0, 10.0), (0, 0), "before time zero");
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let s = WindowSeries::new(0.0, 0);
        assert!(s.window_us() > 0.0);
        assert_eq!(s.capacity(), 1);
        let mut s = WindowSeries::new(f64::NAN, 2);
        s.count(1.0, true); // finite indexing even with a NaN width ask
        assert_eq!(s.buckets().len(), 1);
    }
}
