//! Traffic and bandwidth statistics.
//!
//! Figure 9 of the paper plots fast- and slow-memory bandwidth over the
//! course of training; [`StatsTimeline`] buckets bytes moved per tier into
//! fixed time windows so the same plot can be regenerated.

use crate::{Ns, Tier};

/// One bandwidth sample: bytes moved per tier within one time bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BandwidthSample {
    /// Bucket start time.
    pub start_ns: Ns,
    /// Bytes read + written in fast memory during the bucket.
    pub fast_bytes: u64,
    /// Bytes read + written in slow memory during the bucket.
    pub slow_bytes: u64,
}

impl BandwidthSample {
    /// Fast-memory bandwidth over an elapsed width, in bytes/ns (== GB/s).
    ///
    /// Pass [`StatsTimeline::sample_width`] for the sample, not the raw
    /// bucket width: the final bucket of a run only spans up to the last
    /// recorded time. `width_ns` must be positive ([`StatsTimeline::new`]
    /// rejects zero bucket widths and `sample_width` never returns zero).
    #[must_use]
    pub fn fast_bw(&self, width_ns: Ns) -> f64 {
        self.fast_bytes as f64 / width_ns as f64
    }

    /// Slow-memory bandwidth over an elapsed width, in bytes/ns (== GB/s).
    #[must_use]
    pub fn slow_bw(&self, width_ns: Ns) -> f64 {
        self.slow_bytes as f64 / width_ns as f64
    }
}

/// Bytes-per-tier bucketed over simulated time.
///
/// Storage is offset-based: `buckets[0]` holds bucket index `origin`, and
/// the vector stays dense only across the *touched* span of the run. A
/// single record at a huge timestamp costs one bucket, not `O(time)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsTimeline {
    bucket_ns: Ns,
    /// Bucket index of `buckets[0]` (meaningless while `buckets` is empty).
    origin: u64,
    /// Latest time recorded, bounding the final sample's elapsed width.
    last_ns: Ns,
    buckets: Vec<BandwidthSample>,
}

impl StatsTimeline {
    /// A timeline with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_ns` is zero.
    #[must_use]
    pub fn new(bucket_ns: Ns) -> Self {
        assert!(bucket_ns > 0, "bucket width must be positive");
        StatsTimeline { bucket_ns, origin: 0, last_ns: 0, buckets: Vec::new() }
    }

    /// Start time of the bucket at absolute `index`.
    ///
    /// # Panics
    ///
    /// Panics if the start time overflows the nanosecond clock (unreachable
    /// for indices derived from a real `now`, which is where they all come
    /// from, but checked rather than silently wrapped).
    fn bucket_start(&self, index: u64) -> Ns {
        index.checked_mul(self.bucket_ns).expect("bucket start time overflows the ns clock")
    }

    /// Record `bytes` of traffic against `tier` at time `now`.
    pub fn record(&mut self, tier: Tier, bytes: u64, now: Ns) {
        let idx = now / self.bucket_ns;
        self.last_ns = self.last_ns.max(now);
        if self.buckets.is_empty() {
            self.origin = idx;
            self.buckets
                .push(BandwidthSample { start_ns: self.bucket_start(idx), ..Default::default() });
        } else if idx < self.origin {
            // Migration completions are recorded at their ready time, which
            // can precede traffic already recorded at poll time — extend the
            // dense span backwards.
            let mut front: Vec<BandwidthSample> = (idx..self.origin)
                .map(|i| BandwidthSample { start_ns: self.bucket_start(i), ..Default::default() })
                .collect();
            front.append(&mut self.buckets);
            self.buckets = front;
            self.origin = idx;
        } else {
            // Bulk-advance: an event-driven clock can jump the timeline far
            // forward in one record, so the gap is filled with one reserved
            // extend (an exact-size range iterator) rather than a push loop.
            let next = self.origin + self.buckets.len() as u64;
            if idx >= next {
                let bucket_ns = self.bucket_ns;
                self.buckets.extend((next..=idx).map(|i| BandwidthSample {
                    start_ns: i.checked_mul(bucket_ns).expect("bucket start time overflows the ns clock"),
                    ..Default::default()
                }));
            }
        }
        let slot = (idx - self.origin) as usize;
        match tier {
            Tier::Fast => self.buckets[slot].fast_bytes += bytes,
            Tier::Slow => self.buckets[slot].slow_bytes += bytes,
        }
    }

    /// Bucket width.
    #[must_use]
    pub fn bucket_ns(&self) -> Ns {
        self.bucket_ns
    }

    /// All samples in time order.
    #[must_use]
    pub fn samples(&self) -> &[BandwidthSample] {
        &self.buckets
    }

    /// Elapsed width of the sample at `index` in `samples()` order: the full
    /// bucket width for every bucket except the last, which only spans from
    /// its start to the latest recorded time. Always positive.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn sample_width(&self, index: usize) -> Ns {
        let sample = &self.buckets[index];
        if index + 1 == self.buckets.len() {
            (self.last_ns - sample.start_ns + 1).min(self.bucket_ns)
        } else {
            self.bucket_ns
        }
    }
}

/// Aggregate memory-system counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemStats {
    /// Bytes read from each tier (index via [`Tier::index`]).
    pub bytes_read: [u64; 2],
    /// Bytes written to each tier.
    pub bytes_written: [u64; 2],
    /// Main-memory accesses per tier (post cache filter).
    pub mm_accesses: [u64; 2],
    /// Accesses absorbed by the cache filter.
    pub cache_hits: u64,
    /// Simulated protection faults taken for profiling.
    pub profiling_faults: u64,
    /// Bytes migrated slow→fast.
    pub promoted_bytes: u64,
    /// Bytes migrated fast→slow.
    pub demoted_bytes: u64,
    /// Peak mapped pages per tier.
    pub peak_mapped_pages: [u64; 2],
}

impl MemStats {
    /// Total bytes that touched a given tier (reads + writes + migration traffic
    /// attributed at issue time).
    #[must_use]
    pub fn tier_bytes(&self, tier: Tier) -> u64 {
        self.bytes_read[tier.index()] + self.bytes_written[tier.index()]
    }

    /// Record the current mapped-page counts into the running peak.
    pub fn observe_mapped(&mut self, mapped: [u64; 2]) {
        for (peak, now) in self.peak_mapped_pages.iter_mut().zip(mapped) {
            *peak = (*peak).max(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_buckets_by_time() {
        let mut t = StatsTimeline::new(100);
        t.record(Tier::Fast, 10, 0);
        t.record(Tier::Fast, 5, 99);
        t.record(Tier::Slow, 7, 100);
        t.record(Tier::Fast, 1, 250);
        let s = t.samples();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].fast_bytes, 15);
        assert_eq!(s[0].slow_bytes, 0);
        assert_eq!(s[1].slow_bytes, 7);
        assert_eq!(s[2].fast_bytes, 1);
        assert_eq!(s[1].start_ns, 100);
        assert_eq!(s[2].start_ns, 200);
    }

    #[test]
    fn bandwidth_is_bytes_over_bucket() {
        let mut t = StatsTimeline::new(10);
        t.record(Tier::Fast, 100, 0);
        let s = t.samples()[0];
        assert!((s.fast_bw(10) - 10.0).abs() < 1e-9);
        assert_eq!(s.slow_bw(10), 0.0);
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn zero_bucket_panics() {
        let _ = StatsTimeline::new(0);
    }

    #[test]
    fn late_first_record_costs_one_bucket() {
        let mut t = StatsTimeline::new(100);
        t.record(Tier::Fast, 8, 1 << 60);
        let s = t.samples();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].start_ns, ((1u64 << 60) / 100) * 100);
        assert_eq!(s[0].fast_bytes, 8);
    }

    #[test]
    fn forward_jump_extends_densely_in_one_step() {
        // A time-skip spanning many buckets still yields a dense span with
        // correct start times, and in-range records allocate nothing new.
        let mut t = StatsTimeline::new(100);
        t.record(Tier::Fast, 1, 50);
        t.record(Tier::Slow, 2, 1_050);
        let s = t.samples();
        assert_eq!(s.len(), 11);
        for (i, sample) in s.iter().enumerate() {
            assert_eq!(sample.start_ns, 100 * i as Ns);
        }
        assert_eq!(s[0].fast_bytes, 1);
        assert_eq!(s[10].slow_bytes, 2);
        t.record(Tier::Fast, 4, 540);
        assert_eq!(t.samples().len(), 11);
        assert_eq!(t.samples()[5].fast_bytes, 4);
    }

    #[test]
    fn backward_record_extends_the_front_densely() {
        let mut t = StatsTimeline::new(100);
        t.record(Tier::Fast, 10, 550);
        t.record(Tier::Slow, 3, 210);
        let s = t.samples();
        assert_eq!(s.len(), 4);
        for (i, sample) in s.iter().enumerate() {
            assert_eq!(sample.start_ns, 200 + 100 * i as Ns);
        }
        assert_eq!(s[0].slow_bytes, 3);
        assert_eq!(s[3].fast_bytes, 10);
    }

    #[test]
    fn final_bucket_width_is_elapsed_not_nominal() {
        let mut t = StatsTimeline::new(100);
        t.record(Tier::Fast, 100, 0);
        t.record(Tier::Fast, 100, 149);
        assert_eq!(t.sample_width(0), 100);
        assert_eq!(t.sample_width(1), 50);
        let s = t.samples();
        assert!((s[1].fast_bw(t.sample_width(1)) - 2.0).abs() < 1e-9);
        // A lone sample at t=0 has elapsed width 1, never zero.
        let mut lone = StatsTimeline::new(100);
        lone.record(Tier::Slow, 5, 0);
        assert_eq!(lone.sample_width(0), 1);
    }

    #[test]
    fn peak_mapped_tracks_maximum() {
        let mut s = MemStats::default();
        s.observe_mapped([3, 10]);
        s.observe_mapped([5, 2]);
        assert_eq!(s.peak_mapped_pages, [5, 10]);
    }

    #[test]
    fn tier_bytes_sums_reads_and_writes() {
        let mut s = MemStats::default();
        s.bytes_read[Tier::Fast.index()] = 10;
        s.bytes_written[Tier::Fast.index()] = 4;
        assert_eq!(s.tier_bytes(Tier::Fast), 14);
        assert_eq!(s.tier_bytes(Tier::Slow), 0);
    }
}

sentinel_util::impl_to_json!(BandwidthSample { start_ns, fast_bytes, slow_bytes });

sentinel_util::impl_to_json!(MemStats {
    bytes_read,
    bytes_written,
    mm_accesses,
    cache_hits,
    profiling_faults,
    promoted_bytes,
    demoted_bytes,
    peak_mapped_pages,
});

impl sentinel_util::ToJson for StatsTimeline {
    fn to_json(&self) -> sentinel_util::Json {
        sentinel_util::Json::obj([
            ("bucket_ns", sentinel_util::ToJson::to_json(&self.bucket_ns)),
            ("samples", sentinel_util::ToJson::to_json(&self.buckets)),
        ])
    }
}
