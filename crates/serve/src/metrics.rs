//! Serving metrics: atomic counters plus streaming log2-bucket
//! histograms.
//!
//! Everything here is lock-free (`Relaxed` atomics) so recording from
//! flow workers and connection threads never contends with the request
//! path. A [`MetricsSnapshot`] is taken with plain loads and serialized
//! to a canonical `stats/v1` text block — the payload of the `STATS`
//! verb — which parses back losslessly so clients and tests can check
//! server-side counters against their own accounting.
//!
//! Histograms bucket by position of the value's highest set bit (bucket
//! `i` holds values in `[2^(i-1), 2^i)`, bucket 0 holds zero), so
//! quantiles are upper bounds accurate to 2x — plenty for latency
//! reporting without per-sample storage.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use asicgap::{FlowStage, StageReuse};
use asicgap_tech::text::{self, Lines, TextError, Tokens};

use crate::proto::ProtoError;

/// Stage-cache checkpoint labels, [`StageReuse::entries`] order.
pub const STAGE_CACHE_NAMES: [&str; 4] = ["synth", "pipeline", "place", "route"];

/// Number of log2 buckets: bucket 0 is zero, bucket 64 is values with
/// the top bit set.
const BUCKETS: usize = 65;

/// A streaming histogram over `u64` samples (typically microseconds).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Histogram::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Freezes the histogram into a snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen view of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Upper bound of the bucket containing quantile `q` (0.0–1.0);
    /// zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                // Bucket i holds [2^(i-1), 2^i); upper bound capped at
                // max. Bucket 64's bound is u64::MAX, which `1 << 64`
                // cannot spell.
                let upper = if i == 0 { 0 } else { u64::MAX >> (64 - i) };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Componentwise sum of two snapshots (bucket counts add, `max`
    /// takes the larger) — how the router aggregates shard histograms.
    /// The addends are whatever a shard sent, so every sum saturates.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = self.buckets;
        for (slot, &n) in buckets.iter_mut().zip(&other.buckets) {
            *slot = slot.saturating_add(n);
        }
        HistogramSnapshot {
            count: self.count.saturating_add(other.count),
            sum: self.sum.saturating_add(other.sum),
            max: self.max.max(other.max),
            buckets,
        }
    }

    fn canonical_line(&self) -> String {
        let mut sparse = String::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                if !sparse.is_empty() {
                    sparse.push(',');
                }
                sparse.push_str(&format!("{i}:{n}"));
            }
        }
        if sparse.is_empty() {
            sparse.push('-');
        }
        format!(
            "count {} sum {} max {} p50 {} p99 {} buckets {}",
            self.count,
            self.sum,
            self.max,
            self.p50(),
            self.p99(),
            sparse
        )
    }

    /// Inverse of [`HistogramSnapshot::canonical_line`]: sparse buckets
    /// in ascending order, and a summary that matches them.
    fn parse_line(line: &str) -> Result<HistogramSnapshot, TextError> {
        let mut t = Tokens::new(line);
        let mut named = |name: &str| -> Result<u64, TextError> {
            t.word(name)?;
            t.num()
        };
        let (count, sum, max) = (named("count")?, named("sum")?, named("max")?);
        let (p50, p99) = (named("p50")?, named("p99")?);
        t.word("buckets")?;
        let sparse = t.token()?;
        t.end()?;
        let mut buckets = [0u64; BUCKETS];
        let (mut total, mut next) = (0u64, 0usize);
        for pair in sparse.split(',').filter(|_| sparse != "-") {
            let (i, n) =
                (pair.split_once(':')).ok_or_else(|| TextError::new(format!("bucket {pair:?}")))?;
            let (i, n): (usize, u64) = (text::num(i)?, text::num(n)?);
            if i < next || i >= BUCKETS || n == 0 {
                return Err(TextError::new(format!("bucket {pair:?} out of order")));
            }
            (buckets[i], next) = (n, i + 1);
            total = (total.checked_add(n)).ok_or_else(|| TextError::new("bucket overflow"))?;
        }
        let snap = HistogramSnapshot {
            count,
            sum,
            max,
            buckets,
        };
        // The summary must be consistent with the buckets it claims.
        if total != count || snap.p50() != p50 || snap.p99() != p99 {
            return Err(TextError::new(format!(
                "summary disagrees with buckets in {line:?}"
            )));
        }
        Ok(snap)
    }
}

/// All serving counters and histograms, shared across worker and
/// connection threads.
#[derive(Default)]
pub struct Metrics {
    /// Total `RUN` requests admitted for consideration.
    pub requests: AtomicU64,
    /// Served straight from the result cache.
    pub cache_hits: AtomicU64,
    /// Not found in cache (includes dedup joins and fresh computes).
    pub cache_misses: AtomicU64,
    /// Requests that joined an identical in-flight job.
    pub dedup_joins: AtomicU64,
    /// Requests rejected by admission control.
    pub busy_rejections: AtomicU64,
    /// Jobs that completed a flow run successfully.
    pub completed: AtomicU64,
    /// Jobs that failed with a flow error.
    pub errors: AtomicU64,
    /// Jobs abandoned at a stage boundary by their deadline.
    pub cancelled: AtomicU64,
    /// Current queue depth (maintained by the scheduler).
    pub queue_depth: AtomicU64,
    /// Whole outcomes served from the persistent L2 store after an L1
    /// (in-memory LRU) miss.
    pub l2_hits: AtomicU64,
    /// Outcome lookups that missed both L1 and L2.
    pub l2_misses: AtomicU64,
    /// Stage-cache checkpoint hits, [`STAGE_CACHE_NAMES`] order.
    pub stage_cache_hits: [AtomicU64; 4],
    /// Stage-cache checkpoint misses, [`STAGE_CACHE_NAMES`] order.
    pub stage_cache_misses: [AtomicU64; 4],
    /// Queue depth sampled at every enqueue.
    pub queue_depth_hist: Histogram,
    /// End-to-end job latency, microseconds (submit to completion).
    pub latency_us: Histogram,
    /// Per-flow-stage wall time, microseconds, indexed by
    /// [`FlowStage::index`].
    pub stage_us: [Histogram; FlowStage::ALL.len()],
}

impl Metrics {
    /// Records one stage wall time from a flow observer.
    pub fn record_stage(&self, stage: FlowStage, elapsed: Duration) {
        self.stage_us[stage.index()].record(elapsed.as_micros() as u64);
    }

    /// Records which checkpoints a staged run reused.
    pub fn record_reuse(&self, reuse: &StageReuse) {
        for (i, (_, state)) in reuse.entries().iter().enumerate() {
            match state {
                Some(true) => self.stage_cache_hits[i].fetch_add(1, Ordering::Relaxed),
                Some(false) => self.stage_cache_misses[i].fetch_add(1, Ordering::Relaxed),
                None => continue,
            };
        }
    }

    /// Takes a consistent-enough snapshot (individual loads are atomic;
    /// cross-counter skew is bounded by in-flight requests).
    pub fn snapshot(&self, cache_entries: usize, cache_bytes: usize) -> MetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            requests: load(&self.requests),
            cache_hits: load(&self.cache_hits),
            cache_misses: load(&self.cache_misses),
            dedup_joins: load(&self.dedup_joins),
            busy_rejections: load(&self.busy_rejections),
            completed: load(&self.completed),
            errors: load(&self.errors),
            cancelled: load(&self.cancelled),
            queue_depth: load(&self.queue_depth),
            cache_entries: cache_entries as u64,
            cache_bytes: cache_bytes as u64,
            l2_hits: load(&self.l2_hits),
            l2_misses: load(&self.l2_misses),
            stage_cache: std::array::from_fn(|i| {
                (
                    load(&self.stage_cache_hits[i]),
                    load(&self.stage_cache_misses[i]),
                )
            }),
            queue_depth_hist: self.queue_depth_hist.snapshot(),
            latency_us: self.latency_us.snapshot(),
            stage_us: std::array::from_fn(|i| self.stage_us[i].snapshot()),
        }
    }
}

/// Frozen, serializable view of [`Metrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`Metrics::requests`].
    pub requests: u64,
    /// See [`Metrics::cache_hits`].
    pub cache_hits: u64,
    /// See [`Metrics::cache_misses`].
    pub cache_misses: u64,
    /// See [`Metrics::dedup_joins`].
    pub dedup_joins: u64,
    /// See [`Metrics::busy_rejections`].
    pub busy_rejections: u64,
    /// See [`Metrics::completed`].
    pub completed: u64,
    /// See [`Metrics::errors`].
    pub errors: u64,
    /// See [`Metrics::cancelled`].
    pub cancelled: u64,
    /// See [`Metrics::queue_depth`].
    pub queue_depth: u64,
    /// Entries resident in the result cache.
    pub cache_entries: u64,
    /// Bytes charged against the cache budget.
    pub cache_bytes: u64,
    /// See [`Metrics::l2_hits`].
    pub l2_hits: u64,
    /// See [`Metrics::l2_misses`].
    pub l2_misses: u64,
    /// Per-checkpoint stage-cache `(hits, misses)`,
    /// [`STAGE_CACHE_NAMES`] order.
    pub stage_cache: [(u64, u64); 4],
    /// Queue depth distribution.
    pub queue_depth_hist: HistogramSnapshot,
    /// End-to-end latency distribution (µs).
    pub latency_us: HistogramSnapshot,
    /// Per-stage wall-time distributions (µs), [`FlowStage::ALL`] order.
    pub stage_us: [HistogramSnapshot; FlowStage::ALL.len()],
}

impl MetricsSnapshot {
    fn rate(hits: u64, misses: u64) -> f64 {
        let looked = hits.saturating_add(misses);
        if looked == 0 {
            0.0
        } else {
            hits as f64 / looked as f64
        }
    }

    /// L1 (in-memory LRU) cache hit rate over all lookups; 0.0 when
    /// none.
    pub fn hit_rate(&self) -> f64 {
        MetricsSnapshot::rate(self.cache_hits, self.cache_misses)
    }

    /// L2 (persistent store) outcome hit rate over L1 misses; 0.0 when
    /// none.
    pub fn l2_hit_rate(&self) -> f64 {
        MetricsSnapshot::rate(self.l2_hits, self.l2_misses)
    }

    /// Stage-cache hit rate across all consulted checkpoints; 0.0 when
    /// none were consulted.
    pub fn stage_hit_rate(&self) -> f64 {
        let stages = self.stage_cache.iter();
        let hits = stages.clone().fold(0u64, |a, &(h, _)| a.saturating_add(h));
        let misses = stages.fold(0u64, |a, &(_, m)| a.saturating_add(m));
        MetricsSnapshot::rate(hits, misses)
    }

    /// Componentwise saturating sum of two snapshots — how the router
    /// answers `STATS` as the aggregate of every shard's counters.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.saturating_add(other.requests),
            cache_hits: self.cache_hits.saturating_add(other.cache_hits),
            cache_misses: self.cache_misses.saturating_add(other.cache_misses),
            dedup_joins: self.dedup_joins.saturating_add(other.dedup_joins),
            busy_rejections: self.busy_rejections.saturating_add(other.busy_rejections),
            completed: self.completed.saturating_add(other.completed),
            errors: self.errors.saturating_add(other.errors),
            cancelled: self.cancelled.saturating_add(other.cancelled),
            queue_depth: self.queue_depth.saturating_add(other.queue_depth),
            cache_entries: self.cache_entries.saturating_add(other.cache_entries),
            cache_bytes: self.cache_bytes.saturating_add(other.cache_bytes),
            l2_hits: self.l2_hits.saturating_add(other.l2_hits),
            l2_misses: self.l2_misses.saturating_add(other.l2_misses),
            stage_cache: std::array::from_fn(|i| {
                (
                    self.stage_cache[i].0.saturating_add(other.stage_cache[i].0),
                    self.stage_cache[i].1.saturating_add(other.stage_cache[i].1),
                )
            }),
            queue_depth_hist: self.queue_depth_hist.merge(&other.queue_depth_hist),
            latency_us: self.latency_us.merge(&other.latency_us),
            stage_us: std::array::from_fn(|i| self.stage_us[i].merge(&other.stage_us[i])),
        }
    }

    /// Parses the canonical `stats/v1` text produced by `Display`.
    /// Histogram lines carry their sparse buckets, so a parsed snapshot
    /// re-serializes byte-identically and its quantiles are exact.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] on any structural deviation, including
    /// a histogram summary inconsistent with its own buckets.
    pub fn parse(text: &str) -> Result<MetricsSnapshot, ProtoError> {
        let mut lines = Lines::open(text, "stats/v1")?;
        let empty = Histogram::default().snapshot();
        let mut snap = MetricsSnapshot {
            requests: lines.num("requests")?,
            cache_hits: lines.num("cache_hits")?,
            cache_misses: lines.num("cache_misses")?,
            dedup_joins: lines.num("dedup_joins")?,
            busy_rejections: lines.num("busy_rejections")?,
            completed: lines.num("completed")?,
            errors: lines.num("errors")?,
            cancelled: lines.num("cancelled")?,
            queue_depth: lines.num("queue_depth")?,
            cache_entries: lines.num("cache_entries")?,
            cache_bytes: lines.num("cache_bytes")?,
            l2_hits: lines.num("l2_hits")?,
            l2_misses: lines.num("l2_misses")?,
            stage_cache: [(0, 0); 4],
            queue_depth_hist: empty,
            latency_us: empty,
            stage_us: [empty; FlowStage::ALL.len()],
        };
        // The hit-rate lines are derived from the counters: accept them
        // only as the recomputation spells them.
        lines.expect(&format!("l1_hit_rate {:?}", snap.hit_rate()))?;
        lines.expect(&format!("l2_hit_rate {:?}", snap.l2_hit_rate()))?;
        for (name, slot) in STAGE_CACHE_NAMES.iter().zip(&mut snap.stage_cache) {
            let mut t = Tokens::new(lines.field(&format!("stage_cache_{name}"))?);
            *slot = (t.num()?, t.num()?);
            t.end()?;
        }
        let mut hist = |name: &str| HistogramSnapshot::parse_line(lines.field(name)?);
        snap.queue_depth_hist = hist("queue_depth_hist")?;
        snap.latency_us = hist("latency_us")?;
        for (slot, stage) in snap.stage_us.iter_mut().zip(FlowStage::ALL) {
            *slot = hist(&format!("stage_{}", stage.label()))?;
        }
        lines.end()?;
        Ok(snap)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "stats/v1")?;
        writeln!(f, "requests {}", self.requests)?;
        writeln!(f, "cache_hits {}", self.cache_hits)?;
        writeln!(f, "cache_misses {}", self.cache_misses)?;
        writeln!(f, "dedup_joins {}", self.dedup_joins)?;
        writeln!(f, "busy_rejections {}", self.busy_rejections)?;
        writeln!(f, "completed {}", self.completed)?;
        writeln!(f, "errors {}", self.errors)?;
        writeln!(f, "cancelled {}", self.cancelled)?;
        writeln!(f, "queue_depth {}", self.queue_depth)?;
        writeln!(f, "cache_entries {}", self.cache_entries)?;
        writeln!(f, "cache_bytes {}", self.cache_bytes)?;
        writeln!(f, "l2_hits {}", self.l2_hits)?;
        writeln!(f, "l2_misses {}", self.l2_misses)?;
        writeln!(f, "l1_hit_rate {:?}", self.hit_rate())?;
        writeln!(f, "l2_hit_rate {:?}", self.l2_hit_rate())?;
        for (name, &(h, m)) in STAGE_CACHE_NAMES.iter().zip(&self.stage_cache) {
            writeln!(f, "stage_cache_{name} {h} {m}")?;
        }
        writeln!(
            f,
            "queue_depth_hist {}",
            self.queue_depth_hist.canonical_line()
        )?;
        writeln!(f, "latency_us {}", self.latency_us.canonical_line())?;
        for (stage, h) in FlowStage::ALL.iter().zip(&self.stage_us) {
            writeln!(f, "stage_{} {}", stage.label(), h.canonical_line())?;
        }
        writeln!(f, "end")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bound_samples() {
        let h = Histogram::default();
        for v in [0u64, 1, 3, 7, 100, 1000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 101_111);
        assert_eq!(s.max, 100_000);
        assert!(s.p50() >= 7, "p50 {} must bound the median sample", s.p50());
        assert!(s.p50() <= 1000, "p50 {} overshoots", s.p50());
        assert_eq!(s.p99(), 100_000, "p99 lands in the max bucket");
        assert_eq!(s.quantile(0.0), 0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!((s.count, s.sum, s.max, s.p50(), s.p99()), (0, 0, 0, 0, 0));
    }

    #[test]
    fn top_bucket_samples_keep_their_bound_and_round_trip() {
        // Bucket 64 (top bit set) is what a peer's `buckets 64:1` names.
        let m = Metrics::default();
        m.latency_us.record(u64::MAX);
        let snap = m.snapshot(0, 0);
        assert_eq!(snap.latency_us.p50(), u64::MAX);
        assert_eq!(snap.latency_us.p99(), u64::MAX);
        let text = snap.to_string();
        assert!(text.contains("buckets 64:1"), "{text}");
        let back = MetricsSnapshot::parse(&text).expect("bucket 64 parses");
        assert_eq!(back.to_string(), text);
        // Two shards that each report near-full counters merge without
        // overflow, and the merge is still a stats/v1 document.
        let merged = back.merge(&back);
        assert_eq!(merged.latency_us.sum, u64::MAX);
        assert_eq!(merged.latency_us.count, 2);
        let text = merged.to_string();
        assert_eq!(MetricsSnapshot::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn snapshot_text_round_trips() {
        let m = Metrics::default();
        m.requests.store(100, Ordering::Relaxed);
        m.cache_hits.store(40, Ordering::Relaxed);
        m.cache_misses.store(60, Ordering::Relaxed);
        m.dedup_joins.store(10, Ordering::Relaxed);
        m.busy_rejections.store(5, Ordering::Relaxed);
        m.completed.store(50, Ordering::Relaxed);
        m.errors.store(2, Ordering::Relaxed);
        m.l2_hits.store(9, Ordering::Relaxed);
        m.l2_misses.store(51, Ordering::Relaxed);
        m.latency_us.record(12_345);
        m.latency_us.record(500);
        m.queue_depth_hist.record(3);
        m.record_stage(FlowStage::Synth, Duration::from_micros(111));
        m.record_stage(FlowStage::Sta, Duration::from_micros(2_222));
        // A warm request that reused everything up to place: three stage
        // hits, one miss, and one stage (pipeline here) not consulted.
        m.record_reuse(&StageReuse {
            synth: Some(true),
            pipeline: None,
            place: Some(true),
            route: Some(false),
        });
        m.record_reuse(&StageReuse {
            synth: Some(true),
            pipeline: Some(false),
            place: None,
            route: None,
        });
        let snap = m.snapshot(7, 4096);
        let text = snap.to_string();
        let back = MetricsSnapshot::parse(&text).expect("parses");
        // Scalars survive exactly; the re-serialized text is identical.
        assert_eq!(back.requests, 100);
        assert_eq!(back.cache_hits, 40);
        assert_eq!(back.cache_entries, 7);
        assert_eq!(back.cache_bytes, 4096);
        assert_eq!(back.l2_hits, 9);
        assert_eq!(back.l2_misses, 51);
        assert_eq!(back.stage_cache, [(2, 0), (0, 1), (1, 0), (0, 1)]);
        assert_eq!(back.latency_us.count, 2);
        assert_eq!(back.stage_us[FlowStage::Sta.index()].count, 1);
        assert_eq!(back.to_string(), text);
        assert!((snap.hit_rate() - 0.4).abs() < 1e-12);
        assert!((snap.l2_hit_rate() - 0.15).abs() < 1e-12);
        assert!((snap.stage_hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn snapshots_merge_counter_by_counter() {
        let a = Metrics::default();
        a.requests.store(10, Ordering::Relaxed);
        a.cache_hits.store(4, Ordering::Relaxed);
        a.l2_hits.store(2, Ordering::Relaxed);
        a.latency_us.record(100);
        a.record_reuse(&StageReuse {
            synth: Some(true),
            pipeline: Some(true),
            place: Some(false),
            route: Some(false),
        });
        let b = Metrics::default();
        b.requests.store(5, Ordering::Relaxed);
        b.cache_misses.store(3, Ordering::Relaxed);
        b.l2_misses.store(1, Ordering::Relaxed);
        b.latency_us.record(90_000);
        b.record_reuse(&StageReuse {
            synth: Some(false),
            pipeline: None,
            place: None,
            route: None,
        });
        let merged = a.snapshot(2, 64).merge(&b.snapshot(3, 128));
        assert_eq!(merged.requests, 15);
        assert_eq!(merged.cache_hits, 4);
        assert_eq!(merged.cache_misses, 3);
        assert_eq!(merged.l2_hits, 2);
        assert_eq!(merged.l2_misses, 1);
        assert_eq!(merged.stage_cache, [(1, 1), (1, 0), (0, 1), (0, 1)]);
        assert_eq!(merged.cache_entries, 5);
        assert_eq!(merged.cache_bytes, 192);
        assert_eq!(merged.latency_us.count, 2);
        assert_eq!(merged.latency_us.max, 90_000);
        // A merged snapshot is still a valid stats/v1 document.
        let text = merged.to_string();
        assert_eq!(MetricsSnapshot::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn malformed_stats_rejected() {
        let good = Metrics::default().snapshot(0, 0).to_string();
        assert!(MetricsSnapshot::parse(&good).is_ok());
        for broken in [
            "",
            "stats/v2\nend\n",
            &good.replace("cache_hits", "cash_hits"),
            &good.replace("end\n", ""),
            &format!("{good}junk\n"),
            &good[..good.len() / 2],
            // Bucket counts that overflow u64 cannot equal any `count`.
            &good.replace(
                "latency_us count 0 sum 0 max 0 p50 0 p99 0 buckets -",
                "latency_us count 1 sum 0 max 0 p50 0 p99 0 \
                 buckets 1:18446744073709551615,2:2",
            ),
        ] {
            assert!(
                MetricsSnapshot::parse(broken).is_err(),
                "accepted {broken:?}"
            );
        }
    }
}
