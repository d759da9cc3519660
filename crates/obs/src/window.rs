//! Rolling-window SLO aggregation: ring-buffered log2 histograms and
//! counters over a virtual clock, plus the health watchdog that turns
//! their trailing-window rates into an `Ok`/`Degraded`/`Unhealthy`
//! verdict.
//!
//! The process-lifetime histograms in the metrics registry answer "what
//! happened since start"; a serving process needs "what is happening
//! *now*". This module provides that view: a [`WindowHistogram`] is a
//! ring of slots (default 12 × 5 s, see [`WindowConfig`]), each an
//! independent 96-bucket log2 histogram — the same atomics the
//! registry's lifetime histograms use — rotated lazily by whoever
//! records or reads.
//! A [`snapshot`](WindowHistogram::snapshot) merges the slots covering
//! the trailing window into one [`WindowSnapshot`], whose quantiles are
//! therefore live p50/p99 over (by default) the last minute rather than
//! the process lifetime.
//!
//! Everything here is driven by an explicit `now_us` virtual clock — no
//! `Instant` is ever read — so the exact rotation boundaries are unit
//! testable, and the serving layer can feed the same microsecond epoch
//! it already stamps requests with.
//!
//! This module is always compiled (it has no ambient global state and
//! costs nothing unless a window is constructed); the feature gate on
//! the crate only covers the process-global span/metric instrumentation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of log-scale histogram buckets (shared with the registry's
/// lifetime histograms, so windowed and cumulative views bucket alike).
pub const HIST_BUCKETS: usize = 96;

/// Exponent of the lowest bucket edge: bucket `i` covers
/// `[2^(i + HIST_MIN_EXP), 2^(i + 1 + HIST_MIN_EXP))`. With −40 the
/// histogram spans ~9.1e−13 .. 3.6e16 — wide enough for rates (1e−6..1)
/// and wall times in nanoseconds (1..1e12) alike.
pub const HIST_MIN_EXP: i32 = -40;

/// Maps a sample to its bucket. Non-positive and non-finite values land
/// in bucket 0; values beyond the top edge clamp into the last bucket.
pub fn bucket_index(value: f64) -> usize {
    if !value.is_finite() || value <= 0.0 {
        return 0;
    }
    let exp = value.log2().floor() as i32 - HIST_MIN_EXP;
    exp.clamp(0, HIST_BUCKETS as i32 - 1) as usize
}

/// Lower edge of bucket `i`.
pub fn bucket_lo(i: usize) -> f64 {
    (2.0f64).powi(i as i32 + HIST_MIN_EXP)
}

/// Upper edge of bucket `i`.
pub fn bucket_hi(i: usize) -> f64 {
    (2.0f64).powi(i as i32 + 1 + HIST_MIN_EXP)
}

/// Sentinel slot sequence meaning "never written" (a real sequence of
/// `u64::MAX` would need a virtual clock ~585 millennia past the epoch).
const SEQ_EMPTY: u64 = u64::MAX;

/// Ring geometry of a rolling window: `slots` slots of `slot_us` each;
/// the trailing window spans `slots × slot_us` (the current partial slot
/// plus `slots − 1` sealed ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Width of one ring slot, in virtual microseconds (clamped ≥ 1).
    pub slot_us: u64,
    /// Number of ring slots (clamped ≥ 2: one live, one+ trailing).
    pub slots: usize,
}

impl Default for WindowConfig {
    /// 12 slots × 5 s — a one-minute trailing window refreshed every 5 s.
    fn default() -> WindowConfig {
        WindowConfig {
            slot_us: 5_000_000,
            slots: 12,
        }
    }
}

impl WindowConfig {
    /// A 12-slot ring spanning `secs` seconds in total.
    pub fn for_span_secs(secs: u64) -> WindowConfig {
        let slots = 12usize;
        WindowConfig {
            slot_us: (secs.max(1) * 1_000_000 / slots as u64).max(1),
            slots,
        }
    }

    /// The configured window span from `METADSE_OBS_WINDOW_SECS`
    /// (trailing-window seconds, default 60).
    pub fn from_env() -> WindowConfig {
        let secs = std::env::var("METADSE_OBS_WINDOW_SECS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(60);
        WindowConfig::for_span_secs(secs)
    }

    /// Total trailing-window span in microseconds.
    pub fn window_us(&self) -> u64 {
        self.slot_us.max(1).saturating_mul(self.slots.max(2) as u64)
    }

    fn normalized(self) -> WindowConfig {
        WindowConfig {
            slot_us: self.slot_us.max(1),
            slots: self.slots.max(2),
        }
    }

    /// The slot sequence number covering virtual time `now_us`.
    fn seq(&self, now_us: u64) -> u64 {
        now_us / self.slot_us
    }
}

/// CAS loop applying `f` to an `f64` stored as bits in an `AtomicU64`.
fn atomic_f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(current)).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

/// A log2 histogram of atomics: per-bucket hit counts plus streaming
/// count / sum / min / max, all lock-free. The registry's lifetime
/// histograms and every ring slot of a [`WindowHistogram`] are one of
/// these, so the two views bucket identically.
pub(crate) struct Hist {
    pub(crate) counts: Vec<AtomicU64>,
    pub(crate) count: AtomicU64,
    pub(crate) sum_bits: AtomicU64,
    pub(crate) min_bits: AtomicU64,
    pub(crate) max_bits: AtomicU64,
}

impl Hist {
    pub(crate) fn new() -> Hist {
        Hist {
            counts: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    pub(crate) fn record(&self, value: f64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, |s| s + value);
        atomic_f64_update(&self.min_bits, |m| m.min(value));
        atomic_f64_update(&self.max_bits, |m| m.max(value));
    }

    pub(crate) fn zero(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

/// Approximate quantile from bucket edges: the lower edge of the bucket
/// holding the `q`-th of `count` samples, clamped by the observed
/// `min`/`max`. `buckets` yields `(lower edge, hits)` in ascending
/// order. Monotone in `q` by construction (the walk only advances).
pub(crate) fn bucket_quantile(
    q: f64,
    count: u64,
    min: f64,
    max: f64,
    buckets: impl IntoIterator<Item = (f64, u64)>,
) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (lo, hits) in buckets {
        seen += hits;
        if hits > 0 && seen >= rank {
            return lo.clamp(min.min(max), max.max(min));
        }
    }
    max
}

/// One ring slot of a [`WindowHistogram`]: a histogram plus the slot
/// sequence it currently holds samples for.
struct HistSlot {
    seq: AtomicU64,
    hist: Hist,
}

/// A rolling-window log2 histogram: concurrent recorders, lazy rotation.
///
/// Recording is lock-free on the hot path (the slot covering `now_us` is
/// already current); only the recorder that first crosses a slot
/// boundary takes the rotation mutex to seal-and-reuse the oldest slot.
/// A recorder whose timestamp belongs to a slot the ring has already
/// rotated past drops the sample (counted on
/// [`stale_drops`](WindowHistogram::stale_drops)) rather than polluting
/// a newer slot.
pub struct WindowHistogram {
    config: WindowConfig,
    slots: Vec<HistSlot>,
    rotate: Mutex<()>,
    stale: AtomicU64,
}

impl std::fmt::Debug for WindowHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowHistogram")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl WindowHistogram {
    /// An empty window under `config` (geometry clamped sane).
    pub fn new(config: WindowConfig) -> WindowHistogram {
        let config = config.normalized();
        WindowHistogram {
            slots: (0..config.slots)
                .map(|_| HistSlot {
                    seq: AtomicU64::new(SEQ_EMPTY),
                    hist: Hist::new(),
                })
                .collect(),
            rotate: Mutex::new(()),
            stale: AtomicU64::new(0),
            config,
        }
    }

    /// The (normalized) ring geometry.
    pub fn config(&self) -> &WindowConfig {
        &self.config
    }

    /// Samples dropped because their timestamp predated the ring's
    /// trailing edge when they arrived.
    pub fn stale_drops(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }

    /// Records `value` at virtual time `now_us`. Returns `false` when
    /// the sample was dropped as stale.
    pub fn record(&self, value: f64, now_us: u64) -> bool {
        let seq = self.config.seq(now_us);
        let slot = &self.slots[(seq % self.config.slots as u64) as usize];
        loop {
            let current = slot.seq.load(Ordering::Acquire);
            if current == seq {
                slot.hist.record(value);
                return true;
            }
            if current != SEQ_EMPTY && current > seq {
                // The ring already rotated past this timestamp.
                self.stale.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            // Slot boundary crossed: seal-and-reuse under the rotation
            // lock, then retry (a racing rotator may have won).
            let _guard = self.rotate.lock().expect("window rotation poisoned");
            let rechecked = slot.seq.load(Ordering::Acquire);
            if rechecked == current {
                slot.hist.zero();
                slot.seq.store(seq, Ordering::Release);
            }
        }
    }

    /// Merges every slot inside the trailing window ending at `now_us`
    /// into one snapshot (the live partial slot plus the `slots − 1`
    /// sealed ones before it).
    pub fn snapshot(&self, now_us: u64) -> WindowSnapshot {
        let seq_now = self.config.seq(now_us);
        let seq_lo = seq_now.saturating_sub(self.config.slots as u64 - 1);
        let mut snap = WindowSnapshot::empty(self.config.window_us());
        for slot in &self.slots {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == SEQ_EMPTY || seq < seq_lo || seq > seq_now {
                continue;
            }
            let hist = &slot.hist;
            for (i, c) in hist.counts.iter().enumerate() {
                snap.buckets[i] += c.load(Ordering::Relaxed);
            }
            snap.count += hist.count.load(Ordering::Relaxed);
            snap.sum += f64::from_bits(hist.sum_bits.load(Ordering::Relaxed));
            snap.min = snap
                .min
                .min(f64::from_bits(hist.min_bits.load(Ordering::Relaxed)));
            snap.max = snap
                .max
                .max(f64::from_bits(hist.max_bits.load(Ordering::Relaxed)));
        }
        snap
    }
}

/// Point-in-time merge of the slots covering one trailing window.
///
/// Snapshots are *mergeable*: [`merge`](WindowSnapshot::merge) combines
/// two snapshots bucket-wise, which is associative and commutative
/// (exactly so when sample sums are exactly representable, e.g. integer
/// microsecond samples below 2⁵³) — the property that lets per-shard
/// windows roll up into a fleet view.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Trailing-window span this snapshot covers, in microseconds.
    pub window_us: u64,
    /// Samples in the window.
    pub count: u64,
    /// Sum of all samples in the window.
    pub sum: f64,
    /// Smallest sample (`+∞` while empty; use [`WindowSnapshot::min`]).
    pub min: f64,
    /// Largest sample (`−∞` while empty; use [`WindowSnapshot::max`]).
    pub max: f64,
    /// Dense per-bucket hit counts ([`HIST_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl WindowSnapshot {
    /// An empty snapshot spanning `window_us`.
    pub fn empty(window_us: u64) -> WindowSnapshot {
        WindowSnapshot {
            window_us,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// Bucket-wise merge of two snapshots (counts add, edges combine,
    /// spans take the larger — merging shards of the same window keeps
    /// the span).
    pub fn merge(&self, other: &WindowSnapshot) -> WindowSnapshot {
        WindowSnapshot {
            window_us: self.window_us.max(other.window_us),
            count: self.count + other.count,
            sum: self.sum + other.sum,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Approximate quantile from the bucket edges: the lower edge of the
    /// bucket holding the `q`-th sample, clamped by observed min/max.
    /// Monotone in `q` by construction (the bucket walk only advances).
    pub fn quantile(&self, q: f64) -> f64 {
        let buckets = self.buckets.iter().enumerate();
        bucket_quantile(
            q,
            self.count,
            self.min,
            self.max,
            buckets.map(|(i, &hits)| (bucket_lo(i), hits)),
        )
    }

    /// Mean of the samples in the window (0 while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, or 0 while empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 while empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// One ring slot of a [`WindowCounter`].
struct CountSlot {
    seq: AtomicU64,
    value: AtomicU64,
}

/// A rolling-window event counter: the trailing-window companion to a
/// lifetime counter, for rates (shed/s, deadline misses per window).
/// Same lazy-rotation discipline as [`WindowHistogram`].
pub struct WindowCounter {
    config: WindowConfig,
    slots: Vec<CountSlot>,
    rotate: Mutex<()>,
}

impl std::fmt::Debug for WindowCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowCounter")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl WindowCounter {
    /// An empty counter ring under `config` (geometry clamped sane).
    pub fn new(config: WindowConfig) -> WindowCounter {
        let config = config.normalized();
        WindowCounter {
            slots: (0..config.slots)
                .map(|_| CountSlot {
                    seq: AtomicU64::new(SEQ_EMPTY),
                    value: AtomicU64::new(0),
                })
                .collect(),
            rotate: Mutex::new(()),
            config,
        }
    }

    /// Adds `delta` at virtual time `now_us`. Returns `false` when the
    /// ring has already rotated past that timestamp (event dropped).
    pub fn add(&self, delta: u64, now_us: u64) -> bool {
        let seq = self.config.seq(now_us);
        let slot = &self.slots[(seq % self.config.slots as u64) as usize];
        loop {
            let current = slot.seq.load(Ordering::Acquire);
            if current == seq {
                slot.value.fetch_add(delta, Ordering::Relaxed);
                return true;
            }
            if current != SEQ_EMPTY && current > seq {
                return false;
            }
            let _guard = self.rotate.lock().expect("window rotation poisoned");
            let rechecked = slot.seq.load(Ordering::Acquire);
            if rechecked == current {
                slot.value.store(0, Ordering::Relaxed);
                slot.seq.store(seq, Ordering::Release);
            }
        }
    }

    /// Total events inside the trailing window ending at `now_us`.
    pub fn total(&self, now_us: u64) -> u64 {
        let seq_now = self.config.seq(now_us);
        let seq_lo = seq_now.saturating_sub(self.config.slots as u64 - 1);
        self.slots
            .iter()
            .filter(|s| {
                let seq = s.seq.load(Ordering::Acquire);
                seq != SEQ_EMPTY && seq >= seq_lo && seq <= seq_now
            })
            .map(|s| s.value.load(Ordering::Relaxed))
            .sum()
    }

    /// Events per second over the trailing window ending at `now_us`.
    pub fn rate_per_sec(&self, now_us: u64) -> f64 {
        self.total(now_us) as f64 / (self.config.window_us() as f64 / 1e6)
    }
}

// ---------------------------------------------------------------------
// Health watchdog
// ---------------------------------------------------------------------

/// The serving process's live health verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Trailing-window rates are inside every threshold.
    Ok,
    /// The deadline-miss or shed rate crossed its threshold: the server
    /// answers, but is violating its SLO.
    Degraded,
    /// The queue is stalled — the oldest admitted request has waited
    /// past the stall threshold, so workers are wedged or severely
    /// backlogged.
    Unhealthy,
}

impl Health {
    /// Lowercase wire name (`ok` / `degraded` / `unhealthy`).
    pub fn name(&self) -> &'static str {
        match self {
            Health::Ok => "ok",
            Health::Degraded => "degraded",
            Health::Unhealthy => "unhealthy",
        }
    }
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Watchdog thresholds. Rates are per-mille (integer, so configs stay
/// `Eq`-comparable): 100 ‰ = 10 %.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Deadline-miss rate over the window, per-mille of admitted
    /// requests, above which the server reports [`Health::Degraded`].
    pub max_miss_permille: u32,
    /// Shed rate over the window, per-mille of submitted requests,
    /// above which the server reports [`Health::Degraded`].
    pub max_shed_permille: u32,
    /// Queue-stall bound: an admitted request still queued after this
    /// many microseconds flips the server to [`Health::Unhealthy`].
    /// Must comfortably exceed the batcher's `max_wait_us`.
    pub stall_us: u64,
}

impl Default for WatchdogConfig {
    /// 10 % miss, 10 % shed, 5 s stall.
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            max_miss_permille: 100,
            max_shed_permille: 100,
            stall_us: 5_000_000,
        }
    }
}

impl WatchdogConfig {
    /// Thresholds from the environment: `METADSE_WATCHDOG_MISS_RATE`
    /// and `METADSE_WATCHDOG_SHED_RATE` (fractions, e.g. `0.1`), and
    /// `METADSE_WATCHDOG_STALL_MS` (milliseconds).
    pub fn from_env() -> WatchdogConfig {
        let base = WatchdogConfig::default();
        let rate = |name: &str, default_permille: u32| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<f64>().ok())
                .filter(|r| r.is_finite() && *r >= 0.0)
                .map_or(default_permille, |r| (r * 1000.0).round() as u32)
        };
        WatchdogConfig {
            max_miss_permille: rate("METADSE_WATCHDOG_MISS_RATE", base.max_miss_permille),
            max_shed_permille: rate("METADSE_WATCHDOG_SHED_RATE", base.max_shed_permille),
            stall_us: std::env::var("METADSE_WATCHDOG_STALL_MS")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map_or(base.stall_us, |ms| ms.saturating_mul(1000)),
        }
    }

    /// Evaluates one observation against the thresholds. Pure — callers
    /// assemble the [`WatchdogSample`] from their own windows/queue.
    pub fn evaluate(&self, sample: &WatchdogSample) -> Health {
        if sample
            .oldest_queued_wait_us
            .is_some_and(|w| w >= self.stall_us)
        {
            return Health::Unhealthy;
        }
        let over = |events: u64, denom: u64, permille: u32| {
            denom > 0 && events.saturating_mul(1000) > u64::from(permille).saturating_mul(denom)
        };
        let submitted = sample.admitted + sample.sheds;
        if over(sample.misses, sample.admitted, self.max_miss_permille)
            || over(sample.sheds, submitted, self.max_shed_permille)
        {
            return Health::Degraded;
        }
        Health::Ok
    }
}

/// One watchdog observation: trailing-window event counts plus the
/// queue's current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WatchdogSample {
    /// Requests admitted to the queue inside the window.
    pub admitted: u64,
    /// Requests that missed their deadline inside the window.
    pub misses: u64,
    /// Requests shed at admission inside the window.
    pub sheds: u64,
    /// How long the oldest still-queued request has waited, if any.
    pub oldest_queued_wait_us: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_matches_registry() {
        let one = (-HIST_MIN_EXP) as usize;
        assert_eq!(bucket_index(1.0), one);
        assert_eq!(bucket_index(2.0), one + 1);
        assert_eq!(bucket_lo(one), 1.0);
        assert_eq!(bucket_hi(one), 2.0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e300), HIST_BUCKETS - 1);
    }

    #[test]
    fn config_normalizes_degenerate_geometry() {
        let h = WindowHistogram::new(WindowConfig {
            slot_us: 0,
            slots: 0,
        });
        assert_eq!(h.config().slot_us, 1);
        assert_eq!(h.config().slots, 2);
        assert!(h.record(1.0, 0));
    }

    #[test]
    fn span_env_default_is_one_minute() {
        let w = WindowConfig::default();
        assert_eq!(w.window_us(), 60_000_000);
        assert_eq!(WindowConfig::for_span_secs(60), w);
    }

    #[test]
    fn watchdog_thresholds() {
        let wd = WatchdogConfig::default();
        let ok = WatchdogSample {
            admitted: 100,
            misses: 10,
            sheds: 0,
            oldest_queued_wait_us: Some(100),
        };
        // Exactly at the 10 % threshold is still Ok (strictly-above trips).
        assert_eq!(wd.evaluate(&ok), Health::Ok);
        assert_eq!(
            wd.evaluate(&WatchdogSample { misses: 11, ..ok }),
            Health::Degraded
        );
        assert_eq!(
            wd.evaluate(&WatchdogSample { sheds: 100, ..ok }),
            Health::Degraded
        );
        assert_eq!(
            wd.evaluate(&WatchdogSample {
                oldest_queued_wait_us: Some(5_000_000),
                ..ok
            }),
            Health::Unhealthy
        );
        // No traffic at all is healthy, not a division by zero.
        assert_eq!(wd.evaluate(&WatchdogSample::default()), Health::Ok);
    }
}
