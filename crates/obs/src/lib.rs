//! Structured observability for the crowdsourced-CDN workspace.
//!
//! The reproduction's north star is a scheduler that is "as fast as the
//! hardware allows"; this crate is how the workspace *sees* where time
//! and work go without perturbing results: named monotonic
//! [counters](Counter), fixed-bucket [histograms](Histogram), and phase
//! [spans](span) with wall-clock timings, all feeding one global
//! registry that can be snapshotted as an [`ObsReport`] and exported as
//! JSON/JSONL.
//!
//! # Determinism contract
//!
//! Everything in a report except durations is deterministic: counter
//! totals, histogram bucket counts, and span *counts* are pure functions
//! of the seeded input, identical for every thread count (`CCDN_THREADS`
//! 1 or 64) and identical whether observability is on or off — the
//! instrumented code never branches on a recorded value, and recording
//! is add-only and commutative. Only `total_ns` fields vary run to run.
//! The golden-figure suite pins the first half of the contract
//! (byte-identical CSVs with obs on and off); the thread-invariance
//! tests pin the second.
//!
//! # Enablement
//!
//! Recording is off by default and every probe is a cheap early-return.
//! It switches on when the `CCDN_OBS` environment variable is set (its
//! value is the default export path, see [`env_path`]) or explicitly via
//! [`set_enabled`], which always wins over the environment.
//!
//! # Examples
//!
//! ```
//! use ccdn_obs::{Counter, ObsReport};
//!
//! static SOLVES: Counter = Counter::new("doc.solves");
//!
//! ccdn_obs::set_enabled(true);
//! let before = ObsReport::capture();
//! SOLVES.add(3);
//! let delta = ObsReport::capture().delta(&before);
//! assert_eq!(delta.counters.get("doc.solves"), Some(&3));
//! ccdn_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Histogram shape: bucket 0 counts zero-valued samples, bucket `i ≥ 1`
/// counts samples in `[2^(i−1), 2^i)`, and the final bucket absorbs
/// every larger value (≥ 2^20 with 22 buckets).
pub const HISTOGRAM_BUCKETS: usize = 22;

// ---------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

fn env_init() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if std::env::var_os("CCDN_OBS").is_some() {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
}

/// Whether probes currently record. Off by default; on when `CCDN_OBS`
/// is set or after [`set_enabled`]`(true)`.
pub fn enabled() -> bool {
    env_init();
    AtomicBool::load(&ENABLED, Ordering::Relaxed)
}

/// Turns recording on or off for the whole process, overriding the
/// `CCDN_OBS` environment default in either direction.
pub fn set_enabled(on: bool) {
    env_init();
    ENABLED.store(on, Ordering::Relaxed);
}

/// The export path configured via the `CCDN_OBS` environment variable,
/// if any. A `.jsonl` extension means append-one-line-per-report.
pub fn env_path() -> Option<PathBuf> {
    std::env::var_os("CCDN_OBS").map(PathBuf::from).filter(|p| !p.as_os_str().is_empty())
}

// ---------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------

struct SpanCell {
    count: AtomicU64,
    total_ns: AtomicU64,
}

struct HistCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, &'static AtomicU64>,
    histograms: BTreeMap<&'static str, &'static HistCell>,
    spans: BTreeMap<&'static str, &'static SpanCell>,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Cells are registered once per name and leaked: they live for the
/// process and are only ever *read* under the registry lock, so probes
/// pay one lock on first use and lock-free atomics after.
fn counter_cell(name: &'static str) -> &'static AtomicU64 {
    registry().counters.entry(name).or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))))
}

fn span_cell(name: &'static str) -> &'static SpanCell {
    registry().spans.entry(name).or_insert_with(|| {
        Box::leak(Box::new(SpanCell { count: AtomicU64::new(0), total_ns: AtomicU64::new(0) }))
    })
}

fn hist_cell(name: &'static str) -> &'static HistCell {
    registry().histograms.entry(name).or_insert_with(|| {
        Box::leak(Box::new(HistCell { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }))
    })
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

/// A named monotonic counter, declared `static` at the instrumentation
/// site. `add` is a no-op unless recording is [enabled]; hot
/// loops should accumulate into a local `u64` and `add` once.
///
/// ```
/// static PATHS: ccdn_obs::Counter = ccdn_obs::Counter::new("doc.paths");
/// PATHS.incr(); // no-op while disabled
/// ```
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Counter {
    /// Declares a counter with a stable dotted name
    /// (`"flow.dinic.bfs_rounds"`).
    pub const fn new(name: &'static str) -> Self {
        Counter { name, cell: OnceLock::new() }
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n`; a no-op while recording is disabled or `n == 0`.
    pub fn add(&self, n: u64) {
        if n == 0 || !enabled() {
            return;
        }
        self.cell.get_or_init(|| counter_cell(self.name)).fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn incr(&self) {
        Counter::add(self, 1);
    }
}

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

/// A named fixed-bucket histogram with power-of-two buckets (see
/// [`HISTOGRAM_BUCKETS`]). Recording is one atomic increment; a no-op
/// while disabled.
pub struct Histogram {
    name: &'static str,
    cell: OnceLock<&'static HistCell>,
}

impl Histogram {
    /// Declares a histogram with a stable dotted name.
    pub const fn new(name: &'static str) -> Self {
        Histogram { name, cell: OnceLock::new() }
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        let cell = self.cell.get_or_init(|| hist_cell(self.name));
        cell.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }
}

/// The bucket a sample falls into: 0 for zero, else
/// `min(bits(value), HISTOGRAM_BUCKETS − 1)` where `bits` is the
/// position of the highest set bit plus one.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, …).
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

// ---------------------------------------------------------------------
// Spans & timing
// ---------------------------------------------------------------------

/// Live guard returned by [`span`]; records `(count += 1,
/// total_ns += elapsed)` under its name when dropped.
pub struct Span {
    active: Option<(&'static SpanCell, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((cell, start)) = self.active.take() {
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.total_ns.fetch_add(duration_ns(start.elapsed()), Ordering::Relaxed);
        }
    }
}

/// Opens a named phase span; the returned guard records on drop. While
/// recording is disabled the guard is inert and free.
///
/// ```
/// let _guard = ccdn_obs::span("doc.phase");
/// // ... phase work ...
/// ```
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { active: None };
    }
    Span { active: Some((span_cell(name), Instant::now())) }
}

/// A started wall clock. This crate is the only one allowed to touch
/// `std::time::Instant` (ccdn-lint `instant` rule): callers that need a
/// raw duration — e.g. the simulator's per-slot `scheduling_time` —
/// go through `Stopwatch` or [`timed`] instead of the clock directly,
/// keeping nondeterministic time sources auditable in one place.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Self {
        Stopwatch { start: Instant::now() }
    }

    /// Wall-clock time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Runs `f` and returns its result with the wall-clock duration. Always
/// times (independent of [`enabled`]) — this is the primitive for
/// durations that are part of a caller's own report.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let watch = Stopwatch::start();
    let result = f();
    (result, watch.elapsed())
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// Aggregated timings of one named span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// How many times the span closed.
    pub count: u64,
    /// Total wall-clock nanoseconds across all closures (the only
    /// nondeterministic field in a report).
    pub total_ns: u64,
}

/// A point-in-time snapshot of the global registry. Counters and
/// histograms are fully deterministic; span `total_ns` is wall-clock.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsReport {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram bucket counts by name ([`HISTOGRAM_BUCKETS`] entries).
    pub histograms: BTreeMap<String, Vec<u64>>,
    /// Span statistics by name.
    pub spans: BTreeMap<String, SpanStat>,
}

impl ObsReport {
    /// Snapshots every registered counter, histogram, and span.
    pub fn capture() -> Self {
        let reg = registry();
        ObsReport {
            counters: reg
                .counters
                .iter()
                .map(|(name, cell)| (name.to_string(), AtomicU64::load(cell, Ordering::Relaxed)))
                .collect(),
            histograms: reg
                .histograms
                .iter()
                .map(|(name, cell)| {
                    let buckets: Vec<u64> = cell
                        .buckets
                        .iter()
                        .map(|b| AtomicU64::load(b, Ordering::Relaxed))
                        .collect();
                    (name.to_string(), buckets)
                })
                .collect(),
            spans: reg
                .spans
                .iter()
                .map(|(name, cell)| {
                    let stat = SpanStat {
                        count: AtomicU64::load(&cell.count, Ordering::Relaxed),
                        total_ns: AtomicU64::load(&cell.total_ns, Ordering::Relaxed),
                    };
                    (name.to_string(), stat)
                })
                .collect(),
        }
    }

    /// What happened since `baseline`: per-name saturating differences,
    /// with all-zero entries dropped. Registries only grow, so names in
    /// `baseline` are a subset of names in `self`. Consumes the report,
    /// so names and buckets move into the delta instead of being cloned.
    pub fn delta(self, baseline: &ObsReport) -> ObsReport {
        let mut out = ObsReport::default();
        for (name, total) in self.counters {
            let before = baseline.counters.get(&name).copied().unwrap_or(0);
            let diff = total.saturating_sub(before);
            if diff > 0 {
                out.counters.insert(name, diff);
            }
        }
        for (name, mut buckets) in self.histograms {
            let zero = Vec::new();
            let before = baseline.histograms.get(&name).unwrap_or(&zero);
            for (i, bucket) in buckets.iter_mut().enumerate() {
                *bucket = bucket.saturating_sub(before.get(i).copied().unwrap_or(0));
            }
            if buckets.iter().any(|&b| b > 0) {
                out.histograms.insert(name, buckets);
            }
        }
        for (name, stat) in self.spans {
            let before = baseline.spans.get(&name).copied().unwrap_or_default();
            let diff = SpanStat {
                count: stat.count.saturating_sub(before.count),
                total_ns: stat.total_ns.saturating_sub(before.total_ns),
            };
            if diff.count > 0 {
                out.spans.insert(name, diff);
            }
        }
        out
    }

    /// Equality on the deterministic parts only: counters, histograms,
    /// and span *counts* — span durations are wall-clock and excluded.
    /// This is the relation the thread-invariance tests check.
    pub fn deterministic_eq(&self, other: &ObsReport) -> bool {
        self.counters == other.counters
            && self.histograms == other.histograms
            && self.spans.len() == other.spans.len()
            && self
                .spans
                .iter()
                .zip(other.spans.iter())
                .all(|((an, a), (bn, b))| an == bn && a.count == b.count)
    }

    /// The report as one JSON object:
    /// `{"counters":{..},"spans":{"name":{"count":n,"total_ns":n}},"histograms":{"name":[..]}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_entries(&mut out, self.counters.iter(), |out, (name, total)| {
            out.push_str(&format!("{}:{total}", json_string(name)));
        });
        out.push_str("},\"spans\":{");
        push_entries(&mut out, self.spans.iter(), |out, (name, stat)| {
            out.push_str(&format!(
                "{}:{{\"count\":{},\"total_ns\":{}}}",
                json_string(name),
                stat.count,
                stat.total_ns
            ));
        });
        out.push_str("},\"histograms\":{");
        push_entries(&mut out, self.histograms.iter(), |out, (name, buckets)| {
            let cells: Vec<String> = buckets.iter().map(u64::to_string).collect();
            out.push_str(&format!("{}:[{}]", json_string(name), cells.join(",")));
        });
        out.push_str("}}");
        out
    }

    /// The perf-report form emitted by bench bins: the report wrapped
    /// with a label, the worker count, and an optional wall-clock total:
    /// `{"label":..,"threads":..,"wall_ns":..,"counters":..,..}`.
    pub fn to_json_labeled(&self, label: &str, threads: usize, wall: Option<Duration>) -> String {
        let body = self.to_json();
        let wall_field = match wall {
            Some(d) => format!(",\"wall_ns\":{}", duration_ns(d)),
            None => String::new(),
        };
        format!(
            "{{\"label\":{},\"threads\":{threads}{wall_field},{}",
            json_string(label),
            &body[1..] // splice the report's fields into the wrapper object
        )
    }

    /// Writes the labeled report to `path`: appended as one line when
    /// the extension is `.jsonl`, otherwise written whole (pretty for
    /// humans is a non-goal; the reader is [`json::parse`]).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_json(
        &self,
        path: &Path,
        label: &str,
        threads: usize,
        wall: Option<Duration>,
    ) -> io::Result<()> {
        let line = self.to_json_labeled(label, threads, wall);
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        if path.extension().is_some_and(|e| e == "jsonl") {
            use io::Write as _;
            let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
            writeln!(file, "{line}")
        } else {
            std::fs::write(path, line + "\n")
        }
    }
}

fn push_entries<T>(
    out: &mut String,
    entries: impl Iterator<Item = T>,
    mut push_one: impl FnMut(&mut String, T),
) {
    for (i, entry) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_one(out, entry);
    }
}

/// Escapes `s` as a JSON string literal, quotes included.
///
/// Public because it is the workspace's one JSON string writer: the
/// hand-serialised reports here and the `ccdn-analyze` findings report
/// in `crates/xtask` both go through it, so every emitted document
/// round-trips through [`json::parse`] by construction.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    /// The registry and the enabled switch are process-global; tests
    /// that toggle them serialise here and use test-unique metric names.
    static GUARD: TestMutex<()> = TestMutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        GUARD.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = lock();
        set_enabled(false);
        static C: Counter = Counter::new("test.disabled.counter");
        static H: Histogram = Histogram::new("test.disabled.hist");
        let before = ObsReport::capture();
        C.add(5);
        H.record(7);
        drop(span("test.disabled.span"));
        let delta = ObsReport::capture().delta(&before);
        assert!(delta.counters.is_empty());
        assert!(delta.histograms.is_empty());
        assert!(delta.spans.is_empty());
    }

    #[test]
    fn counters_accumulate_and_delta() {
        let _g = lock();
        set_enabled(true);
        static C: Counter = Counter::new("test.counter.basic");
        let before = ObsReport::capture();
        C.add(2);
        C.incr();
        let delta = ObsReport::capture().delta(&before);
        set_enabled(false);
        assert_eq!(delta.counters.get("test.counter.basic"), Some(&3));
    }

    #[test]
    fn histogram_buckets_follow_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound(i)), i, "bucket {i}");
        }

        let _g = lock();
        set_enabled(true);
        static H: Histogram = Histogram::new("test.hist.basic");
        let before = ObsReport::capture();
        for v in [0, 1, 1, 3, 1000] {
            H.record(v);
        }
        let delta = ObsReport::capture().delta(&before);
        set_enabled(false);
        let buckets = delta.histograms.get("test.hist.basic").unwrap();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 2);
        assert_eq!(buckets[2], 1);
        assert_eq!(buckets[bucket_index(1000)], 1);
        assert_eq!(buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn spans_count_closures() {
        let _g = lock();
        set_enabled(true);
        let before = ObsReport::capture();
        for _ in 0..3 {
            let _s = span("test.span.basic");
        }
        let delta = ObsReport::capture().delta(&before);
        set_enabled(false);
        assert_eq!(delta.spans.get("test.span.basic").map(|s| s.count), Some(3));
    }

    #[test]
    fn report_json_round_trips_through_the_parser() {
        let _g = lock();
        set_enabled(true);
        static C: Counter = Counter::new("test.json.counter");
        static H: Histogram = Histogram::new("test.json.hist");
        let before = ObsReport::capture();
        C.add(11);
        H.record(3);
        drop(span("test.json.span"));
        let delta = ObsReport::capture().delta(&before);
        set_enabled(false);

        let text = delta.to_json_labeled("unit", 4, Some(Duration::from_nanos(17)));
        let value = json::parse(&text).expect("emitted report must be valid JSON");
        assert_eq!(value.get("label").and_then(json::Value::as_str), Some("unit"));
        assert_eq!(value.get("threads").and_then(json::Value::as_u64), Some(4));
        assert_eq!(value.get("wall_ns").and_then(json::Value::as_u64), Some(17));
        let counters = value.get("counters").and_then(json::Value::as_object).unwrap();
        assert_eq!(counters.get("test.json.counter").and_then(json::Value::as_u64), Some(11));
        let span_obj = value.get("spans").and_then(|s| s.get("test.json.span")).unwrap();
        assert_eq!(span_obj.get("count").and_then(json::Value::as_u64), Some(1));
        let hist = value
            .get("histograms")
            .and_then(|h| h.get("test.json.hist"))
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(hist.len(), HISTOGRAM_BUCKETS);
        assert_eq!(hist[bucket_index(3)].as_u64(), Some(1));

        // The unlabeled form parses too.
        json::parse(&delta.to_json()).expect("bare report must be valid JSON");
    }

    #[test]
    fn deterministic_eq_ignores_durations_only() {
        let mut a = ObsReport::default();
        a.counters.insert("c".into(), 1);
        a.spans.insert("s".into(), SpanStat { count: 2, total_ns: 100 });
        let mut b = a.clone();
        b.spans.insert("s".into(), SpanStat { count: 2, total_ns: 999 });
        assert!(a.deterministic_eq(&b));
        b.spans.insert("s".into(), SpanStat { count: 3, total_ns: 100 });
        assert!(!a.deterministic_eq(&b));
        b.spans.insert("s".into(), SpanStat { count: 2, total_ns: 100 });
        b.counters.insert("c".into(), 2);
        assert!(!a.deterministic_eq(&b));
    }

    #[test]
    fn jsonl_export_appends_lines() {
        let _g = lock();
        set_enabled(true);
        static C: Counter = Counter::new("test.jsonl.counter");
        let before = ObsReport::capture();
        C.add(1);
        let delta = ObsReport::capture().delta(&before);
        set_enabled(false);

        let dir = std::env::temp_dir().join("ccdn-obs-test");
        let path = dir.join("report.jsonl");
        let _ = std::fs::remove_file(&path);
        delta.write_json(&path, "first", 1, None).unwrap();
        delta.write_json(&path, "second", 2, None).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            json::parse(line).expect("each JSONL line must parse");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn timed_returns_result_and_duration() {
        let (value, elapsed) = timed(|| 6 * 7);
        assert_eq!(value, 42);
        let _ = elapsed; // wall-clock; only its existence is asserted
        let watch = Stopwatch::start();
        let _ = watch.elapsed();
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
