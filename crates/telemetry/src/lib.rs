#![warn(missing_docs)]

//! Hand-rolled search telemetry for the SecureLoop pipeline.
//!
//! The DSE pipeline (mapper → AuthBlock optimiser → annealing → sweeps)
//! is multi-threaded and fault-tolerant, which makes it opaque: without
//! instrumentation there is no way to see how many mappings were
//! sampled, why candidates were rejected, which degradation-ladder tier
//! fired, or where wall-clock time goes. This crate carries the whole
//! observability substrate with **zero external dependencies** (the
//! workspace builds offline):
//!
//! - [`Counter`] — statically-declared, lazily-registered counters
//!   backed by relaxed atomics. Declaring one is free; the first touch
//!   registers it in a global registry so [`snapshot`] can enumerate
//!   everything that actually fired. Counters feed every report: the
//!   CLI summary, `--json`, the service `stats` reply and the
//!   `secureloop-bench` gates.
//! - [`Span`] — an RAII phase marker. When a sink is installed it
//!   times its phase and on drop emits one JSON-Lines event; with no
//!   sink it is inert.
//! - [`Sink`] — a pluggable event consumer. The default is no sink at
//!   all (events are skipped behind one relaxed atomic load);
//!   [`JsonLinesSink`] appends one compact JSON object per line, which
//!   is what the CLI's `--trace-out <path>` installs.
//! - [`Timer`] — one duration accumulator, kept for the single static
//!   a benchmark reads (see its docs).
//!
//! # Hot-path discipline
//!
//! The mapper evaluates tens of thousands of mappings per second, so
//! instrumentation must never tax the search:
//!
//! - counters are plain `AtomicU64` adds with `Ordering::Relaxed`; hot
//!   loops accumulate into stack-local integers and flush **once per
//!   chunk**, not per sample;
//! - spans read the clock and event serialisation happens only when a
//!   sink is installed — the guard is a single relaxed load ([`emit`]
//!   takes a closure so the JSON is never even built otherwise);
//! - [`set_enabled`]`(false)` turns every entry point into a no-op,
//!   which is how the `micro` entry of `secureloop-bench` measures the
//!   uninstrumented baseline.
//!
//! The budget: the print-only `mapper_search_1k_telemetry_on_vs_off`
//! row of `secureloop-bench micro` — sink-less instrumented mapper
//! search within **5%** of the uninstrumented baseline. With no sink
//! the spans are inert, so the "on" side measures the counters only.
//!
//! # Example
//!
//! ```
//! use secureloop_telemetry as telemetry;
//! use secureloop_json::Json;
//!
//! static SAMPLES: telemetry::Counter = telemetry::Counter::new("demo.samples");
//!
//! telemetry::reset();
//! let (sink, lines) = telemetry::VecSink::new();
//! telemetry::install_sink(sink);
//! {
//!     let _span = telemetry::span("demo", "layer0").field("tier", "sampled");
//!     SAMPLES.add(42);
//! }
//! drop(telemetry::take_sink());
//! assert_eq!(telemetry::snapshot().counter("demo.samples"), 42);
//! let event = Json::parse(&lines.lock().unwrap()[0]).unwrap();
//! assert_eq!(event["name"].as_str(), Some("layer0"));
//! ```

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once};
use std::time::Instant;

use secureloop_json::Json;

// ---------------------------------------------------------------------------
// Global switches and registries
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);
static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Box<dyn Sink>>> = Mutex::new(None);
static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());
static TIMERS: Mutex<Vec<&'static Timer>> = Mutex::new(Vec::new());

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding a registry lock must not poison telemetry
    // for the rest of the process (mirrors the fault-injection globals).
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether telemetry is recording at all. One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether events go anywhere: telemetry is enabled and a sink is
/// installed. Spans and [`emit`] do no work otherwise.
#[inline]
fn listening() -> bool {
    SINK_ACTIVE.load(Ordering::Relaxed) && enabled()
}

/// Master switch. `set_enabled(false)` turns counters, the timer, spans
/// and event emission into no-ops; used by the overhead bench to
/// measure the uninstrumented baseline.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A named monotonic counter.
///
/// Declare as a `static`; the first [`add`](Counter::add) registers it
/// in the global registry so [`snapshot`] can find it. All operations
/// are relaxed atomics — cheap enough for per-chunk flushes, though hot
/// loops should still batch locally.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: Once,
}

impl Counter {
    /// A new counter; `const` so it can back a `static`.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: Once::new(),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n`. No-op when telemetry is disabled; `add(0)` still
    /// registers the counter so it appears (as zero) in snapshots.
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.registered.call_once(|| lock(&COUNTERS).push(self));
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

/// A named duration accumulator: observation count and total (ns).
///
/// One static uses it, `checkpoint.save`: perfbench counts a sweep's
/// artifact writes from its `count`. The `checkpoint.saves`
/// [`Counter`] counts the same writes; once a benchmark change reads it
/// instead, this type can go.
pub struct Timer {
    name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    registered: Once,
}

impl Timer {
    /// A new timer; `const` so it can back a `static`.
    pub const fn new(name: &'static str) -> Self {
        Timer {
            name,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            registered: Once::new(),
        }
    }

    /// Time a closure and record its duration. Records nothing when
    /// telemetry is disabled.
    pub fn time<T>(&'static self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        if enabled() {
            self.registered.call_once(|| lock(&TIMERS).push(self));
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.total_ns.fetch_add(ns, Ordering::Relaxed);
        }
        out
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// An event consumer. Receives one already-serialised compact JSON
/// object per call; implementations decide where lines go.
pub trait Sink: Send {
    /// Consume one JSON event (no trailing newline).
    fn write_line(&mut self, line: &str);
    /// Flush any buffered output.
    fn flush(&mut self) {}
}

/// A sink that collects events into a shared buffer; handy for tests,
/// which keep the [`Arc`](std::sync::Arc) half and inspect lines after
/// the run.
pub struct VecSink {
    lines: std::sync::Arc<Mutex<Vec<String>>>,
}

impl VecSink {
    /// A collector plus the shared handle to its captured lines.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (Box<dyn Sink>, std::sync::Arc<Mutex<Vec<String>>>) {
        let lines = std::sync::Arc::new(Mutex::new(Vec::new()));
        (
            Box::new(VecSink {
                lines: lines.clone(),
            }),
            lines,
        )
    }
}

impl Sink for VecSink {
    fn write_line(&mut self, line: &str) {
        lock(&self.lines).push(line.to_string());
    }
}

/// JSON-Lines file sink: one compact JSON object per line, buffered.
/// This is what the CLI's `--trace-out <path>` installs.
pub struct JsonLinesSink {
    w: BufWriter<File>,
}

impl JsonLinesSink {
    /// Create (truncate) `path` and buffer writes to it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`File::create`] failure.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonLinesSink {
            w: BufWriter::new(File::create(path)?),
        })
    }
}

impl Sink for JsonLinesSink {
    fn write_line(&mut self, line: &str) {
        // Trace output is best-effort: a full disk must not kill the
        // schedule that is being traced.
        let _ = writeln!(self.w, "{line}");
    }

    fn flush(&mut self) {
        // Flush is called at drain points (end of a run, sink swap),
        // not per event, so an fsync here is cheap — and it makes the
        // trace survive the power loss the rest of the artifact layer
        // guards against. Still best-effort: a full disk must not kill
        // the schedule that is being traced.
        let _ = self.w.flush();
        let _ = self.w.get_ref().sync_data();
    }
}

/// Install an event sink (replacing any previous one, which is
/// flushed). Subsequent spans and [`emit`] calls serialise events into
/// it.
pub fn install_sink(sink: Box<dyn Sink>) {
    let mut slot = lock(&SINK);
    if let Some(mut old) = slot.take() {
        old.flush();
    }
    *slot = Some(sink);
    SINK_ACTIVE.store(true, Ordering::Relaxed);
}

/// Flush and remove the current sink, returning it (tests inspect
/// [`VecSink`] contents this way).
pub fn take_sink() -> Option<Box<dyn Sink>> {
    let mut slot = lock(&SINK);
    SINK_ACTIVE.store(false, Ordering::Relaxed);
    let mut old = slot.take();
    if let Some(s) = old.as_mut() {
        s.flush();
    }
    old
}

/// Flush the current sink without removing it.
pub fn flush_sink() {
    if let Some(s) = lock(&SINK).as_mut() {
        s.flush();
    }
}

/// Emit one event to the installed sink. The closure builds the JSON
/// object and runs **only** when a sink is installed and telemetry is
/// enabled — the guard is one relaxed load, so liberally sprinkled
/// `emit` calls cost nothing in the default (no-sink) configuration.
///
/// When the emitting thread is inside a [`ScopeGuard`] (see
/// [`enter_scope`]), the event gains a `"job"` field carrying the scope
/// label, so a multi-tenant consumer can attribute every event to the
/// job that produced it.
pub fn emit(build: impl FnOnce() -> Json) {
    if !listening() {
        return;
    }
    let mut event = build();
    if let Some(job) = current_scope() {
        event = event.field("job", job.as_str());
    }
    let line = event.to_string();
    if let Some(s) = lock(&SINK).as_mut() {
        s.write_line(&line);
    }
}

// ---------------------------------------------------------------------------
// Job scoping
// ---------------------------------------------------------------------------

thread_local! {
    static SCOPE: std::cell::RefCell<Option<String>> = const { std::cell::RefCell::new(None) };
}

/// RAII guard installed by [`enter_scope`]; restores the previous scope
/// (if any) on drop, so nested scopes compose.
pub struct ScopeGuard {
    previous: Option<String>,
}

/// Attribute every event emitted by *this thread* to `label` until the
/// returned guard drops. The service layer enters a scope per job so
/// concurrent tenants' events are distinguishable in one shared sink;
/// engines that fan work out to worker threads re-enter the spawning
/// thread's scope (see [`current_scope`]) inside each worker.
pub fn enter_scope(label: impl Into<String>) -> ScopeGuard {
    let previous = SCOPE.with(|s| s.borrow_mut().replace(label.into()));
    ScopeGuard { previous }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        SCOPE.with(|s| *s.borrow_mut() = previous);
    }
}

/// The current thread's scope label, if one is installed. Worker pools
/// capture this before spawning and re-enter it on each worker thread.
pub fn current_scope() -> Option<String> {
    SCOPE.with(|s| s.borrow().clone())
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// An RAII phase marker created by [`span`]. On drop it emits a
/// `"span"` event carrying its elapsed time and attached fields:
///
/// ```json
/// {"event":"span","phase":"mapper","name":"conv1","us":1234,...}
/// ```
pub struct Span {
    phase: &'static str,
    name: String,
    fields: Vec<(&'static str, Json)>,
    start: Option<Instant>,
}

/// Open a span for `phase` (e.g. `"mapper"`, `"authblock"`,
/// `"anneal"`, `"dse"`) covering `name` (layer, segment or design
/// label). The span is inert — no clock read, no fields kept, no event
/// — unless telemetry is enabled and a sink is installed when it opens.
pub fn span(phase: &'static str, name: impl Into<String>) -> Span {
    span_with(phase, || name.into())
}

/// [`span`] with a name built only when the span is live, so a hot
/// caller formats no name while nothing listens.
pub fn span_with(phase: &'static str, name: impl FnOnce() -> String) -> Span {
    let start = listening().then(Instant::now);
    Span {
        phase,
        name: start.map(|_| name()).unwrap_or_default(),
        fields: Vec::new(),
        start,
    }
}

impl Span {
    /// Attach an extra field to the emitted event (builder form).
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.add_field(key, value);
        self
    }

    /// Attach an extra field to the emitted event (mutating form, for
    /// values only known mid-phase).
    pub fn add_field(&mut self, key: &'static str, value: impl Into<Json>) {
        if self.start.is_some() {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let fields = std::mem::take(&mut self.fields);
        emit(|| {
            let mut j = Json::obj()
                .field("event", "span")
                .field("phase", self.phase)
                .field("name", self.name.as_str())
                .field("us", start.elapsed().as_micros() as u64);
            for (k, v) in fields {
                j = j.field(k, v);
            }
            j
        });
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// One counter's value at snapshot time.
#[derive(Debug, Clone, Copy)]
pub struct CounterSnap {
    /// Registry name.
    pub name: &'static str,
    /// Accumulated value.
    pub value: u64,
}

/// One timer's stats at snapshot time.
#[derive(Debug, Clone, Copy)]
pub struct TimerSnap {
    /// Registry name.
    pub name: &'static str,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations, ns.
    pub total_ns: u64,
}

/// Everything the registries held at one instant, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All registered counters.
    pub counters: Vec<CounterSnap>,
    /// All registered timers.
    pub timers: Vec<TimerSnap>,
}

impl Snapshot {
    /// A counter's value by name (0 when it never fired).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// A timer's stats by name.
    pub fn timer(&self, name: &str) -> Option<&TimerSnap> {
        self.timers.iter().find(|t| t.name == name)
    }

    /// Counters whose names start with `prefix`, e.g. all
    /// `mapper.reject.` buckets.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a CounterSnap> {
        self.counters
            .iter()
            .filter(move |c| c.name.starts_with(prefix))
    }
}

/// Snapshot every registered metric, sorted by name for stable output.
pub fn snapshot() -> Snapshot {
    let mut counters: Vec<CounterSnap> = lock(&COUNTERS)
        .iter()
        .map(|c| CounterSnap {
            name: c.name,
            value: c.get(),
        })
        .collect();
    counters.sort_by_key(|c| c.name);
    let mut timers: Vec<TimerSnap> = lock(&TIMERS)
        .iter()
        .map(|t| TimerSnap {
            name: t.name,
            count: t.count.load(Ordering::Relaxed),
            total_ns: t.total_ns.load(Ordering::Relaxed),
        })
        .collect();
    timers.sort_by_key(|t| t.name);
    Snapshot { counters, timers }
}

/// Zero every registered metric (the registry itself is kept — a
/// reset counter still shows up in later snapshots). The CLI calls
/// this once per run so reports describe that run only.
pub fn reset() {
    for c in lock(&COUNTERS).iter() {
        c.reset();
    }
    for t in lock(&TIMERS).iter() {
        t.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // Telemetry state is process-global; serialise the tests that
    // depend on exclusive ownership of it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    static C1: Counter = Counter::new("test.c1");
    static T1: Timer = Timer::new("test.t1");

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = exclusive();
        reset();
        C1.add(3);
        C1.incr();
        assert_eq!(snapshot().counter("test.c1"), 4);
        reset();
        assert_eq!(snapshot().counter("test.c1"), 0);
        // Still registered after reset.
        assert!(snapshot().counters.iter().any(|c| c.name == "test.c1"));
    }

    #[test]
    fn timers_count_and_total_their_observations() {
        let _g = exclusive();
        reset();
        T1.time(|| std::thread::sleep(Duration::from_millis(1)));
        assert_eq!(T1.time(|| 7), 7, "time returns the closure's value");
        let snap = snapshot();
        let t = snap.timer("test.t1").expect("registered");
        assert_eq!(t.count, 2);
        assert!(t.total_ns >= 1_000_000);
        reset();
        assert_eq!(snapshot().timer("test.t1").map(|t| t.count), Some(0));
    }

    #[test]
    fn disabled_telemetry_is_a_no_op() {
        let _g = exclusive();
        reset();
        set_enabled(false);
        C1.add(100);
        T1.time(|| ());
        let (sink, captured) = VecSink::new();
        install_sink(sink);
        let span_was_inert = {
            let s = span("test", "x");
            s.start.is_none()
        };
        set_enabled(true);
        drop(take_sink());
        assert!(span_was_inert);
        assert!(lock(&captured).is_empty());
        assert_eq!(snapshot().counter("test.c1"), 0);
        assert_eq!(snapshot().timer("test.t1").map_or(0, |t| t.count), 0);
    }

    #[test]
    fn spans_opened_without_a_sink_stay_inert() {
        let _g = exclusive();
        let _ = take_sink();
        let mut s = span("test", "early").field("tier", "sampled");
        s.add_field("samples", 3u64);
        assert!(s.start.is_none() && s.fields.is_empty());
        // A sink installed while the span is open does not wake it.
        let (sink, captured) = VecSink::new();
        install_sink(sink);
        drop(s);
        drop(take_sink());
        assert!(lock(&captured).is_empty());
    }

    #[test]
    fn spans_emit_events_into_the_sink() {
        let _g = exclusive();
        reset();
        let (sink, captured) = VecSink::new();
        install_sink(sink);
        {
            let _s = span("test", "layer9").field("tier", "sampled");
        }
        emit(|| Json::obj().field("event", "point").field("k", 7u64));
        drop(take_sink());
        let lines = lock(&captured).clone();
        assert_eq!(lines.len(), 2);
        let ev = Json::parse(&lines[0]).expect("valid json");
        assert_eq!(ev["event"], Json::Str("span".into()));
        assert_eq!(ev["phase"], Json::Str("test".into()));
        assert_eq!(ev["name"], Json::Str("layer9".into()));
        assert_eq!(ev["tier"], Json::Str("sampled".into()));
        assert!(ev["us"].as_u64().is_some());
        let point = Json::parse(&lines[1]).expect("valid json");
        assert_eq!(point["k"].as_u64(), Some(7));
    }

    #[test]
    fn emit_without_sink_skips_serialisation() {
        let _g = exclusive();
        let _ = take_sink();
        let mut built = false;
        emit(|| {
            built = true;
            Json::obj()
        });
        assert!(!built, "closure must not run without a sink");
    }

    #[test]
    fn scoped_events_carry_the_job_label() {
        let _g = exclusive();
        reset();
        let (sink, captured) = VecSink::new();
        install_sink(sink);
        emit(|| Json::obj().field("event", "unscoped"));
        {
            let _job = enter_scope("job-7");
            assert_eq!(current_scope().as_deref(), Some("job-7"));
            emit(|| Json::obj().field("event", "scoped"));
            {
                let _inner = enter_scope("job-8");
                emit(|| Json::obj().field("event", "nested"));
            }
            emit(|| Json::obj().field("event", "restored"));
        }
        assert_eq!(current_scope(), None);
        drop(take_sink());
        let lines = lock(&captured).clone();
        assert_eq!(lines.len(), 4);
        let jobs: Vec<Option<String>> = lines
            .iter()
            .map(|l| {
                Json::parse(l).expect("valid json")["job"]
                    .as_str()
                    .map(str::to_string)
            })
            .collect();
        assert_eq!(jobs[0], None, "no scope, no job field");
        assert_eq!(jobs[1].as_deref(), Some("job-7"));
        assert_eq!(jobs[2].as_deref(), Some("job-8"), "nested scope wins");
        assert_eq!(jobs[3].as_deref(), Some("job-7"), "outer scope restored");
    }
}
