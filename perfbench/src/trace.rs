//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory while a run measures and are written out once
//! at the end. A span's self time is its duration minus the time its
//! direct children cover; self times of one pass therefore add up to
//! the pass's wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    /// Which measured pass the span belongs to.
    pub run: u32,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Per-layer totals folded from the spans of one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    /// Label the spans opened from now on with pass `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Record a span whose times were observed elsewhere (for example
    /// event arrival times from a child process).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        let end = end.max(start);
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: self.stack.last().copied(),
            run: self.run,
        });
        id
    }

    /// Re-parent an already recorded span (used with [`Tracer::record`]
    /// to build a tree out of observed times).
    pub fn set_parent(&mut self, id: usize, parent: usize) {
        self.spans[id].parent = Some(parent);
    }

    /// Fold the spans of pass `run` into per-name call counts,
    /// inclusive time and self time.
    pub fn layer_times(&self, run: u32) -> BTreeMap<&'static str, LayerTime> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.duration_s();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.run != run {
                continue;
            }
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_s += s.duration_s();
            e.self_s += (s.duration_s() - child_s[i]).max(0.0);
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.run,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        out
    }
}

/// A self-time table for one pass, one row per span name.
pub fn self_time_table(times: &BTreeMap<&str, LayerTime>, wall_s: f64) -> String {
    let mut rows: Vec<_> = times.iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    let mut out = format!(
        "{:<18} {:>7} {:>11} {:>11} {:>7}\n",
        "span", "calls", "total_s", "self_s", "self%"
    );
    for (name, t) in rows {
        let _ = writeln!(
            out,
            "{:<18} {:>7} {:>11.4} {:>11.4} {:>6.1}%",
            name,
            t.calls,
            t.total_s,
            t.self_s,
            100.0 * t.self_s / wall_s.max(f64::MIN_POSITIVE)
        );
    }
    out
}
