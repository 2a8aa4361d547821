//! Spans recorded by the benchmark around the public calls into each
//! layer, kept in memory and written out when the run ends.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent).  A layer's self time is the time its spans cover
//! minus the part their child spans cover.  Work the benchmark does only
//! to time a layer on its own (re-running a phase outside the call that
//! normally runs it) runs only in traced runs, under a span opened with
//! [`Tracer::apart`], after the workload's own figures are taken.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Spans, plus sums and counts of events too frequent to keep one span
/// each (per-call `feed`/`poll` timings).
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    sums: BTreeMap<&'static str, (f64, u64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            sums: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` (no span when tracing is off).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        result
    }

    /// Runs `f`, work done only to time a layer on its own, inside a span
    /// named `name`; does nothing when tracing is off.
    pub fn apart(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer)) {
        if self.on {
            self.span(name, f);
        }
    }

    /// Adds one observation to the running sum `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        if self.on {
            let entry = self.sums.entry(name).or_insert((0.0, 0));
            entry.0 += value;
            entry.1 += 1;
        }
    }

    /// Sum and count of the observations added under `name`.
    pub fn sum(&self, name: &str) -> (f64, u64) {
        self.sums.get(name).copied().unwrap_or((0.0, 0))
    }

    /// Total seconds covered by the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Per span name: count, total seconds and self seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += (span.end - span.start).as_secs_f64();
            }
        }
        let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let total = (span.end - span.start).as_secs_f64();
            let entry = table.entry(span.name).or_insert((0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total - children;
        }
        table
    }

    /// The spans, the self-time table and the sums as one JSON document.
    pub fn to_json(&self, host: &str) -> String {
        let mut out = String::new();
        let w = &mut out;
        let _ = write!(w, "{{\n\"host\": {host},\n\"spans\": [");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                w,
                "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6,
            );
        }
        let _ = write!(w, "\n],\n\"self_time\": [");
        for (i, (name, (count, total, own))) in self.self_times().iter().enumerate() {
            let _ = write!(
                w,
                "{}\n  {{\"name\": \"{name}\", \"count\": {count}, \"total_s\": {total}, \"self_s\": {own}}}",
                if i == 0 { "" } else { "," },
            );
        }
        let _ = write!(w, "\n],\n\"sums\": [");
        for (i, (name, (sum, count))) in self.sums.iter().enumerate() {
            let _ = write!(
                w,
                "{}\n  {{\"name\": \"{name}\", \"count\": {count}, \"sum\": {sum}}}",
                if i == 0 { "" } else { "," },
            );
        }
        let _ = writeln!(w, "\n]\n}}");
        out
    }
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    let weight = position - low as f64;
    sorted[low] * (1.0 - weight) + sorted[high] * weight
}
