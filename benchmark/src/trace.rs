//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer of the program; nothing inside the program is
//! instrumented. They stay in memory until the run ends and are then
//! written as one JSON file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u64;

/// No parent / no request.
pub const NONE: u64 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// Spans of one client request share this identifier.
    pub request: u64,
    pub name: &'static str,
    /// The crate the call goes into (`cjdbc`, `core`, `engine`, `sql`,
    /// `storage`), or `client` for the driver's own rounds and sections.
    pub layer: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves an id, so children can name a parent that is still open.
    pub fn alloc_id(&self) -> SpanId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &self,
        id: SpanId,
        name: &'static str,
        layer: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            layer,
            start_us: self.micros(start),
            end_us: self.micros(end),
        };
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .push(span);
    }

    /// Records a finished span; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.alloc_id();
        self.record_as(id, name, layer, parent, request, start, end);
        id
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, layer, parent, request, start, Instant::now());
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("a tracing thread panicked").len()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a tracing thread panicked")
    }
}

/// Self time per layer, in ms: each span's duration minus the part of it
/// its children cover (children of one parent may overlap when two clients
/// run side by side, so the covered part is the union of their intervals).
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NONE {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0.0, |iv| {
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut total = 0.0;
            let mut reach = s.start_us;
            for &(lo, hi) in iv.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_us);
                if hi > lo {
                    total += hi - lo;
                    reach = hi;
                }
            }
            total
        });
        *by_layer.entry(s.layer).or_default() += (s.duration_us() - covered).max(0.0) / 1e3;
    }
    by_layer
}

/// Serialises the spans and the per-layer self times.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 256);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"layer_self_ms\": {{"
    );
    for (i, (layer, ms)) in layer_self_ms(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{layer}\": {ms:.3}");
    }
    out.push_str("}, \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"layer\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}}}",
            s.id, s.parent, s.request, s.name, s.layer, s.start_us, s.end_us
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, layer: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            request: NONE,
            name: "t",
            layer,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, NONE, "client", 0.0, 10_000.0),
            // Two overlapping children cover [1000, 7000] = 6 ms.
            span(2, 1, "cjdbc", 1_000.0, 5_000.0),
            span(3, 1, "cjdbc", 3_000.0, 7_000.0),
            span(4, 2, "engine", 1_000.0, 2_000.0),
        ];
        let by_layer = layer_self_ms(&spans);
        assert!((by_layer["client"] - 4.0).abs() < 1e-9);
        assert!((by_layer["cjdbc"] - (3.0 + 4.0)).abs() < 1e-9);
        assert!((by_layer["engine"] - 1.0).abs() < 1e-9);
    }
}
