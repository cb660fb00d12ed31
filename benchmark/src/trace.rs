//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only by a traced run (`--trace 1`); an untraced
//! run carries a disabled [`Tracer`] whose calls return at once, so the
//! end-to-end metrics never pay for the recording. Spans are kept in
//! memory and written out when the run ends.

use std::time::Instant;

use serde_json::{json, Value};

/// Identifier of a span inside one [`Tracer`].
pub type SpanId = usize;

/// One recorded interval: `name`, who caused it, and when it ran, in
/// microseconds of host time since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

/// Records spans, or nothing at all when disabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_us = self.micros(Instant::now());
        }
    }

    /// Records a span whose two instants were taken elsewhere (a cell
    /// timed on an engine worker thread, say).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            start_us: self.micros(start),
            end_us: self.micros(end),
        });
        Some(id)
    }

    fn micros(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span with its self time, as the JSON written to
    /// `benchmark/out/trace_<workload>.json`.
    pub fn to_json(&self) -> Value {
        let selfs = self_times_us(&self.spans);
        Value::Seq(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_us)| {
                    json!({
                        "id": s.id as u64,
                        "parent": s.parent.map(|p| p as u64),
                        "name": s.name,
                        "start_us": s.start_us,
                        "end_us": s.end_us,
                        "self_us": self_us,
                    })
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children running side by side on
/// worker threads overlap, so the covered part is the union of their
/// intervals (clipped to the parent), not the sum.
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_us.clamp(p.start_us, p.end_us);
            let end = span.end_us.clamp(p.start_us, p.end_us);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_us;
            for &(start, end) in kids.iter() {
                let start = start.max(frontier);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            (span.end_us - span.start_us).saturating_sub(covered)
        })
        .collect()
}

/// Summed self time, in seconds, of every span called `name`.
pub fn self_seconds(spans: &[Span], name: &str) -> f64 {
    let selfs = self_times_us(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .fold(0.0, |sum, (_, us)| sum + us as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_us: u64, end_us: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two siblings back to back, one with a child of its own.
            span(1, Some(0), 10, 40),
            span(2, Some(0), 40, 70),
            span(3, Some(2), 45, 55),
        ];
        assert_eq!(self_times_us(&spans), vec![40, 30, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        // Two workers run cells side by side under one engine span.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 60),
            span(2, Some(0), 30, 90),
        ];
        assert_eq!(self_times_us(&spans)[0], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("pass", None);
        tracer.end(id);
        assert!(id.is_none());
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let mut tracer = Tracer::new(true);
        let pass = tracer.begin("pass", None);
        let cell = tracer.begin("cell", pass);
        tracer.end(cell);
        tracer.end(pass);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_us >= spans[1].end_us);
    }
}
