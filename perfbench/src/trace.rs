//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out once as JSON lines when the run ends.
//!
//! A span's self time is its duration minus the part of its interval that
//! its children cover; overlapping children (parallel jobs) are merged
//! first so covered time is never counted twice.

use std::path::Path;
use std::time::Instant;

use lassi_harness::Json;

/// One recorded interval, in microseconds since the trace's anchor.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    fn to_json(&self) -> Json {
        Json::Array(vec![
            Json::uint(self.id),
            self.parent.map(Json::uint).unwrap_or(Json::Null),
            Json::Str(self.name.clone()),
            Json::Float(self.start_us),
            Json::Float(self.end_us),
        ])
    }

    fn from_json(value: &Json) -> Option<Span> {
        let [id, parent, name, start, end] = value.as_array()? else {
            return None;
        };
        Some(Span {
            id: id.as_u64()?,
            parent: parent.as_u64(),
            name: name.as_str()?.to_string(),
            start_us: start.as_f64()?,
            end_us: end.as_f64()?,
        })
    }
}

/// Duration of `span` not covered by the union of `children` (each clipped
/// to the span).
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    (span.1 - span.0) - covered
}

/// A span recorder. A disabled recorder keeps nothing, so the untraced run
/// pays only for reading the clock.
pub struct Trace {
    anchor: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            anchor: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Microseconds from the anchor to `at`.
    pub fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.anchor).as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its id (0 when disabled).
    pub fn record(&mut self, parent: Option<u64>, name: &str, start_us: f64, end_us: f64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us,
        });
        id
    }

    /// Record a span from two instants.
    pub fn span(&mut self, parent: Option<u64>, name: &str, start: Instant, end: Instant) -> u64 {
        let (s, e) = (self.us(start), self.us(end));
        self.record(parent, name, s, e)
    }

    /// Set the end of an already recorded span (a parent opened before its
    /// children are known).
    pub fn close(&mut self, id: u64, end: Instant) {
        let end_us = self.us(end);
        if let Some(span) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.end_us = end_us;
        }
    }

    /// The spans as JSON (for a child process to hand to its parent).
    pub fn to_json(&self) -> Json {
        Json::Array(self.spans.iter().map(Span::to_json).collect())
    }

    /// Adopt spans recorded by another process: ids are renumbered, roots
    /// are re-parented under `parent`, and times shift by `offset_us`.
    pub fn absorb(&mut self, parent: Option<u64>, offset_us: f64, spans: &Json) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len() as u64;
        for span in spans
            .as_array()
            .unwrap_or(&[])
            .iter()
            .filter_map(Span::from_json)
        {
            self.spans.push(Span {
                id: span.id + base,
                parent: span.parent.map(|p| p + base).or(parent),
                name: span.name,
                start_us: span.start_us + offset_us,
                end_us: span.end_us + offset_us,
            });
        }
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len() + 1];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize].push((span.start_us, span.end_us));
            }
        }
        self.spans
            .iter()
            .map(|span| self_time((span.start_us, span.end_us), &children[span.id as usize]))
            .collect()
    }

    /// Write one JSON object per span (with its self time) to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (span, self_us) in self.spans.iter().zip(self.self_times()) {
            let line = Json::Object(vec![
                ("id".into(), Json::uint(span.id)),
                (
                    "parent".into(),
                    span.parent.map(Json::uint).unwrap_or(Json::Null),
                ),
                ("name".into(), Json::Str(span.name.clone())),
                ("start_us".into(), Json::Float(span.start_us)),
                ("end_us".into(), Json::Float(span.end_us)),
                ("self_us".into(), Json::Float(self_us)),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(2.0, 4.0), (6.0, 7.0)]), 7.0);
        // Overlapping (parallel) children count once.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 5.0), (3.0, 6.0)]), 5.0);
        // Children are clipped to the parent.
        assert_eq!(self_time((0.0, 10.0), &[(-5.0, 2.0), (9.0, 20.0)]), 7.0);
        // Fully covered.
        assert_eq!(self_time((0.0, 10.0), &[(0.0, 10.0), (4.0, 5.0)]), 0.0);
    }

    #[test]
    fn recorder_tracks_parents_and_absorbs_child_spans() {
        let mut child = Trace::new(true);
        let root = child.record(None, "submit", 0.0, 100.0);
        child.record(Some(root), "job", 10.0, 60.0);

        let mut trace = Trace::new(true);
        let rep = trace.record(None, "repetition", 1000.0, 1200.0);
        trace.absorb(Some(rep), 1000.0, &child.to_json());
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[1].parent, Some(rep));
        assert_eq!(trace.spans[2].parent, Some(trace.spans[1].id));
        assert_eq!(trace.spans[2].start_us, 1010.0);
        assert_eq!(trace.self_times(), vec![100.0, 50.0, 50.0]);
    }

    #[test]
    fn an_opened_parent_is_closed_around_its_children() {
        let mut trace = Trace::new(true);
        let start = Instant::now();
        let parent = trace.span(None, "workload", start, start);
        let child = trace.record(
            Some(parent),
            "setup",
            trace.us(start),
            trace.us(start) + 5.0,
        );
        trace.close(parent, start + std::time::Duration::from_micros(20));
        assert_eq!(trace.spans[(child - 1) as usize].parent, Some(parent));
        let closed = &trace.spans[(parent - 1) as usize];
        assert!((closed.end_us - closed.start_us - 20.0).abs() < 1e-6);
        assert!((trace.self_times()[0] - 15.0).abs() < 1e-6);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut trace = Trace::new(false);
        assert_eq!(trace.record(None, "x", 0.0, 1.0), 0);
        trace.absorb(None, 0.0, &Json::Array(vec![]));
        assert!(trace.spans.is_empty());
    }
}
