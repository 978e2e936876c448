//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory and are written out when the run ends. A span
//! has a name, a start, an end, the span that caused it and the id of
//! the operation it belongs to; a layer's self time is its span minus the
//! part its children cover. Spans inside the product crates are a later
//! change (ROADMAP "Query profiles").

use std::time::Instant;

use crate::json::Json;

pub type SpanId = u32;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// The operation (client request) this span is part of.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::since(Instant::now())
    }
}

impl Tracer {
    /// A tracer whose clock started at `epoch`: tracers of two threads
    /// that share an epoch can be merged with [`Tracer::absorb`].
    pub fn since(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Append another tracer's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record `f` as a child span of `parent`.
    pub fn child<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let op = self.spans[parent as usize].op;
        let id = self.open(name, Some(parent), op);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id as usize]
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Nanoseconds of each span not covered by its direct children,
    /// indexed like `spans()`. Children of one span do not overlap here
    /// (each is opened after the previous closed), so covered time is
    /// their sum.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Share of root spans called `root` that their direct children
    /// account for, in percent.
    pub fn child_coverage_pct(&self, root: &str) -> f64 {
        let selfs = self.self_times();
        let (mut total, mut own) = (0u64, 0u64);
        for (s, own_ns) in self.spans.iter().zip(selfs) {
            if s.name == root && s.parent.is_none() {
                total += s.dur_ns();
                own += own_ns;
            }
        }
        if total == 0 {
            0.0
        } else {
            100.0 * (total - own) as f64 / total as f64
        }
    }

    /// The trace as JSON. At most `max_spans` spans are written (whole
    /// runs of point lookups record hundreds of thousands); the total is
    /// stated beside them.
    pub fn to_json(&self, max_spans: usize) -> Json {
        let selfs = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .take(max_spans)
            .map(|(id, (s, own))| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op", Json::Num(s.op as f64)),
                    ("name", s.name.into()),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(*own as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("spans_total", Json::Num(self.spans.len() as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::default();
        let root = t.open("op", None, 0);
        let a = t.open("a", Some(root), 0);
        t.close(a);
        let b = t.child("b", root, || 7);
        assert_eq!(b, 7);
        t.close(root);
        // Make the arithmetic exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 40;
        t.spans[2].start_ns = 40;
        t.spans[2].end_ns = 95;
        assert_eq!(t.self_times(), vec![15, 30, 55]);
        assert!((t.child_coverage_pct("op") - 85.0).abs() < 1e-9);
        assert_eq!(t.durations("a"), vec![30.0]);
        assert_eq!(t.get(2).op, 0);
        let j = t.to_json(2);
        assert_eq!(j.get("spans_total").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            j.get("spans").and_then(Json::as_arr).map(<[_]>::len),
            Some(2)
        );
    }
}
