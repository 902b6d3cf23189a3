//! In-memory spans for the traced run: one span per call into a layer's
//! public entry point, kept in a vector and written out when the run ends.

use serde_json::Value;

use crate::json::obj;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: usize,
    /// The span that made the call, if any.
    pub parent: Option<usize>,
    /// The measurement the span belongs to; spans of one job share it.
    pub job: usize,
    /// Layer entry point, e.g. `sim.engine`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Data packets the call covered (0 where packets do not apply).
    pub pkts: u64,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder. Nesting follows the call stack of [`Tracer::span`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    /// Starts a new job: spans recorded from here on share its identifier.
    pub fn next_job(&mut self) -> usize {
        self.job += 1;
        self.job
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span named `name` now, nested under the innermost open
    /// span; [`Tracer::end`] closes it.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            job: self.job,
            name,
            start_ns,
            end_ns: start_ns,
            pkts: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) at `at`.
    pub fn end(&mut self, id: usize, at: Instant, pkts: u64) {
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost first");
        self.stack.pop();
        let end_ns = self.ns(at);
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.pkts = pkts;
    }

    /// Times `f` as a span named `name`, nested under the innermost open
    /// span. `f` returns its result and the packets it covered; `span`
    /// returns the result and the span's seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> (T, f64) {
        let id = self.begin(name);
        let (out, pkts) = f(self);
        self.end(id, Instant::now(), pkts);
        (out, self.spans[id].secs())
    }

    /// Records a span timed elsewhere (on a worker thread), nested under
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, pkts: u64) {
        let span = Span {
            id: self.spans.len(),
            parent: self.stack.last().copied(),
            job: self.job,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            pkts,
        };
        self.spans.push(span);
    }

    /// Every span recorded so far, in start order of their calls.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span's duration minus the time its direct children cover.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id].secs() - children
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> Value {
        Value::Seq(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("id", Value::U64(s.id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("job", Value::U64(s.job as u64)),
                        ("name", Value::Str(s.name.into())),
                        ("start_ns", Value::U64(s.start_ns)),
                        ("end_ns", Value::U64(s.end_ns)),
                        ("self_ns", Value::F64((self.self_secs(s.id) * 1e9).round())),
                        ("pkts", Value::U64(s.pkts)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let mut t = Tracer::new();
        let job = t.next_job();
        let (v, secs) = t.span("outer", |t| {
            let (inner, _) = t.span("inner", |_| (7, 3));
            (inner + 1, 5)
        });
        assert_eq!(v, 8);
        assert_eq!(secs, t.spans()[0].secs());
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].pkts),
            ("outer", None, 5)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].pkts),
            ("inner", Some(0), 3)
        );
        assert!(spans.iter().all(|s| s.job == job && s.end_ns >= s.start_ns));
        assert!(t.self_secs(0) <= spans[0].secs());
    }
}
