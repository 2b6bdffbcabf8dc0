//! In-memory spans recorded around calls into the program's crates.
//! Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use sea_core::trace::json::ObjWriter;

use crate::record::SpanTotal;

/// One finished (or still open) span.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    thread: usize,
    start_s: f64,
    dur_s: f64,
}

/// A per-thread span recorder. Workers record into their own tracer and
/// the coordinator [`absorb`](Tracer::absorb)s them under its open span.
pub struct Tracer {
    t0: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, closed by [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

impl Tracer {
    /// A recorder for `thread`, timing relative to `t0`.
    pub fn new(t0: Instant, thread: usize) -> Tracer {
        Tracer {
            t0,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times are relative to.
    pub fn origin(&self) -> Instant {
        self.t0
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            thread: self.thread,
            start_s: self.t0.elapsed().as_secs_f64(),
            dur_s: 0.0,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span`, which must be the innermost open span; returns its
    /// duration in seconds.
    pub fn exit(&mut self, span: Open) -> f64 {
        assert_eq!(self.open.pop(), Some(span.0), "spans must nest");
        let s = &mut self.spans[span.0];
        s.dur_s = self.t0.elapsed().as_secs_f64() - s.start_s;
        s.dur_s
    }

    /// Records a finished child span of `dur_s` seconds that ended now, for
    /// a call timed by code that returns its own duration.
    pub fn timed(&mut self, name: &'static str, dur_s: f64) {
        let end = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            thread: self.thread,
            start_s: end - dur_s,
            dur_s,
        });
    }

    /// Moves a worker's spans in, re-parenting its roots under the
    /// innermost open span.
    pub fn absorb(&mut self, worker: Tracer) {
        assert!(worker.open.is_empty(), "worker left a span open");
        let base = self.spans.len();
        let root = self.open.last().copied();
        self.spans.extend(worker.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map_or(root, |p| Some(p + base));
            s
        }));
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .collect()
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Per-name count, total and self time. Self time is a span's duration
    /// minus the part of it its children cover; children on other threads
    /// overlap, so their intervals are merged first.
    pub fn totals(&self) -> Vec<SpanTotal> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_s, s.start_s + s.dur_s));
            }
        }
        let mut by_name: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (lo, hi) = (s.start_s, s.start_s + s.dur_s);
            let mut covered = 0.0;
            let mut reach = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let t = by_name.entry(s.name).or_insert(SpanTotal {
                name: s.name,
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            t.count += 1;
            t.total_s += s.dur_s;
            t.self_s += (s.dur_s - covered).max(0.0);
        }
        by_name.into_values().collect()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let mut o = ObjWriter::new();
                o.str_field("name", s.name)
                    .str_field("ph", "X")
                    .f64_field("ts", s.start_s * 1e6)
                    .f64_field("dur", s.dur_s * 1e6)
                    .u64_field("pid", 1)
                    .u64_field("tid", s.thread as u64);
                o.finish()
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_s: f64, dur_s: f64) -> Span {
        Span {
            name,
            parent,
            thread: 0,
            start_s,
            dur_s,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.spans = vec![
            span("campaign", None, 0.0, 10.0),
            // Two workers overlapping on [2, 6], one more span after them.
            span("run", Some(0), 1.0, 5.0),
            span("run", Some(0), 2.0, 4.0),
            span("sync", Some(0), 8.0, 1.0),
            span("append", Some(1), 1.0, 1.0),
        ];
        let totals = t.totals();
        let get = |n: &str| totals.iter().find(|s| s.name == n).cloned().unwrap();
        assert_eq!(get("campaign").self_s, 10.0 - 5.0 - 1.0);
        assert_eq!(get("run").count, 2);
        assert_eq!(get("run").total_s, 9.0);
        assert_eq!(get("run").self_s, 4.0 + 4.0);
        assert_eq!(get("sync").self_s, 1.0);
    }

    #[test]
    fn spans_nest_and_workers_reparent() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0, 0);
        let outer = t.enter("outer");
        let mut w = Tracer::new(t0, 1);
        let inner = w.enter("work");
        w.exit(inner);
        t.absorb(w);
        t.timed("call", 0.0);
        t.exit(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.durations("work").len(), 1);
        assert!(t.chrome_trace().contains("\"tid\":1"));
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn crossed_spans_panic() {
        let mut t = Tracer::new(Instant::now(), 0);
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
