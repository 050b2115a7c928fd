//! In-memory spans around the calls into each library layer.
//!
//! The traced run records one span per call from the benchmark's own code
//! (the library is not instrumented); spans nest through a stack, are kept
//! in memory, and are written out once when the run ends.

use std::time::Instant;
use symspmv_verify::jsonio::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug)]
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open(usize);

/// The span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        self.stack.push(id);
        // The clock is read last on entry and first on exit, so the
        // recorder's own bookkeeping stays outside the interval.
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Open(id)
    }

    /// Closes a span and returns its duration in seconds. Spans opened
    /// inside it and never closed (a call that failed part-way) are
    /// abandoned with zero duration.
    pub fn end(&mut self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        while self.stack.pop().is_some_and(|top| top != open.0) {}
        let span = &mut self.spans[open.0];
        span.end_ns = end_ns;
        span.secs()
    }

    /// Times `f` under a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name);
        let r = f();
        (r, self.end(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.secs();
            }
        }
        own
    }

    /// Total and self time per span name, in first-seen order:
    /// `(name, calls, total_s, self_s)`.
    pub fn by_name(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let own = self.self_times();
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(own) {
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += span.secs();
                    row.3 += own;
                }
                None => rows.push((span.name, 1, span.secs(), own)),
            }
        }
        rows
    }

    /// The trace as JSON: `{"workload", "seed", "spans": [{name, workload,
    /// start_ns, end_ns, parent}]}` (`parent` is an index into `spans`).
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("workload".into(), Json::Str(workload.into())),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), Json::Num(seed as f64)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// outer [0, 100] ⊃ a [10, 40] ⊃ leaf [20, 30]; outer ⊃ b [50, 90].
    fn fixture() -> Tracer {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
        };
        Tracer {
            epoch: Instant::now(),
            spans: vec![
                span("outer", 0, 100, None),
                span("a", 10, 40, Some(0)),
                span("leaf", 20, 30, Some(1)),
                span("b", 50, 90, Some(0)),
            ],
            stack: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let own: Vec<u64> = fixture()
            .self_times()
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        // outer: 100 − (30 + 40); a: 30 − 10; leaf and b have no children.
        assert_eq!(own, vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorded_spans_nest_by_the_open_stack() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let ((), inner_s) = t.span("inner", || std::hint::black_box(()));
        let sibling = t.begin("sibling");
        t.end(sibling);
        let outer_s = t.end(outer);
        assert!(outer_s >= inner_s);
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert_eq!(t.durations("inner"), vec![inner_s]);
        let rows = t.by_name();
        assert_eq!(
            rows.iter().map(|r| r.0).collect::<Vec<_>>(),
            ["outer", "inner", "sibling"]
        );
    }

    #[test]
    fn trace_json_keeps_the_span_fields() {
        let json = fixture().to_json("w", 7);
        let text = json.write().unwrap();
        let back = Json::parse(&text).unwrap();
        let Some(Json::Arr(spans)) = back.get("spans") else {
            panic!("spans array missing");
        };
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].get("name"), Some(&Json::Str("leaf".into())));
        assert_eq!(spans[2].get("parent"), Some(&Json::Num(1.0)));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[3].get("end_ns"), Some(&Json::Num(90.0)));
    }
}
