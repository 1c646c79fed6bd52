//! Harness-side spans around calls into each layer's public functions.
//!
//! Spans live in memory and are written as a Chrome trace when the
//! workload ends. A span's name is `layer:function`; a layer's self
//! time is its spans' durations minus what their direct children cover.
//! Spans *inside* the program are ROADMAP item 4, not this file.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The pass the span belongs to: spans of one pass share it.
    pub pass: u32,
    /// Calls covered, for a span around a loop of per-matrix calls.
    pub calls: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split(':').next().unwrap_or(self.name)
    }
}

/// Token returned by [`Tracer::begin`]; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    pass: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            pass: 0,
            stack: Vec::new(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            pass: self.pass,
            calls: 1,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        self.end_calls(open, 1);
    }

    /// Ends a span that covered `calls` calls of the named function.
    pub fn end_calls(&mut self, open: Open, calls: usize) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close in LIFO order");
        self.spans[id].end_ns = end_ns;
        self.spans[id].calls = calls as u32;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }
}

/// Self nanoseconds per layer: each span's duration minus the part its
/// direct children cover, summed by layer.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Nanoseconds covered by top-level spans, per pass.
pub fn top_level_ns_by_pass(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        *out.entry(s.pass).or_insert(0) += s.dur_ns();
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, one row (`tid`) per layer, `pass` and `parent` in
/// `args`.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Json {
    let mut tids: Vec<&str> = spans.iter().map(Span::layer).collect();
    tids.sort_unstable();
    tids.dedup();
    let tid = |layer: &str| tids.iter().position(|t| *t == layer).unwrap_or(0) as f64;
    let mut events: Vec<Json> = tids
        .iter()
        .map(|layer| {
            Json::Obj(vec![
                ("ph".into(), Json::Str("M".into())),
                ("pid".into(), Json::Num(1.0)),
                ("tid".into(), Json::Num(tid(layer))),
                ("name".into(), Json::Str("thread_name".into())),
                (
                    "args".into(),
                    Json::Obj(vec![("name".into(), Json::Str((*layer).into()))]),
                ),
            ])
        })
        .collect();
    events.extend(spans.iter().enumerate().map(|(id, s)| {
        Json::Obj(vec![
            ("ph".into(), Json::Str("X".into())),
            ("pid".into(), Json::Num(1.0)),
            ("tid".into(), Json::Num(tid(s.layer()))),
            ("name".into(), Json::Str(s.name.into())),
            ("cat".into(), Json::Str(workload.into())),
            ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
            ("dur".into(), Json::Num(s.dur_ns() as f64 / 1e3)),
            (
                "args".into(),
                Json::Obj(vec![
                    ("id".into(), Json::Num(id as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("pass".into(), Json::Num(f64::from(s.pass))),
                    ("calls".into(), Json::Num(f64::from(s.calls))),
                ]),
            ),
        ])
    }));
    Json::Obj(vec![
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        ("traceEvents".into(), Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // driver [0,100] has two sibling children, sim [10,40] and
        // sim [50,70]; the first has a nested dense child [20,30].
        let spans = vec![
            span("driver:factor", 0, 100, None),
            span("sim:launch", 10, 40, Some(0)),
            span("dense:gemm", 20, 30, Some(1)),
            span("sim:launch", 50, 70, Some(0)),
            span("batch:upload", 100, 130, None),
        ];
        let by = self_ns_by_layer(&spans);
        assert_eq!(by["driver"], 100 - 30 - 20);
        assert_eq!(by["sim"], (30 - 10) + 20, "grandchild is charged once");
        assert_eq!(by["dense"], 10);
        assert_eq!(by["batch"], 30);
        // Self times partition the top-level spans exactly.
        assert_eq!(by.values().sum::<u64>(), 130);
        assert_eq!(top_level_ns_by_pass(&spans)[&0], 130);
    }

    #[test]
    fn tracer_records_parents_and_is_inert_when_off() {
        let mut tr = Tracer::new(true);
        tr.set_pass(3);
        let outer = tr.begin("a:outer");
        tr.span("b:inner", || ());
        tr.end_calls(outer, 7);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!((tr.spans[0].parent, tr.spans[0].calls), (None, 7));
        assert!(tr.spans.iter().all(|s| s.pass == 3));
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);

        let mut off = Tracer::new(false);
        let o = off.begin("a:x");
        off.end(o);
        assert!(off.spans.is_empty());
    }
}
