//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span has a name, start and end (ns since the recorder's origin),
//! an optional parent span and an optional request id. Spans stay in
//! memory and are written out once, as JSON lines, when the run ends.
//! Per-layer call timings are read back from the spans by name.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds from the origin to `t` (0 for instants before it).
    pub fn at_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: Option<u64>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span measured elsewhere (client threads time their own
    /// requests and hand the instants over afterwards).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, req: Option<u64>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            req,
        });
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Median duration in µs of the spans called `name`, with the count.
    pub fn median_us(&self, name: &str) -> (Option<f64>, usize) {
        let d = self.durations_us(name);
        (stats::median(&d), d.len())
    }

    /// Median over request ids of the summed durations (µs) of the
    /// spans called `name` that carry that id — for layers a request
    /// enters more than once (encode its request, then its response).
    pub fn per_request_median_us(&self, name: &str) -> (Option<f64>, usize) {
        let mut per: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            if let Some(r) = s.req {
                *per.entry(r).or_default() += (s.end_ns - s.start_ns) as f64 / 1e3;
            }
        }
        let v: Vec<f64> = per.into_values().collect();
        (stats::median(&v), v.len())
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let req = s.req.map_or("null".to_owned(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{req}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
