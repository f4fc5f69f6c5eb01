//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (the layer function called), the operation id it
//! belongs to, the span that was open when it started, and its start
//! and end. Spans stay in memory and are written out once, at the end
//! of a traced run. A layer's self time is its span's duration minus
//! the time its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    open: Vec<usize>,
    done: Vec<Span>,
}

impl Spans {
    /// A recorder; when `on` is false every call is a pass-through.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.done.len();
        self.done.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
        });
        self.open.push(id);
        let r = f();
        self.open.pop();
        self.done[id].end_ns = self.ns(Instant::now());
        r
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name,
                op,
                parent: self.open.last().copied(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.done.push(span);
        }
    }

    /// Self time, in ms, of every span named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.done.len()];
        for s in &self.done {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.done
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(*c) as f64 / 1e6)
            .collect()
    }

    /// Copies a later recorder's spans after these, on this one's
    /// time base.
    pub fn append(&mut self, other: &Spans) {
        let base = self.done.len();
        let offset = self.ns(other.epoch);
        for s in &other.done {
            self.done.push(Span {
                parent: s.parent.map(|p| p + base),
                start_ns: s.start_ns + offset,
                end_ns: s.end_ns + offset,
                ..s.clone()
            });
        }
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`,
    /// Perfetto).
    pub fn write_chrome(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.done.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"op\": {}, \"span\": {i}, \"parent\": {parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.op,
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
