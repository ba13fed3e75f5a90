//! Spans recorded around the pipeline calls the benchmark makes, kept in
//! memory and written as JSON when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call: its layer name, start and end since the trace epoch,
/// the span that caused it, and the iteration it belongs to.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Option<Duration>,
    pub parent: Option<usize>,
    pub iter: u64,
}

impl Span {
    pub fn ms(&self) -> Option<f64> {
        self.end.map(|e| (e - self.start).as_secs_f64() * 1e3)
    }
}

/// A span recorder; when off, [`Tracer::span`] just calls through.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Iteration id stamped on every span opened from now on.
    pub iter: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iter: 0,
        }
    }

    /// Start a new iteration. Spans a panic left open stay unfinished and
    /// are ignored by every total.
    pub fn begin_iteration(&mut self, iter: u64) {
        self.iter = iter;
        self.stack.clear();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: None,
            parent,
            iter: self.iter,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = Some(self.epoch.elapsed());
        out
    }

    /// Durations of every finished span named `name`, in ms.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(Span::ms)
            .collect()
    }

    /// Self time of every finished span: its duration minus the part its
    /// children cover. Children run one after another inside their
    /// parent, so that part is the sum of their durations.
    pub fn self_ms(&self) -> Vec<Option<f64>> {
        let mut out: Vec<Option<f64>> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let (Some(p), Some(d)) = (s.parent, s.ms()) {
                if let Some(v) = out[p].as_mut() {
                    *v -= d;
                }
            }
        }
        out
    }

    /// Write every span as JSON, with the run's configuration.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        config: &str,
    ) -> std::io::Result<()> {
        let selfs = self.self_ms();
        let mut s = String::new();
        let _ = write!(s, "{{\"config\": {config}, \"spans\": [");
        for (id, (span, self_ms)) in self.spans.iter().zip(&selfs).enumerate() {
            let us = |d: Duration| d.as_secs_f64() * 1e6;
            let _ = write!(
                s,
                "{}\n{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \
                 \"parent\": {}, \"workload\": \"{workload}\", \"iter\": {}, \"self_ms\": {}}}",
                if id == 0 { "" } else { "," },
                span.name,
                us(span.start),
                span.end.map_or("null".to_string(), |e| us(e).to_string()),
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.iter,
                self_ms.map_or("null".to_string(), |v| v.to_string()),
            );
        }
        s.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}
