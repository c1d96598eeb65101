//! Benchmark-side spans: named intervals around calls into each layer's
//! public functions, recorded from the benchmark's own code.
//!
//! A disabled tracer records nothing, so the end-to-end runs pay no
//! tracing cost; the traced run records every span, attributes self time
//! per layer (a span's duration minus the part its children cover), and
//! exports one timeline that also holds the ranks' own spans.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use microslip::obs::{json, to_chrome_trace, to_jsonl, Event, SpanKind};

/// One recorded interval, in seconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct BenchSpan {
    pub layer: &'static str,
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// Span recorder with an explicit begin/end API (spans nest through a
/// stack, so a child may be opened while its parent's call is running).
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<BenchSpan>,
    stack: Vec<usize>,
    /// Program-side events (rank or daemon traces) placed on this
    /// timeline, with the bench span they ran under.
    foreign: Vec<(Event, Option<usize>)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            foreign: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span; returns its id (meaningless when disabled).
    pub fn begin(&mut self, layer: &'static str, name: &str) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(BenchSpan {
            layer,
            name: name.to_string(),
            start: self.now(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    /// Closes the span `id` (and any child left open inside it).
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer, name);
        let out = f();
        self.end(id);
        out
    }

    /// Start of span `id` on this timeline (0 when disabled).
    pub fn start_of(&self, id: usize) -> f64 {
        self.spans.get(id).map_or(0.0, |s| s.start)
    }

    /// Places program-side events on this timeline, shifted by `offset`
    /// seconds, as children of span `parent`.
    pub fn attach(&mut self, events: &[Event], offset: f64, parent: Option<usize>) {
        if !self.enabled {
            return;
        }
        for e in events {
            self.foreign.push((shift(e, offset), parent));
        }
    }

    /// Self time per layer: each bench span's duration minus the union of
    /// its children (bench spans and attached program spans), summed by
    /// layer. Attached program spans are leaves, summed per span kind
    /// (rank-seconds, since ranks run side by side).
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        let mut add = |layer: &str, secs: f64| match out.iter_mut().find(|(l, _)| l == layer) {
            Some(slot) => slot.1 += secs,
            None => out.push((layer.to_string(), secs)),
        };
        for (id, s) in self.spans.iter().enumerate() {
            let mut children: Vec<(f64, f64)> = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| (c.start, c.end))
                .collect();
            children.extend(
                self.foreign
                    .iter()
                    .filter(|(_, p)| *p == Some(id))
                    .filter_map(|(e, _)| match e {
                        Event::Span(sp) => Some((sp.start, sp.end)),
                        _ => None,
                    }),
            );
            add(
                s.layer,
                (s.end - s.start) - covered(&children, s.start, s.end),
            );
        }
        for (e, _) in &self.foreign {
            if let Event::Span(sp) = e {
                add(
                    &format!("{} (rank {} spans)", kind_layer(sp.kind), sp.kind.name()),
                    sp.duration(),
                );
            }
        }
        out
    }

    /// Writes `<prefix>.bench.jsonl` (bench spans), `<prefix>.events.jsonl`
    /// (program events through `obs::to_jsonl`) and `<prefix>.trace.json`
    /// (one Chrome trace holding both, loadable in Perfetto).
    pub fn export(&self, prefix: &Path) -> Result<(), String> {
        let mut bench = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                bench,
                r#"{{"id":{id},"layer":"{}","name":"{}","start":{},"end":{},"parent":{parent}}}"#,
                json::escape(s.layer),
                json::escape(&s.name),
                json::num(s.start),
                json::num(s.end),
            );
        }
        let events: Vec<Event> = self.foreign.iter().map(|(e, _)| e.clone()).collect();
        let chrome = to_chrome_trace(&events);
        let body = chrome
            .trim_end()
            .strip_suffix("]}")
            .ok_or("unexpected Chrome trace framing")?
            .trim_end();
        let mut lines = vec![
            r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"perfbench"}}"#
                .to_string(),
        ];
        for s in &self.spans {
            lines.push(format!(
                r#"{{"name":"{}","cat":"{}","ph":"X","pid":1,"tid":0,"ts":{},"dur":{}}}"#,
                json::escape(&s.name),
                json::escape(s.layer),
                json::num(s.start * 1e6),
                json::num((s.end - s.start) * 1e6),
            ));
        }
        let joined = format!("{body},\n{}\n]}}\n", lines.join(",\n"));
        let with = |ext: &str| prefix.with_extension(ext);
        std::fs::write(with("bench.jsonl"), bench)
            .map_err(|e| format!("write bench spans: {e}"))?;
        std::fs::write(with("events.jsonl"), to_jsonl(&events))
            .map_err(|e| format!("write events: {e}"))?;
        std::fs::write(with("trace.json"), joined).map_err(|e| format!("write trace: {e}"))
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// `e` with every timestamp moved by `offset` seconds.
fn shift(e: &Event, offset: f64) -> Event {
    let mut e = e.clone();
    match &mut e {
        Event::Span(s) => {
            s.start += offset;
            s.end += offset;
        }
        Event::Remap(d) => d.time += offset,
        Event::Migration { time, .. } | Event::Recovery { time, .. } | Event::Job { time, .. } => {
            *time += offset
        }
        Event::Meta { .. } | Event::Traffic { .. } => {}
    }
    e
}

/// Layer a rank span kind belongs to, for the attribution table.
pub fn kind_layer(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Compute => "lbm",
        SpanKind::Pad => "runtime",
        SpanKind::Halo => "net",
        SpanKind::Remap => "balance",
    }
}
