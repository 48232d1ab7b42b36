//! The harness's own span recorder for the traced pass.
//!
//! Spans are recorded from outside the program, around each call into a
//! layer's public function: name, start, end, the span that caused it and
//! the request it belongs to. They stay in memory until the pass ends and
//! are then written as JSON lines. A span's self time is its duration
//! minus the part its direct children cover; the traced pass is
//! sequential, so children never overlap.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Spans of one request (one protocol op or its decomposition) share this.
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Total and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Recorder {
    /// A disabled recorder runs the wrapped calls without recording, which
    /// is what the untraced in-process pass uses to price the recorder.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Starts a new request id for the spans that follow.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            request: self.request,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span id: duration minus the direct children's durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += own[s.id as usize];
        }
        out
    }

    /// Summed duration of the direct children of the spans named
    /// `parent`, in milliseconds: what the layers below it account for.
    pub fn children_total_ms(&self, parent: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| {
                s.parent
                    .is_some_and(|p| self.spans[p as usize].name == parent)
            })
            .map(Span::duration_ns)
            .sum::<u64>() as f64
            / 1e6
    }

    /// Appends the spans to `path`, one JSON object per line, tagged with
    /// the workload they came from.
    pub fn append_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        let own = self.self_ns();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"span\":{},\"parent\":{parent},\"request\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns, own[s.id as usize]
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut rec = Recorder::new(true);
        rec.span("ask", |r| {
            spin(200_000);
            r.span("materialize", |r| {
                spin(200_000);
                r.span("gather", |_| spin(200_000));
            });
            r.span("mine", |_| spin(200_000));
        });
        let spans = rec.spans();
        let own = rec.self_ns();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        // The grandchild is charged to its parent only, not to the root.
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[3].duration_ns()
        );
        assert_eq!(own[1], spans[1].duration_ns() - spans[2].duration_ns());
        assert_eq!(own[2], spans[2].duration_ns());
        // Self times partition the root's wall exactly.
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
        let totals = rec.totals_by_name();
        assert_eq!(totals["ask"].count, 1);
        assert_eq!(totals["ask"].self_ns, own[0]);
    }

    #[test]
    fn requests_tag_their_spans_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.next_request();
        rec.span("query", |_| {});
        rec.next_request();
        rec.span("ask", |_| {});
        assert_eq!(rec.spans()[0].request, 1);
        assert_eq!(rec.spans()[1].request, 2);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("ask", |r| r.span("mine", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
