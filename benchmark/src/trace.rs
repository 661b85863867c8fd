//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code around calls
//! into the program's public functions; nothing inside the program is
//! instrumented. A span's self time is its duration minus the part of its
//! interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `pristi-core.eps_eval`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation (train step, window, request or tick) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder with a stack of open spans.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder; times are relative to now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its handle.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the union of its children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.dur_ns().saturating_sub(union_ns(kids)))
            .collect()
    }

    /// Per-name `(self times, durations)` in nanoseconds, one entry per span.
    pub fn by_name(&self) -> BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.0.push(st);
            e.1.push(s.dur_ns());
        }
        out
    }

    /// Share of the root spans' total duration covered by the self time of
    /// the spans below them.
    pub fn coverage(&self) -> f64 {
        let selfs = self.self_times_ns();
        let (mut roots, mut covered) = (0u64, 0u64);
        for (s, st) in self.spans.iter().zip(selfs) {
            match s.parent {
                None => roots += s.dur_ns(),
                Some(_) => covered += st,
            }
        }
        covered as f64 / roots.max(1) as f64
    }

    /// Total duration of the root spans, in seconds.
    pub fn roots_total_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns())
            .sum::<u64>() as f64
            / 1e9
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

/// Length of the union of half-open intervals.
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}
