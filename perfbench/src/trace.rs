//! In-memory span recorder for the traced run.
//!
//! Spans are timed from outside, around calls into each layer's public
//! functions. Every span carries the id of the problem or request it
//! belongs to, its name, its start and end, and the span that encloses
//! it. Nothing is written until [`Tracer::write_jsonl`] at the end.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Problem or request id shared by all spans of one operation.
    pub group: u64,
    pub name: &'static str,
    /// Index of the enclosing span in the recorder.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(
        &mut self,
        group: u64,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            group,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.ns(Instant::now());
        result
    }

    /// Records a span whose interval was measured elsewhere (for
    /// example a request timed by the load generator). Returns its
    /// index for use as a parent.
    pub fn record(
        &mut self,
        group: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            group,
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"group\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.group, s.name, s.start_ns, s.end_ns, self_ns[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover. Overlapping children (parallel
/// work) count once; children reaching outside the parent are clipped.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.clamp(s.start_ns, s.end_ns),
                        spans[c].end_ns.clamp(s.start_ns, s.end_ns),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = s.start_ns;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - union
        })
        .collect()
}

/// Sum of the self times of every span below `root`, its own left out:
/// the part of `root` that the spans under it account for.
pub fn descendants_self_ns(spans: &[Span], self_ns: &[u64], root: usize) -> u64 {
    let mut total = 0;
    for (i, s) in spans.iter().enumerate().skip(root + 1) {
        let mut p = s.parent;
        while let Some(q) = p {
            if q == root {
                total += self_ns[i];
                break;
            }
            p = spans[q].parent;
        }
    }
    total
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            group: 1,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // problem [0,100): parse [5,15), max_power [20,70) with timing
        // [30,50) inside it, render [80,90).
        let spans = vec![
            span("problem", None, 0, 100),
            span("parse", Some(0), 5, 15),
            span("max_power", Some(0), 20, 70),
            span("timing", Some(2), 30, 50),
            span("render", Some(0), 80, 90),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![30, 10, 30, 20, 10]);
        assert_eq!(descendants_self_ns(&spans, &own, 0), 70);
        assert_eq!(descendants_self_ns(&spans, &own, 2), 20);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two parallel attempts overlap in [40,60); a third child sticks
        // out past the parent's end.
        let spans = vec![
            span("portfolio", None, 0, 100),
            span("attempt", Some(0), 10, 60),
            span("attempt", Some(0), 40, 80),
            span("attempt", Some(0), 90, 130),
        ];
        let own = self_times_ns(&spans);
        // Covered: [10,80) ∪ [90,100) = 80.
        assert_eq!(own[0], 20);
        assert_eq!(own[3], 40);
    }

    #[test]
    fn recorder_nests_spans_and_groups_them_by_name() {
        let mut t = Tracer::default();
        let v = t.span(7, "problem", |t| {
            t.span(7, "parse", |_| 1) + t.span(7, "lint", |t| t.span(7, "inner", |_| 2))
        });
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.group == 7 && s.end_ns >= s.start_ns));
        let own = self_times_ns(spans);
        assert_eq!(
            descendants_self_ns(spans, &own, 0) + own[0],
            spans[0].duration_ns()
        );
    }
}
