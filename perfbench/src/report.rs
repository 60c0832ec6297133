//! What a run prints: human-readable lines, then the result line.
//! Also the per-layer rows of the traced run.

use std::collections::BTreeMap;

use pas_sched::SchedulerStats;

use crate::stats::{median, result_line, Metric};
use crate::trace::{Span, Tracer};

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub lines: Vec<String>,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// The traced run's spans, written out at the end.
    pub spans: Option<Tracer>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64) -> Report {
        Report {
            workload,
            seed,
            lines: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            spans: None,
        }
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Prints the lines, a metric table and the result line; returns
    /// whether every check passed.
    pub fn print(&self) -> bool {
        let correct = self.failed == 0 && self.attempted > 0;
        println!("workload {} seed {}", self.workload, self.seed);
        for line in &self.lines {
            println!("  {line}");
        }
        for m in &self.metrics {
            println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "{}",
            result_line(correct, self.attempted, self.failed, &self.metrics)
        );
        correct
    }
}

/// Peak resident set size of this process, MiB, from `/proc`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Counters for one input of the traced run.
#[derive(Debug, Default, Clone)]
pub struct CountRow {
    pub timing_backtracks: u64,
    pub timing_serializations: u64,
    pub spike_delays: u64,
    pub recursions: u64,
    pub moves_accepted: u64,
    pub moves_rejected: u64,
    pub incr_hits: u64,
    pub incr_deltas: u64,
    pub incr_fallbacks: u64,
    pub profile_segments: u64,
    pub optimal_nodes: Option<u64>,
}

impl CountRow {
    /// From one timing pass, the stage calls' counters and their
    /// (accepted, rejected) min-power moves.
    pub fn new(
        timing: &SchedulerStats,
        stages: &SchedulerStats,
        moves: (u64, u64),
        profile_segments: usize,
        optimal_nodes: Option<u64>,
    ) -> CountRow {
        CountRow {
            timing_backtracks: timing.timing_backtracks as u64,
            timing_serializations: timing.serializations as u64,
            spike_delays: stages.spike_delays as u64,
            recursions: stages.power_recursions as u64,
            moves_accepted: moves.0,
            moves_rejected: moves.1,
            incr_hits: stages.incremental_cache_hits as u64,
            incr_deltas: stages.incremental_deltas as u64,
            incr_fallbacks: stages.incremental_fallbacks as u64,
            profile_segments: profile_segments as u64,
            optimal_nodes,
        }
    }
}

/// Serving-layer rows, filled by `serve_mix` only.
#[derive(Debug, Default, Clone)]
pub struct ServerRows {
    /// Client latency p50 per served class, with sample counts.
    pub class_p50_ms: BTreeMap<&'static str, (f64, usize)>,
    pub cache_hit_ratio: f64,
    pub sheds: f64,
    pub queue_ms: f64,
    pub overhead_ms: f64,
    pub gen_lag_ms: f64,
}

/// Per-layer rows of a traced run. Every quantile names its population
/// and sample count; solved inputs and rejected ones are never pooled.
#[derive(Debug, Default)]
pub struct LayerRows {
    counts_by_kind: BTreeMap<&'static str, Vec<CountRow>>,
    /// Span durations (ms) by name, solved inputs only where the layer
    /// can also run on rejected ones.
    spans: BTreeMap<&'static str, Vec<f64>>,
    /// Span durations (ms) by (population, name) for the populations the
    /// rows do not report: inputs without a schedule, and on `serve_mix`
    /// the serving classes other than `fresh`. Described only.
    other_spans: BTreeMap<(&'static str, &'static str), Vec<f64>>,
    workers: usize,
    pub trace_overhead: f64,
    pub server: Option<ServerRows>,
}

/// Population of the spans of inputs that ended without a schedule.
const UNSOLVED: &str = "unsolved inputs";

/// Layers that only run on inputs that got past the lint guard and
/// whose cost differs between solved and rejected inputs.
const SOLVED_ONLY: [&str; 6] = [
    "max_power",
    "min_power",
    "core.analyze",
    "spec.render",
    "portfolio",
    "problem",
];

impl LayerRows {
    pub fn add_counts(&mut self, kind: &'static str, row: CountRow) {
        self.counts_by_kind.entry(kind).or_default().push(row);
    }

    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers;
    }

    /// Folds span durations in; `solved` lists the ids of inputs that
    /// ended with a schedule.
    pub fn add_spans<'a>(&mut self, spans: impl IntoIterator<Item = &'a Span>, solved: &[u64]) {
        for s in spans {
            let d = s.duration_ns() as f64 / 1e6;
            let is_solved = solved.binary_search(&s.group).is_ok();
            if SOLVED_ONLY.contains(&s.name) && !is_solved {
                self.other_spans
                    .entry((UNSOLVED, s.name))
                    .or_default()
                    .push(d);
            } else {
                self.spans.entry(s.name).or_default().push(d);
            }
        }
    }

    /// Folds in the spans of a population the rows do not report.
    pub fn add_other_spans<'a>(
        &mut self,
        population: &'static str,
        spans: impl IntoIterator<Item = &'a Span>,
    ) {
        for s in spans {
            let d = s.duration_ns() as f64 / 1e6;
            self.other_spans
                .entry((population, s.name))
                .or_default()
                .push(d);
        }
    }

    fn p50(&self, name: &str) -> (f64, usize) {
        match self.spans.get(name) {
            Some(v) if !v.is_empty() => (median(v), v.len()),
            _ => (0.0, 0),
        }
    }

    fn solved(&self) -> &[CountRow] {
        self.counts_by_kind.get("solved").map_or(&[], Vec::as_slice)
    }

    fn all_counts(&self) -> impl Iterator<Item = &CountRow> {
        self.counts_by_kind.values().flatten()
    }

    fn mean<F: Fn(&CountRow) -> u64>(rows: &[CountRow], f: F) -> f64 {
        if rows.is_empty() {
            0.0
        } else {
            rows.iter().map(&f).sum::<u64>() as f64 / rows.len() as f64
        }
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let solved = self.solved();
        let all: Vec<CountRow> = self.all_counts().cloned().collect();
        let total = all.len().max(1) as f64;
        let lint_rejected = self.counts_by_kind.get("lint_rejected").map_or(0, Vec::len);
        let accepted: u64 = solved.iter().map(|r| r.moves_accepted).sum();
        let tried: u64 = solved
            .iter()
            .map(|r| r.moves_accepted + r.moves_rejected)
            .sum();
        let hits: u64 = solved.iter().map(|r| r.incr_hits).sum();
        let lookups: u64 = solved
            .iter()
            .map(|r| r.incr_hits + r.incr_deltas + r.incr_fallbacks)
            .sum();
        let optimal: Vec<u64> = all.iter().filter_map(|r| r.optimal_nodes).collect();
        let attempts: f64 = self
            .spans
            .get("portfolio.attempt")
            .map_or(0.0, |v| v.iter().sum());
        let exact: f64 = self.spans.get("optimal").map_or(0.0, |v| v.iter().sum());
        // Every portfolio call, solved or not, against every attempt.
        let portfolio: f64 = [
            self.spans.get("portfolio"),
            self.other_spans.get(&(UNSOLVED, "portfolio")),
        ]
        .into_iter()
        .flatten()
        .flatten()
        .sum();
        let efficiency = if portfolio > exact && self.workers > 0 {
            attempts / (self.workers as f64 * (portfolio - exact))
        } else {
            0.0
        };
        let server = self.server.clone().unwrap_or_default();
        let class = |c: &str| server.class_p50_ms.get(c).map_or(0.0, |v| v.0);
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        vec![
            Metric::new("spec.parse_ms", self.p50("spec.parse").0, "ms"),
            Metric::new("spec.print_ms", self.p50("spec.print").0, "ms"),
            Metric::new("spec.render_ms", self.p50("spec.render").0, "ms"),
            Metric::new("lint.ms", self.p50("lint").0, "ms"),
            Metric::new("lint.reject_share", lint_rejected as f64 / total, "ratio"),
            Metric::new("timing.ms", self.p50("timing").0, "ms"),
            Metric::new(
                "timing.backtracks",
                Self::mean(&all, |r| r.timing_backtracks),
                "count",
            ),
            Metric::new(
                "timing.serializations",
                Self::mean(&all, |r| r.timing_serializations),
                "count",
            ),
            Metric::new("max_power.ms", self.p50("max_power").0, "ms"),
            Metric::new(
                "max_power.spike_delays",
                Self::mean(solved, |r| r.spike_delays),
                "count",
            ),
            Metric::new(
                "max_power.recursions",
                Self::mean(solved, |r| r.recursions),
                "count",
            ),
            Metric::new("min_power.ms", self.p50("min_power").0, "ms"),
            Metric::new(
                "min_power.moves",
                Self::mean(solved, |r| r.moves_accepted),
                "count",
            ),
            Metric::new("min_power.accept_ratio", ratio(accepted, tried), "ratio"),
            Metric::new("graph.incr_hit_ratio", ratio(hits, lookups), "ratio"),
            Metric::new(
                "graph.fallbacks",
                Self::mean(solved, |r| r.incr_fallbacks),
                "count",
            ),
            Metric::new("core.analyze_ms", self.p50("core.analyze").0, "ms"),
            Metric::new(
                "core.profile_segments",
                Self::mean(solved, |r| r.profile_segments),
                "count",
            ),
            Metric::new("optimal.ms", self.p50("optimal").0, "ms"),
            Metric::new(
                "optimal.nodes",
                if optimal.is_empty() {
                    0.0
                } else {
                    optimal.iter().sum::<u64>() as f64 / optimal.len() as f64
                },
                "count",
            ),
            Metric::new(
                "portfolio.attempt_ms",
                self.p50("portfolio.attempt").0,
                "ms",
            ),
            Metric::new("par.efficiency", efficiency, "ratio"),
            Metric::new("server.class_p50_ms.fresh", class("fresh"), "ms"),
            Metric::new("server.class_p50_ms.exact", class("cache-exact"), "ms"),
            Metric::new("server.class_p50_ms.region", class("cache-region"), "ms"),
            Metric::new(
                "server.class_p50_ms.incremental",
                class("fresh-incremental"),
                "ms",
            ),
            Metric::new("server.cache_hit_ratio", server.cache_hit_ratio, "ratio"),
            Metric::new("server.sheds", server.sheds, "count"),
            Metric::new("server.queue_ms", server.queue_ms, "ms"),
            Metric::new("server.overhead_ms", server.overhead_ms, "ms"),
            Metric::new("harness.gen_lag_ms", server.gen_lag_ms, "ms"),
            Metric::new("harness.trace_overhead", self.trace_overhead, "ratio"),
        ]
    }

    /// One line per span population, with its sample count; layers this
    /// workload does not exercise are named as such.
    pub fn describe(&self) -> Vec<String> {
        let mut out = vec!["layer spans (duration p50, population, samples):".to_string()];
        for (name, v) in &self.spans {
            let population = if SOLVED_ONLY.contains(name) {
                "solved inputs"
            } else {
                "all inputs"
            };
            out.push(format!(
                "  {name:<20} p50 {:>10.4} ms  {population:<14} n={}",
                median(v),
                v.len()
            ));
        }
        for ((population, name), v) in &self.other_spans {
            out.push(format!(
                "  {name:<20} p50 {:>10.4} ms  {population:<14} n={}",
                median(v),
                v.len()
            ));
        }
        for (kind, rows) in &self.counts_by_kind {
            out.push(format!("  verdict {kind}: {} inputs", rows.len()));
        }
        if let Some(server) = &self.server {
            for (class, (p50, n)) in &server.class_p50_ms {
                out.push(format!(
                    "  server class {class:<18} client p50 {p50:>9.4} ms  n={n}"
                ));
            }
        }
        let zero: Vec<String> = self
            .metrics()
            .into_iter()
            .filter(|m| m.value == 0.0)
            .map(|m| m.name)
            .collect();
        if !zero.is_empty() {
            out.push(format!(
                "  zero on this workload (layer not exercised, or nothing counted): {}",
                zero.join(", ")
            ));
        }
        out
    }
}
