//! The offline workloads: closed loops, one problem at a time.
//!
//! `spike_heavy` and `generated_500` push every problem through the
//! CLI path (PASDL text → `parse_problem` → `PowerAwareScheduler::schedule`
//! → `print_schedule`). `pmax_sweep` runs the design-space loop: each
//! sweep point's text is parsed and scheduled by `schedule_portfolio`
//! with four restarts on two threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pas_core::{analyze, PowerConstraints, Problem, Schedule};
use pas_graph::units::Power;
use pas_obs::CountingObserver;
use pas_rover::{build_rover_problem, EnvCase};
use pas_sched::optimal::{minimize_finish_time_partitioned, OptimalConfig};
use pas_sched::{
    improve_gaps_observed, schedule_max_power, schedule_timing, Parallelism, PowerAwareScheduler,
    ScheduleError, SchedulerConfig, SchedulerStats,
};
use pas_spec::{parse_problem, parse_schedule, print_problem, print_schedule};
use pas_workload::{generate, GeneratorConfig, Topology};

use crate::parts::{emit, Part};
use crate::report::{CountRow, LayerRows, Report};
use crate::stats::{median, summarize, Digest, Metric};
use crate::trace::{descendants_self_ns, ms, self_times_ns, Tracer};

/// Restarts per sweep point, as in the design-space example.
const RESTARTS: usize = 4;
/// `P_max` multipliers of the sweep, in tenths.
const PMAX_TENTHS: [i64; 6] = [4, 6, 8, 10, 12, 16];
/// Set-up is repeated at least this often and this long; `setup_s` is
/// the median.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;

/// One input: its PASDL text and the problem parsed from it in set-up,
/// kept untouched as the reference for checking results.
pub struct Job {
    pub label: String,
    pub text: String,
    pub pristine: Problem,
    /// The pipeline may reject this input outside the lint guard (the
    /// pinned slow-failure instance).
    pub may_reject: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    /// parse → schedule → print_schedule.
    Cli,
    /// parse → schedule_portfolio(4 restarts, 2 threads) → print_schedule.
    Portfolio,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Schedule(String),
    LintRejected,
    Rejected(String),
    Panicked(String),
}

impl Verdict {
    fn digest_bytes(&self) -> Vec<u8> {
        match self {
            Verdict::Schedule(text) => text.clone().into_bytes(),
            Verdict::LintRejected => b"lint-rejected".to_vec(),
            Verdict::Rejected(e) => format!("rejected: {e}").into_bytes(),
            Verdict::Panicked(e) => format!("panicked: {e}").into_bytes(),
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    path: Path,
    /// The tail percentile is chosen for this many samples; the run
    /// makes at least this many. Each is set so that the percentile
    /// falls inside one input's samples, never on the edge between two:
    /// p85 of 16 inputs (`spike_heavy`) and of 24 (`generated_500`), p90
    /// of 66 (`pmax_sweep`).
    tail_floor_n: usize,
    build: fn(u64) -> Vec<Job>,
}

pub const SPIKE_HEAVY: Workload = Workload {
    name: "spike_heavy",
    path: Path::Cli,
    tail_floor_n: 80,
    build: spike_heavy_jobs,
};

pub const GENERATED_500: Workload = Workload {
    name: "generated_500",
    path: Path::Cli,
    tail_floor_n: 72,
    build: generated_500_jobs,
};

pub const PMAX_SWEEP: Workload = Workload {
    name: "pmax_sweep",
    path: Path::Portfolio,
    tail_floor_n: 100,
    build: pmax_sweep_jobs,
};

fn job(label: String, problem: Problem, may_reject: bool) -> Job {
    let text = print_problem(&problem);
    let pristine = parse_problem(&text).expect("printed PASDL parses back");
    Job {
        label,
        text,
        pristine,
        may_reject,
    }
}

/// The rover at 4–12 unrolled iterations in every environment case,
/// plus one pinned generated instance that max-power rejects slowly.
/// The inputs are fixed; the seed sets the order they are visited in.
fn spike_heavy_jobs(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for case in EnvCase::ALL {
        for iterations in [4, 6, 8, 10, 12] {
            jobs.push(job(
                format!("rover_{}_{iterations}it", case.label()),
                build_rover_problem(case, iterations).problem,
                false,
            ));
        }
    }
    let pinned = generate(&GeneratorConfig {
        seed: 3,
        tasks: 30,
        resources: 4,
        topology: Topology::Random,
        ..GeneratorConfig::default()
    });
    jobs.push(job("random30_r4_seed3".into(), pinned, true));
    shuffled(jobs, seed)
}

/// splitmix64, for deriving per-input generator seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generator seeds of the `generated_500` set: the first 24 of seeds
/// 1–27 on which the default pipeline reaches a verdict in under 2 s.
/// Seeds 5, 8 and 17 are left out because one such instance outlasts a
/// whole run; their measured times are in `perfbench/README.md`.
const GENERATED_500_SEEDS: [u64; 24] = [
    1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27,
];

fn generated_500_jobs(seed: u64) -> Vec<Job> {
    let jobs = GENERATED_500_SEEDS
        .iter()
        .map(|&gen_seed| {
            let problem = generate(&GeneratorConfig {
                seed: gen_seed,
                tasks: 500,
                resources: 62,
                topology: Topology::Layered { layers: 10 },
                ..GeneratorConfig::default()
            });
            job(format!("layered500_seed{gen_seed}"), problem, false)
        })
        .collect();
    shuffled(jobs, seed)
}

/// Fisher–Yates under a splitmix64 stream: the run seed sets the order
/// in which a fixed input set is visited.
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

/// Generated problems of the sweep: (generator seed, tasks, topology).
/// Fixed, like the rest of the sweep's inputs, so that every run makes
/// the same design-space answers; the run seed sets the visiting order.
const PMAX_SWEEP_GENERATED: [(u64, usize, Topology); 4] = [
    (1, 12, Topology::Layered { layers: 4 }),
    (2, 16, Topology::Random),
    (3, 20, Topology::Layered { layers: 4 }),
    (4, 24, Topology::Random),
];

/// The paper's example, the rover at 1–2 iterations and four generated
/// 12–24-task problems, each at six `P_max` levels.
fn pmax_sweep_jobs(seed: u64) -> Vec<Job> {
    let mut bases: Vec<(String, Problem)> =
        vec![("paper".into(), pas_core::example::paper_example().0)];
    for case in EnvCase::ALL {
        for iterations in [1, 2] {
            bases.push((
                format!("rover_{}_{iterations}it", case.label()),
                build_rover_problem(case, iterations).problem,
            ));
        }
    }
    for (gen_seed, tasks, topology) in PMAX_SWEEP_GENERATED {
        bases.push((
            format!("gen{tasks}_seed{gen_seed}"),
            generate(&GeneratorConfig {
                seed: gen_seed,
                tasks,
                resources: (tasks / 4).max(3),
                topology,
                ..GeneratorConfig::default()
            }),
        ));
    }
    let mut jobs = Vec::new();
    for (label, base) in bases {
        let c = base.constraints();
        for tenths in PMAX_TENTHS {
            let p_max = Power::from_watts_milli(c.p_max().as_milliwatts() * tenths / 10);
            let mut point = base.clone();
            point.set_constraints(PowerConstraints::new(p_max, c.p_min().min(p_max)));
            // A sweep point may be unschedulable; that verdict is part of
            // the design-space answer, so rejections are allowed here.
            jobs.push(job(format!("{label}@{tenths}/10"), point, true));
        }
    }
    shuffled(jobs, seed)
}

fn scheduler_for(path: Path) -> PowerAwareScheduler {
    match path {
        Path::Cli => PowerAwareScheduler::default(),
        Path::Portfolio => PowerAwareScheduler::new(SchedulerConfig {
            parallelism: Parallelism::Threads(2),
            ..SchedulerConfig::default()
        }),
    }
}

fn classify(result: Result<String, ScheduleError>) -> Verdict {
    match result {
        Ok(text) => Verdict::Schedule(text),
        Err(ScheduleError::LintRejected { .. }) => Verdict::LintRejected,
        Err(e) => Verdict::Rejected(e.to_string()),
    }
}

fn catch(f: impl FnOnce() -> Verdict) -> Verdict {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Verdict::Panicked(msg)
    })
}

/// The schedule as `impacct-cli schedule --emit-schedule` prints it.
pub fn render(problem: &Problem, schedule: &Schedule) -> String {
    print_schedule(&format!("{}-min", problem.name()), problem, schedule)
}

/// The untraced operation: what a user of the CLI or the design-space
/// loop runs for one input.
fn run_plain(path: Path, scheduler: &PowerAwareScheduler, job: &Job) -> (Duration, Verdict) {
    let started = Instant::now();
    let verdict = catch(|| {
        let mut problem = parse_problem(&job.text).expect("set-up text parses");
        let result = match path {
            Path::Cli => scheduler.schedule(&mut problem),
            Path::Portfolio => scheduler.schedule_portfolio(&mut problem, RESTARTS),
        };
        classify(result.map(|outcome| render(&problem, &outcome.schedule)))
    });
    (started.elapsed(), verdict)
}

/// The frame every traced operation shares, under one `problem` root
/// span: `parse_problem`, the lint guard, `schedule` (whose stage calls
/// open spans of their own), `analyze` and `print_schedule`. Returns the
/// verdict and the segment count of the result's power profile.
fn traced_frame(
    tracer: &mut Tracer,
    id: u64,
    text: &str,
    schedule: impl FnOnce(&mut Tracer, &mut Problem) -> Result<Schedule, ScheduleError>,
) -> (Verdict, usize) {
    let mut segments = 0;
    let verdict = catch(|| {
        tracer.span(id, "problem", |t| {
            let mut problem = t.span(id, "spec.parse", |_| {
                parse_problem(text).expect("set-up text parses")
            });
            if t.span(id, "lint", |_| pas_lint::lint(&problem))
                .has_errors()
            {
                return Verdict::LintRejected;
            }
            let schedule = match schedule(t, &mut problem) {
                Ok(schedule) => schedule,
                Err(e) => return classify(Err(e)),
            };
            let analysis = t.span(id, "core.analyze", |_| analyze(&problem, &schedule));
            segments = analysis.profile.segments().count();
            Verdict::Schedule(t.span(id, "spec.render", |_| render(&problem, &schedule)))
        })
    });
    (verdict, segments)
}

/// One `schedule_timing` pass on the pristine problem, under a root span
/// of its own: a probe, not part of the operation.
fn timing_probe(
    tracer: &mut Tracer,
    id: u64,
    pristine: &Problem,
    config: &SchedulerConfig,
) -> SchedulerStats {
    let mut stats = SchedulerStats::default();
    let mut problem = pristine.clone();
    let _ = tracer.span(id, "timing", |_| {
        schedule_timing(problem.graph_mut(), config, &mut stats)
    });
    stats
}

/// The CLI pipeline (`PowerAwareScheduler::default().schedule`) taken
/// apart into its public stage calls — the lint guard,
/// `schedule_max_power`, `improve_gaps_observed`, `analyze`,
/// `print_schedule` — each inside its own span, then a timing probe on
/// the pristine problem. Callers check that its bytes match the whole
/// pipeline's on the same text.
pub fn traced_cli(
    tracer: &mut Tracer,
    id: u64,
    text: &str,
    pristine: &Problem,
) -> (Verdict, CountRow) {
    let config = SchedulerConfig::default();
    let mut stages = SchedulerStats::default();
    let mut moves = (0, 0);
    let (verdict, segments) = traced_frame(tracer, id, text, |t, problem| {
        let c = problem.constraints();
        let background = problem.background_power();
        let valid = t.span(id, "max_power", |_| {
            schedule_max_power(
                problem.graph_mut(),
                c.p_max(),
                background,
                &config,
                &mut stages,
            )
        })?;
        let mut counter = CountingObserver::new();
        let improved = t.span(id, "min_power", |_| {
            improve_gaps_observed(
                problem.graph(),
                valid,
                c.p_max(),
                c.p_min(),
                background,
                &config,
                &mut counter,
            )
        });
        let c = counter.counts();
        stages += c.into();
        moves = (c.moves_accepted, c.moves_rejected);
        Ok(improved)
    });
    let timing = timing_probe(tracer, id, pristine, &config);
    let row = CountRow::new(&timing, &stages, moves, segments, None);
    (verdict, row)
}

/// The traced sweep point: the portfolio call stays whole, its lint
/// guard timed as its own span. The probes — the timing pass, the
/// portfolio's attempts run one by one, the exact search — run
/// afterwards under separate roots.
fn traced_portfolio(
    scheduler: &PowerAwareScheduler,
    job: &Job,
    id: u64,
    tracer: &mut Tracer,
) -> (Verdict, CountRow) {
    let config = scheduler.config().clone();
    let unguarded = PowerAwareScheduler::new(SchedulerConfig {
        lint_guard: false,
        ..config.clone()
    });
    let (verdict, segments) = traced_frame(tracer, id, &job.text, |t, problem| {
        t.span(id, "portfolio", |_| {
            unguarded.schedule_portfolio(problem, RESTARTS)
        })
        .map(|outcome| outcome.schedule)
    });
    let timing = timing_probe(tracer, id, &job.pristine, &config);
    let (mut stages, mut moves, mut optimal_nodes) = (SchedulerStats::default(), (0, 0), None);
    if verdict != Verdict::LintRejected {
        let mut counter = CountingObserver::new();
        for attempt in 0..=RESTARTS {
            let single = PowerAwareScheduler::new(scheduler.portfolio_attempt_config(attempt));
            let mut problem = job.pristine.clone();
            let _ = tracer.span(id, "portfolio.attempt", |_| {
                single.schedule_with(&mut problem, &mut counter)
            });
        }
        // The portfolio hides its stage calls, so the stage counters of
        // a sweep point are those of its attempts run one by one.
        let c = counter.counts();
        stages = c.into();
        moves = (c.moves_accepted, c.moves_rejected);
        if job.pristine.graph().num_tasks() <= config.exact_portfolio_limit {
            // The same exact call the portfolio makes on small instances.
            let exact = OptimalConfig {
                max_nodes: 5_000_000,
                horizon: None,
                use_lint_bounds: config.lint_bounds,
                use_dominance: config.dominance,
            };
            let c = job.pristine.constraints();
            let result = tracer.span(id, "optimal", |_| {
                minimize_finish_time_partitioned(
                    job.pristine.graph(),
                    c.p_max(),
                    job.pristine.background_power(),
                    &exact,
                    config.parallelism.worker_count(),
                )
            });
            optimal_nodes = Some(result.map_or(0, |o| o.nodes_explored));
        }
    }
    let row = CountRow::new(&timing, &stages, moves, segments, optimal_nodes);
    (verdict, row)
}

/// The traced operation for one input, plus one `print_problem` probe.
fn run_traced_op(
    path: Path,
    scheduler: &PowerAwareScheduler,
    job: &Job,
    id: u64,
    tracer: &mut Tracer,
) -> (Verdict, CountRow) {
    let traced = match path {
        Path::Cli => traced_cli(tracer, id, &job.text, &job.pristine),
        Path::Portfolio => traced_portfolio(scheduler, job, id, tracer),
    };
    tracer.span(id, "spec.print", |_| print_problem(&job.pristine));
    traced
}

/// What the checks found for one input's first result.
struct Checked {
    ok: bool,
    /// (finish time s, energy cost J, utilization) of a solved input.
    quality: Option<(f64, f64, f64)>,
}

/// Checks a result against the pristine problem: a schedule must parse
/// back and pass `analyze(..).is_valid()`; a lint rejection is a proven
/// verdict; any other rejection is allowed only where the workload
/// expects one; a panic always fails.
fn check(job: &Job, verdict: &Verdict) -> Checked {
    let fail = Checked {
        ok: false,
        quality: None,
    };
    match verdict {
        Verdict::Schedule(text) => match parse_schedule(text, &job.pristine) {
            Ok((_, schedule)) => {
                let a = analyze(&job.pristine, &schedule);
                if !a.is_valid() {
                    eprintln!("perfbench: {}: invalid schedule", job.label);
                    return fail;
                }
                Checked {
                    ok: true,
                    quality: Some((
                        a.finish_time.as_secs() as f64,
                        a.energy_cost.as_joules_f64(),
                        a.utilization.to_f64(),
                    )),
                }
            }
            Err(e) => {
                eprintln!("perfbench: {}: schedule does not parse: {e}", job.label);
                fail
            }
        },
        Verdict::LintRejected => Checked {
            ok: true,
            quality: None,
        },
        Verdict::Rejected(e) => {
            if !job.may_reject {
                eprintln!("perfbench: {}: unexpected rejection: {e}", job.label);
            }
            Checked {
                ok: job.may_reject,
                quality: None,
            }
        }
        Verdict::Panicked(e) => {
            eprintln!("perfbench: {}: panicked: {e}", job.label);
            fail
        }
    }
}

/// Builds the inputs at least [`SETUP_REPEATS`] times and for at least
/// [`SETUP_MIN_S`] seconds, so that a set-up of a few milliseconds still
/// has a steady median.
fn setup(workload: &Workload, seed: u64) -> (Vec<Job>, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let started = Instant::now();
        let jobs = (workload.build)(seed);
        times.push(started.elapsed().as_secs_f64());
        if times.len() >= SETUP_REPEATS && times.iter().sum::<f64>() >= SETUP_MIN_S {
            return (jobs, times);
        }
    }
}

/// First-round verdicts, checked, plus per-round determinism checks.
struct Ledger {
    first: Vec<Option<Verdict>>,
    checked: Vec<Option<Checked>>,
    attempted: u64,
    failed: u64,
    lint_rejected: u64,
    rejected: u64,
}

impl Ledger {
    fn new(n: usize) -> Ledger {
        Ledger {
            first: vec![None; n],
            checked: (0..n).map(|_| None).collect(),
            attempted: 0,
            failed: 0,
            lint_rejected: 0,
            rejected: 0,
        }
    }

    /// Records one result and counts it as failed unless it passes its
    /// checks.
    fn record(&mut self, jobs: &[Job], i: usize, verdict: Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::LintRejected => self.lint_rejected += 1,
            Verdict::Rejected(_) => self.rejected += 1,
            _ => {}
        }
        let ok = match &self.first[i] {
            None => {
                let c = check(&jobs[i], &verdict);
                let ok = c.ok;
                self.checked[i] = Some(c);
                self.first[i] = Some(verdict);
                ok
            }
            // Later results must repeat the checked first one exactly.
            Some(first) => {
                let same = *first == verdict;
                if !same {
                    eprintln!(
                        "perfbench: {}: result changed between rounds",
                        jobs[i].label
                    );
                }
                same && self.checked[i].as_ref().is_some_and(|c| c.ok)
            }
        };
        if !ok {
            self.failed += 1;
        }
    }

    fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for v in self.first.iter().flatten() {
            d.update(&v.digest_bytes());
        }
        d
    }

    fn quality(&self) -> (f64, f64, f64, usize) {
        let q: Vec<(f64, f64, f64)> = self
            .checked
            .iter()
            .flatten()
            .filter_map(|c| c.quality)
            .collect();
        let n = q.len();
        let finish: f64 = q.iter().map(|x| x.0).sum();
        let energy: f64 = q.iter().map(|x| x.1).sum();
        let rho = q.iter().map(|x| x.2).sum::<f64>() / n.max(1) as f64;
        (finish, energy, rho, n)
    }
}

/// Inputs faster than this run several times per round, at most
/// `MAX_REPS` times.
const REP_TARGET_MS: f64 = 20.0;
const MAX_REPS: usize = 16;

/// Visits the inputs in rounds until `budget` has passed, after at
/// least `min_rounds` (and at least one) whole rounds. The last round
/// may stop part way, so that a run keeps to its time. `op` gets the
/// input and the round, counted from 0; returns the whole rounds run.
fn rounds(
    jobs: usize,
    budget: Duration,
    min_rounds: usize,
    mut op: impl FnMut(usize, usize),
) -> usize {
    let started = Instant::now();
    let mut round = 0;
    loop {
        for i in 0..jobs {
            if round >= min_rounds.max(1) && started.elapsed() >= budget {
                return round;
            }
            op(i, round);
        }
        round += 1;
    }
}

/// One child of an untraced run: set-up, then rounds for its share of
/// `seconds`, at least its share of the whole rounds the tail's floor
/// sample count needs; prints its raw data for the parent.
pub fn measure_part(workload: &Workload, seed: u64, seconds: u64, part: usize, parts: usize) {
    let (jobs, setup_times) = setup(workload, seed);
    let scheduler = scheduler_for(workload.path);
    let mut ledger = Ledger::new(jobs.len());
    let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let budget = Duration::from_secs_f64(seconds as f64 / parts as f64);
    // The rounds the floor needs, shared out over the parts.
    let floor_rounds = workload.tail_floor_n.div_ceil(jobs.len());
    let min_rounds = floor_rounds * (part + 1) / parts - floor_rounds * part / parts;
    let whole = rounds(jobs.len(), budget, min_rounds, |i, round| {
        // After the first round an input shorter than REP_TARGET_MS runs
        // several times per round, so that cheap inputs get enough
        // samples for a steady median.
        let reps = per_input[i].first().map_or(1, |&first| {
            ((REP_TARGET_MS / first) as usize).clamp(1, MAX_REPS)
        });
        for rep in 0..reps {
            let (took, verdict) = run_plain(workload.path, &scheduler, &jobs[i]);
            ledger.record(&jobs, i, verdict);
            per_input[i].push(ms(took));
            emit(
                "sample",
                &[i as f64, ms(took), (rep == 0) as u8 as f64, round as f64],
            );
        }
    });
    emit("rounds", &[whole as f64]);
    for t in setup_times {
        emit("setup", &[t]);
    }
    emit(
        "count",
        &[
            ledger.attempted as f64,
            ledger.failed as f64,
            ledger.lint_rejected as f64,
            ledger.rejected as f64,
        ],
    );
    let (finish, energy, rho, solved) = ledger.quality();
    emit("quality", &[finish, energy, rho, solved as f64]);
    let digest = ledger.digest().value();
    emit(
        "digest",
        &[(digest >> 32) as f64, (digest & 0xffff_ffff) as f64],
    );
    emit("rss", &[crate::report::peak_rss_mb()]);
}

/// Pools the children's data into the end-to-end report. Every child
/// must have produced the same schedules.
pub fn aggregate(workload: &Workload, seed: u64, parts: &[Part]) -> Report {
    let mut report = Report::new(workload.name, seed);
    let inputs = parts[0]
        .rows("sample")
        .map(|r| r[0] as usize)
        .max()
        .map_or(0, |m| m + 1);
    let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); inputs];
    // The tail counts one sample per input and whole round, so every
    // input weighs the same in it; a part's last round may be cut short.
    let mut tail_samples = Vec::new();
    for part in parts {
        let whole = part.one("rounds")[0];
        for r in part.rows("sample") {
            per_input[r[0] as usize].push(r[1]);
            if r[2] == 1.0 && r[3] < whole {
                tail_samples.push(r[1]);
            }
        }
    }
    let setup_times: Vec<f64> = parts
        .iter()
        .flat_map(|p| p.rows("setup").map(|r| r[0]))
        .collect();
    let sum = |key: &str, i: usize| parts.iter().map(|p| p.one(key)[i]).sum::<f64>() as u64;
    let (attempted, mut failed) = (sum("count", 0), sum("count", 1));
    let (lint_rejected, rejected) = (sum("count", 2), sum("count", 3));
    for (k, part) in parts.iter().enumerate().skip(1) {
        for key in ["quality", "digest"] {
            if part.one(key) != parts[0].one(key) {
                eprintln!("perfbench: part {k} produced other schedules than part 0 ({key})");
                failed += 1;
            }
        }
    }
    let quality = parts[0].one("quality");
    let digest = parts[0].one("digest");

    // An input's typical latency is the median of its samples.
    let typical: Vec<f64> = per_input.iter().map(|v| median(v)).collect();
    let s = summarize(&tail_samples, workload.tail_floor_n)
        .expect("the parts make the floor sample count");
    let p50 = median(&typical);
    let throughput = inputs as f64 / (typical.iter().sum::<f64>() / 1e3);
    report.line(format!(
        "{} inputs in {} processes; set-up {:.4} s (median of {})",
        inputs,
        parts.len(),
        median(&setup_times),
        setup_times.len()
    ));
    report.line(format!(
        "{} whole rounds; per-input median latency: p50 {p50:.4} ms over {inputs} inputs, all verdicts",
        s.n / inputs
    ));
    report.line(format!(
        "tail over {} samples (one per input and whole round): p{} = {:.4} ms ({} samples beyond)",
        s.n, s.tail_p, s.tail, s.tail_beyond
    ));
    let labels = (workload.build)(seed);
    for ((job, t), v) in labels.iter().zip(&typical).zip(&per_input) {
        report.line(format!("  {:<28} {t:>12.4} ms  n={}", job.label, v.len()));
    }
    report.line(format!(
        "verdicts: {attempted} attempted, {lint_rejected} lint-rejected (proven), {rejected} rejected by the search, {failed} failed checks"
    ));
    report.line(format!(
        "fail_rate (search rejections count as failures, lint rejections do not) = {:.6}",
        (rejected + failed) as f64 / attempted as f64
    ));
    report.line(format!("quality over {} solved inputs", quality[3]));
    report.line(format!(
        "schedule digest: {:08x}{:08x}",
        digest[0] as u64, digest[1] as u64
    ));
    let rss = parts.iter().map(|p| p.one("rss")[0]).fold(0.0, f64::max);
    report.metrics = vec![
        Metric::new("setup_s", median(&setup_times), "s"),
        Metric::new("throughput_pps", throughput, "1/s"),
        Metric::new("latency_p50_ms", p50, "ms"),
        Metric::new("latency_tail_ms", s.tail, "ms"),
        Metric::new("peak_rss_mb", rss, "MiB"),
        Metric::new("finish_time_s", quality[0], "model-s"),
        Metric::new("energy_cost_j", quality[1], "J"),
        Metric::new("utilization", quality[2], "ratio"),
    ];
    report.attempted = attempted;
    report.failed = failed;
    report
}

/// The traced run, in one process, for the per-layer metrics: every
/// input untraced and then traced.
pub fn run_traced(workload: &Workload, seed: u64, seconds: u64) -> Report {
    let (jobs, setup_times) = setup(workload, seed);
    let scheduler = scheduler_for(workload.path);
    let mut ledger = Ledger::new(jobs.len());
    let mut report = Report::new(workload.name, seed);
    report.line(format!(
        "{} inputs; set-up {:.4} s (median of {})",
        jobs.len(),
        median(&setup_times),
        setup_times.len()
    ));
    let mut plain = Vec::new();
    let mut tracer = Tracer::default();
    let mut rows = LayerRows::default();
    let mut id = 0u64;
    let mut solved_ids = Vec::new();
    rows.set_workers(scheduler.config().parallelism.worker_count());
    // Each input runs untraced and then traced, back to back, so that
    // both see the same state of the machine.
    rounds(jobs.len(), Duration::from_secs(seconds), 1, |i, _| {
        let (took, verdict) = run_plain(workload.path, &scheduler, &jobs[i]);
        ledger.record(&jobs, i, verdict);
        plain.push(ms(took));
        id += 1;
        let (verdict, row) = run_traced_op(workload.path, &scheduler, &jobs[i], id, &mut tracer);
        if matches!(verdict, Verdict::Schedule(_)) {
            solved_ids.push(id);
        }
        rows.add_counts(verdict_kind(&verdict), row);
        ledger.record(&jobs, i, verdict);
    });
    let spans = tracer.spans();
    let own = self_times_ns(spans);
    // Per input: the root span's duration, the summed self times of the
    // layer spans below it, and the root's own self time — the share of
    // the operation no layer span covers.
    let (mut traced, mut layers, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    for (i, s) in spans.iter().enumerate() {
        if s.name == "problem" {
            traced.push(s.duration_ns() as f64 / 1e6);
            layers.push(descendants_self_ns(spans, &own, i) as f64 / 1e6);
            unattributed.push(own[i] as f64 / s.duration_ns().max(1) as f64);
        }
    }
    // Each input's traced figure over its untraced latency, paired; the
    // median ratio is robust to the noise of single executions.
    let paired = |traced: &[f64]| -> f64 {
        let ratios: Vec<f64> = traced.iter().zip(&plain).map(|(t, p)| t / p).collect();
        median(&ratios)
    };
    let coverage = paired(&layers);
    let overhead = paired(&traced) - 1.0;
    report.line(format!(
        "self-time check: Σ layer self time p50 = {:.4} ms vs untraced latency p50 = {:.4} ms over {} inputs; per-input ratio median {coverage:.4} ({:+.2}%); root self time not covered by a layer span: median {:.3}% of the operation",
        median(&layers),
        median(&plain),
        plain.len(),
        (coverage - 1.0) * 100.0,
        median(&unattributed) * 100.0
    ));
    report.line(format!(
        "trace overhead: per-input traced/untraced wall time median ratio minus 1 = {:+.2}%",
        overhead * 100.0
    ));
    rows.trace_overhead = overhead;
    rows.add_spans(spans, &solved_ids);
    report.line(format!("schedule digest: {}", ledger.digest().hex()));
    report.lines.extend(rows.describe());
    report.metrics = rows.metrics();
    report.spans = Some(tracer);
    report.attempted = ledger.attempted;
    report.failed = ledger.failed;
    report
}

fn verdict_kind(v: &Verdict) -> &'static str {
    match v {
        Verdict::Schedule(_) => "solved",
        Verdict::LintRejected => "lint_rejected",
        _ => "rejected",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_stop_on_time_after_the_whole_rounds_asked_for() {
        let mut visits = Vec::new();
        let whole = rounds(3, Duration::ZERO, 2, |i, round| visits.push((round, i)));
        assert_eq!(whole, 2);
        assert_eq!(visits.len(), 6);
        assert_eq!(visits.last(), Some(&(1, 2)));
        // Even with no rounds asked for, one whole round runs.
        assert_eq!(rounds(3, Duration::ZERO, 0, |_, _| {}), 1);
    }

    #[test]
    fn the_last_round_stops_part_way_when_the_time_is_up() {
        let mut visits = Vec::new();
        let whole = rounds(3, Duration::from_millis(50), 1, |i, round| {
            visits.push((round, i));
            if (round, i) == (1, 1) {
                std::thread::sleep(Duration::from_millis(60));
            }
        });
        assert_eq!(whole, 1);
        assert_eq!(visits.last(), Some(&(1, 1)));
    }
}
