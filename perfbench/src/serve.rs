//! `serve_mix`: an open loop against an in-process `pas-server`.
//!
//! The daemon runs with one worker. One generator thread sends every
//! request at its due time over one pipelined keep-alive connection per
//! sub-step, and a reader thread takes the responses off the same
//! connection in order.
//! Each request is timed from its due time, so a stall also counts
//! against the requests queued behind it. The `/metrics` scrape at the
//! end uses a second connection.
//!
//! Traffic mixes four classes over 16–24-task problems, two cache hits
//! to one scheduled request (see [`Class::TURNS`]): unique problems
//! (served `fresh`), verbatim repeats of warmed problems
//! (`cache-exact`), relaxed envelopes over warmed graphs
//! (`cache-region`) and envelopes tightened below every cached schedule
//! of a warmed graph (`fresh-incremental`). The class of every request
//! is known in advance, and so are the bytes of every response except
//! the fresh ones, which are compared with the offline pipeline on a
//! sample.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use pas_core::{analyze, PowerConstraints, Problem, Schedule};
use pas_graph::units::Power;
use pas_obs::CountingObserver;
use pas_sched::{PowerAwareScheduler, SchedulerStats, SessionContext};
use pas_server::{Server, ServerConfig, ServerHandle};
use pas_spec::{parse_problem, parse_schedule, print_problem};
use pas_workload::{generate, GeneratorConfig, Topology};

use crate::offline::{mix, render, shuffled, traced_cli, Verdict};
use crate::parts::{emit, Part};
use crate::report::{LayerRows, Report, ServerRows};
use crate::stats::{median, summarize, Digest, Metric};
use crate::trace::{ms, Tracer};

/// Every round offers the nominal rate for [`NOMINAL_N`] requests; its
/// latencies are the end-to-end figures.
const NOMINAL_RATE: f64 = 200.0;
const NOMINAL_N: usize = 102;
/// The tail percentile is chosen for this many samples: p90, with 10
/// samples beyond it in every nominal sub-step.
const TAIL_FLOOR_N: usize = 102;
/// Every round also runs one closed-loop capacity sub-step of this many
/// requests with [`CAPACITY_WINDOW`] of them in flight...
const CAPACITY_N: usize = 402;
const CAPACITY_WINDOW: usize = 4;
/// ...and one sub-step of this many seconds at the next rate of the
/// ladder, for the highest rate that meets [`TAIL_LIMIT_MS`].
const LADDER: [f64; 3] = [100.0, 400.0, 800.0];
const LADDER_SECS: f64 = 0.5;
/// A rate is met when its tail stays within this many ms and no backlog
/// builds.
const TAIL_LIMIT_MS: f64 = 20.0;
/// Rough length of one round, for sizing the run to `--seconds`.
const ROUND_SECS: f64 = 1.2;
/// Times set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Warmed problems for the exact and region classes.
const WARM_EXACT: usize = 48;
const WARM_REGION: usize = 48;
/// One in this many fresh responses is compared byte for byte with the
/// offline pipeline.
const FRESH_SAMPLE: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Fresh,
    Exact,
    Region,
    Incremental,
}

impl Class {
    /// The `X-Pas-Served` value the daemon must answer with.
    fn served(self) -> &'static str {
        match self {
            Class::Fresh => "fresh",
            Class::Exact => "cache-exact",
            Class::Region => "cache-region",
            Class::Incremental => "fresh-incremental",
        }
    }

    /// The classes take turns in this order: request `i` of the pool is
    /// of class `TURNS[i % 6]`. The two cache classes get two turns to
    /// the scheduled classes' one, and the classes within each pair the
    /// same share, as in the repository's `bench_server`. With the
    /// repository's equal shares half the requests were cache hits and
    /// the request p50 sat on the edge between the cache-served and the
    /// scheduled mode; see `perfbench/README.md`.
    const TURNS: [Class; 6] = [
        Class::Fresh,
        Class::Exact,
        Class::Region,
        Class::Incremental,
        Class::Exact,
        Class::Region,
    ];
}

/// One planned request.
#[derive(Clone)]
struct Planned {
    class: Class,
    /// The complete HTTP request.
    wire: Vec<u8>,
    /// The problem as the daemon will parse it.
    problem: Problem,
    /// The PASDL body.
    text: String,
    /// The response body the daemon must send, where it is known.
    expect: Option<String>,
}

/// The requests of one round.
struct Round {
    nominal: Vec<Planned>,
    capacity: Vec<Planned>,
    ladder_rate: f64,
    ladder: Vec<Planned>,
}

/// Everything set-up produces: the warm-up requests and the rounds.
struct Plan {
    warm: Vec<Planned>,
    rounds: Vec<Round>,
}

fn generated(seed: u64, salt: u64) -> Problem {
    let gen_seed = mix(seed, salt);
    let tasks = 16 + (gen_seed % 9) as usize;
    generate(&GeneratorConfig {
        seed: gen_seed,
        tasks,
        resources: (tasks / 4).max(3),
        topology: Topology::Layered { layers: 4 },
        ..GeneratorConfig::default()
    })
}

fn with_envelope(problem: &Problem, p_max: Power) -> Problem {
    let mut p = problem.clone();
    p.set_constraints(PowerConstraints::new(
        p_max,
        problem.constraints().p_min().min(p_max),
    ));
    p
}

fn wire(text: &str) -> Vec<u8> {
    format!(
        "POST /schedule?format=pasdl HTTP/1.1\r\nHost: perfbench\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n{text}",
        text.len()
    )
    .into_bytes()
}

fn planned(class: Class, problem: &Problem, expect: Option<String>) -> Planned {
    let text = print_problem(problem);
    Planned {
        class,
        wire: wire(&text),
        problem: parse_problem(&text).expect("printed PASDL parses back"),
        text,
        expect,
    }
}

/// The offline pipeline on `problem`: its schedule and rendered bytes.
fn offline(problem: &Problem) -> Option<(Schedule, String)> {
    let mut p = problem.clone();
    let outcome = PowerAwareScheduler::default().schedule(&mut p).ok()?;
    let text = render(&p, &outcome.schedule);
    Some((outcome.schedule, text))
}

/// Rounds in a run of `seconds`, at least three. Short rounds make the
/// medians over rounds shrug off a disturbance of a few seconds.
fn rounds_for(seconds: u64) -> usize {
    ((seconds as f64 / ROUND_SECS).round() as usize).max(3)
}

/// Requests in a ladder sub-step: a whole number of turns.
fn ladder_len(rate: f64) -> usize {
    (rate * LADDER_SECS / TURN as f64).round() as usize * TURN
}

/// Turns in a round of [`Class::TURNS`].
const TURN: usize = Class::TURNS.len();

/// Pool indices of one sub-step of `n` requests, `n` a whole number of
/// turns: as many from each turn's queue, shuffled by `seed`. Every
/// sub-step thus carries the classes in the shares of the turns.
fn sub_step(queues: &mut [std::vec::IntoIter<usize>; TURN], n: usize, seed: u64) -> Vec<usize> {
    let picked = queues
        .iter_mut()
        .flat_map(|queue| queue.take(n / TURN).collect::<Vec<usize>>())
        .collect();
    shuffled(picked, seed)
}

/// Generator stream of the traffic pool. Every run serves the same
/// multiset of requests; the run seed sets their order. A fixed pool
/// keeps the few heavy-tailed problems it holds in every run (see
/// `perfbench/README.md`), instead of in some seeds and not others.
const POOL_SEED: u64 = 0x5e7e_ba11;

/// Incremental request `i` of the pool and the warm-up request that
/// opens its graph's session. It asks a warmed graph for a budget just
/// below the peak of its warmed schedule, so no cached schedule of the
/// graph admits it; the offline pipeline gives the expected bytes, and
/// graphs with no schedule at that budget are passed over.
fn incremental(i: usize) -> (Planned, Planned) {
    for attempt in 0.. {
        let base = generated(POOL_SEED, 4 << 48 | (i as u64) << 8 | attempt);
        let Some((schedule, text)) = offline(&base) else {
            continue;
        };
        let peak = analyze(&base, &schedule).peak_power;
        let tighter = with_envelope(&base, Power::from_watts_milli(peak.as_milliwatts() - 1));
        let Some((_, tighter_text)) = offline(&tighter) else {
            continue;
        };
        return (
            planned(Class::Fresh, &base, Some(text)),
            planned(Class::Incremental, &tighter, Some(tighter_text)),
        );
    }
    unreachable!("the attempts are unbounded")
}

/// Builds the traffic plan: the fixed pool, in the run seed's order, cut
/// into `rounds` rounds. Only the rounds in `keep` are materialized, so
/// that a process pays set-up for the requests it sends.
fn plan(seed: u64, rounds: usize, keep: Range<usize>) -> Plan {
    let ladder_rates: Vec<f64> = (0..rounds).map(|r| LADDER[r % LADDER.len()]).collect();
    let total: usize = ladder_rates
        .iter()
        .map(|&rate| NOMINAL_N + CAPACITY_N + ladder_len(rate))
        .sum();

    let mut warm = Vec::new();
    let exact_base: Vec<(Problem, String)> = (0..WARM_EXACT as u64)
        .map(|k| {
            let p = generated(POOL_SEED, 1 << 20 | k);
            let (_, text) = offline(&p).expect("warm problem schedules");
            (p, text)
        })
        .collect();
    let region_base: Vec<(Problem, Schedule, String)> = (0..WARM_REGION as u64)
        .map(|k| {
            let p = generated(POOL_SEED, 2 << 20 | k);
            let (schedule, text) = offline(&p).expect("warm problem schedules");
            (p, schedule, text)
        })
        .collect();
    let mut exact = Vec::with_capacity(WARM_EXACT);
    for (p, text) in &exact_base {
        let warm_request = planned(Class::Fresh, p, Some(text.clone()));
        exact.push(Planned {
            class: Class::Exact,
            ..warm_request.clone()
        });
        warm.push(warm_request);
    }
    // Each warmed graph is asked for under budgets 1–4 W above its own;
    // the daemon serves them the warmed schedule.
    let mut region = Vec::with_capacity(WARM_REGION);
    for (p, schedule, text) in &region_base {
        warm.push(planned(Class::Fresh, p, Some(text.clone())));
        let variants: Vec<Planned> = (1..=4)
            .map(|extra| {
                let relaxed = with_envelope(
                    p,
                    p.constraints()
                        .p_max()
                        .saturating_add(Power::from_watts(extra)),
                );
                let text = render(&relaxed, schedule);
                planned(Class::Region, &relaxed, Some(text))
            })
            .collect();
        region.push(variants);
    }

    let mut request = |i: usize| {
        let salt = i as u64;
        let pick = |n: usize| (mix(POOL_SEED, 5 << 20 | salt) % n as u64) as usize;
        match Class::TURNS[i % TURN] {
            Class::Fresh => planned(Class::Fresh, &generated(POOL_SEED, 6 << 20 | salt), None),
            Class::Exact => exact[pick(WARM_EXACT)].clone(),
            Class::Region => {
                let variants = &region[pick(WARM_REGION)];
                variants[(mix(POOL_SEED, 7 << 20 | salt) % variants.len() as u64) as usize].clone()
            }
            Class::Incremental => {
                let (warm_request, request) = incremental(i);
                warm.push(warm_request);
                request
            }
        }
    };
    // Every run sends the same requests in each sub-step, so that the
    // few heavy-tailed ones land in the same sub-steps whatever the
    // seed; the run seed sets their order within the sub-step.
    let mut queues = std::array::from_fn(|turn| {
        let pool = (0..total / TURN).map(|k| TURN * k + turn).collect();
        shuffled(pool, mix(POOL_SEED, turn as u64)).into_iter()
    });
    let mut steps = 0;
    let mut take = |n: usize, kept: bool| -> Vec<Planned> {
        steps += 1;
        let picked = sub_step(&mut queues, n, mix(seed, TURN as u64 + steps));
        if kept {
            picked.into_iter().map(&mut request).collect()
        } else {
            Vec::new()
        }
    };
    let mut kept_rounds = Vec::with_capacity(keep.len());
    for (r, ladder_rate) in ladder_rates.into_iter().enumerate() {
        let kept = keep.contains(&r);
        let round = Round {
            nominal: take(NOMINAL_N, kept),
            capacity: take(CAPACITY_N, kept),
            ladder_rate,
            ladder: take(ladder_len(ladder_rate), kept),
        };
        if kept {
            kept_rounds.push(round);
        }
    }
    Plan {
        warm,
        rounds: kept_rounds,
    }
}

/// One response as the client saw it.
struct Response {
    done: Instant,
    status: u16,
    served: String,
    body: String,
}

fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<Response> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let (mut length, mut served) = (0usize, String::new());
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => length = value.trim().parse().unwrap_or(0),
                "x-pas-served" => served = value.trim().to_string(),
                _ => {}
            }
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    Ok(Response {
        done: Instant::now(),
        status,
        served,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// Reads `n` responses in order on a thread of its own, reporting each
/// completion on `done`.
fn spawn_reader(
    stream: TcpStream,
    n: usize,
    done: mpsc::Sender<()>,
) -> thread::JoinHandle<std::io::Result<Vec<Response>>> {
    thread::spawn(move || {
        let mut reader = BufReader::new(stream);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read_response(&mut reader)?);
            let _ = done.send(());
        }
        Ok(out)
    })
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the in-process daemon");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
}

/// Due time of request `i` of a step offered at `rate` per second,
/// seconds after the step starts.
pub fn due_offset(i: usize, rate: f64) -> f64 {
    i as f64 / rate
}

/// Per-request latency from the due time and generator lag, both in ms,
/// from offsets in seconds after the step start.
pub fn account(due: &[f64], sent: &[f64], done: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let latency = due.iter().zip(done).map(|(d, f)| (f - d) * 1e3).collect();
    let lag = due
        .iter()
        .zip(sent)
        .map(|(d, s)| ((s - d) * 1e3).max(0.0))
        .collect();
    (latency, lag)
}

/// A backlog grows when the last tenth of a step's requests waits
/// clearly longer than the first tenth did.
pub fn backlog_grows(latency_ms: &[f64]) -> bool {
    let tenth = (latency_ms.len() / 10).max(1);
    let head = median(&latency_ms[..tenth]);
    let tail = median(&latency_ms[latency_ms.len() - tenth..]);
    tail > 2.0 * head + 1.0
}

/// Result of one open-loop step.
struct Step {
    rate: f64,
    start: Instant,
    sent: Vec<Instant>,
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    responses: Vec<Response>,
}

fn open_loop(addr: SocketAddr, requests: &[Planned], rate: f64) -> Step {
    let stream = connect(addr);
    let (tx, _rx) = mpsc::channel();
    let reader = spawn_reader(
        stream.try_clone().expect("clone stream"),
        requests.len(),
        tx,
    );
    let mut writer = stream;
    let start = Instant::now();
    let mut sent = Vec::with_capacity(requests.len());
    for (i, r) in requests.iter().enumerate() {
        let due = start + Duration::from_secs_f64(due_offset(i, rate));
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        sent.push(Instant::now());
        writer.write_all(&r.wire).expect("send request");
    }
    let responses = reader
        .join()
        .expect("reader thread")
        .expect("read responses");
    let _ = writer.shutdown(Shutdown::Both);
    let offset = |t: &Instant| t.duration_since(start).as_secs_f64();
    let due: Vec<f64> = (0..requests.len()).map(|i| due_offset(i, rate)).collect();
    let sent_s: Vec<f64> = sent.iter().map(offset).collect();
    let done: Vec<f64> = responses.iter().map(|r| offset(&r.done)).collect();
    let (latency_ms, lag_ms) = account(&due, &sent_s, &done);
    Step {
        rate,
        start,
        sent,
        latency_ms,
        lag_ms,
        responses,
    }
}

/// Closed loop with [`CAPACITY_WINDOW`] requests in flight; returns the
/// responses and the requests served per second.
fn closed_loop(addr: SocketAddr, requests: &[Planned]) -> (Vec<Response>, f64) {
    let stream = connect(addr);
    let (tx, rx) = mpsc::channel();
    let reader = spawn_reader(
        stream.try_clone().expect("clone stream"),
        requests.len(),
        tx,
    );
    let mut writer = stream;
    let start = Instant::now();
    for (i, r) in requests.iter().enumerate() {
        if i >= CAPACITY_WINDOW {
            rx.recv().expect("reader alive");
        }
        writer.write_all(&r.wire).expect("send request");
    }
    let responses = reader
        .join()
        .expect("reader thread")
        .expect("read responses");
    let _ = writer.shutdown(Shutdown::Both);
    let elapsed = responses
        .last()
        .map_or(start.elapsed(), |r| r.done.duration_since(start));
    let rate = responses.len() as f64 / elapsed.as_secs_f64();
    (responses, rate)
}

/// Sends `requests` one at a time and returns the responses.
fn sequential(addr: SocketAddr, requests: &[Planned]) -> Vec<Response> {
    let stream = connect(addr);
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let out = requests
        .iter()
        .map(|r| {
            writer.write_all(&r.wire).expect("send request");
            read_response(&mut reader).expect("read response")
        })
        .collect();
    let _ = writer.shutdown(Shutdown::Both);
    out
}

fn get(addr: SocketAddr, path: &str) -> Response {
    let mut stream = connect(addr);
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .expect("send request");
    read_response(&mut BufReader::new(stream)).expect("read response")
}

struct Daemon {
    handle: ServerHandle,
    join: thread::JoinHandle<std::io::Result<pas_server::ServerReport>>,
}

impl Daemon {
    fn boot() -> Daemon {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            window_secs: 3600,
            slow_ms: 60_000,
            audit_dir: None,
            session_cap: 1 << 20,
            trace_cap: 64,
            keep_alive_requests: u64::MAX,
            header_timeout_ms: 60_000,
            idle_timeout_ms: 60_000,
            ..ServerConfig::default()
        })
        .expect("bind the daemon");
        let handle = server.handle().expect("daemon handle");
        let join = thread::spawn(move || server.run());
        Daemon { handle, join }
    }

    fn stop(self) {
        self.handle.shutdown();
        let report = self
            .join
            .join()
            .expect("daemon thread")
            .expect("daemon run");
        assert_eq!(report.panicked, 0, "daemon workers panicked");
    }
}

/// What the checks made of one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Checked {
    Ok,
    /// A 422 for a problem the offline pipeline rejects too.
    Rejected,
    Failed,
}

/// Checks a response against its plan: status 200, the expected served
/// class, the expected bytes where known, and a schedule that passes
/// `analyze(..).is_valid()` against the request's problem. Fresh
/// responses are compared with the offline pipeline when `compare` is
/// set; a fresh 422 passes only when the offline pipeline rejects the
/// problem as well.
fn check(p: &Planned, r: &Response, compare: bool) -> Checked {
    let name = p.problem.name();
    if r.status == 422 && p.class == Class::Fresh {
        if offline(&p.problem).is_none() {
            return Checked::Rejected;
        }
        eprintln!("perfbench: {name}: 422, but the offline pipeline schedules it");
        return Checked::Failed;
    }
    if r.status != 200 {
        eprintln!("perfbench: {name}: status {}", r.status);
        return Checked::Failed;
    }
    if r.served != p.class.served() {
        eprintln!(
            "perfbench: {name}: served {:?}, expected {:?}",
            r.served,
            p.class.served()
        );
        return Checked::Failed;
    }
    let expect = match (&p.expect, compare) {
        (Some(expect), _) => Some(expect.clone()),
        (None, true) => offline(&p.problem).map(|(_, text)| text),
        (None, false) => None,
    };
    if expect.is_some_and(|e| e != r.body) {
        eprintln!("perfbench: {name}: response differs from the offline pipeline");
        return Checked::Failed;
    }
    match parse_schedule(&r.body, &p.problem) {
        Ok((_, schedule)) if analyze(&p.problem, &schedule).is_valid() => Checked::Ok,
        _ => {
            eprintln!("perfbench: {name}: invalid schedule");
            Checked::Failed
        }
    }
}

/// Running totals of the checks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    rejected: u64,
    fresh_seen: usize,
}

impl Tally {
    fn add(&mut self, requests: &[Planned], responses: &[Response]) {
        self.attempted += requests.len() as u64;
        self.failed += (requests.len() - responses.len()) as u64;
        for (p, r) in requests.iter().zip(responses) {
            let compare = p.class == Class::Fresh && self.fresh_seen.is_multiple_of(FRESH_SAMPLE);
            if p.class == Class::Fresh {
                self.fresh_seen += 1;
            }
            match check(p, r, compare) {
                Checked::Ok => {}
                Checked::Rejected => self.rejected += 1,
                Checked::Failed => self.failed += 1,
            }
        }
    }
}

fn setup(
    seed: u64,
    rounds: usize,
    keep: Range<usize>,
    repeats: usize,
) -> (Plan, Daemon, Vec<f64>, Tally) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..repeats {
        if let Some((_, daemon, _)) = kept.take() {
            Daemon::stop(daemon);
        }
        let started = Instant::now();
        let plan = plan(seed, rounds, keep.clone());
        let daemon = Daemon::boot();
        let responses = sequential(daemon.handle.addr(), &plan.warm);
        times.push(started.elapsed().as_secs_f64());
        kept = Some((plan, daemon, responses));
    }
    let (plan, daemon, responses) = kept.expect("at least one set-up");
    let mut tally = Tally::default();
    tally.add(&plan.warm, &responses);
    (plan, daemon, times, tally)
}

/// Σ finish time, Σ energy cost, Σ utilization and the number of the
/// schedules in `pairs`.
fn quality<'a>(pairs: impl Iterator<Item = (&'a Planned, &'a Response)>) -> [f64; 4] {
    let mut q = [0.0; 4];
    for (p, r) in pairs {
        if let Ok((_, schedule)) = parse_schedule(&r.body, &p.problem) {
            let a = analyze(&p.problem, &schedule);
            q[0] += a.finish_time.as_secs() as f64;
            q[1] += a.energy_cost.as_joules_f64();
            q[2] += a.utilization.to_f64();
            q[3] += 1.0;
        }
    }
    q
}

fn scrape_queue_ms(addr: SocketAddr) -> (f64, f64) {
    let scrape = get(addr, "/metrics").body;
    let value = |family: &str| {
        scrape
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{family}{{stage=\"queue\"}} ")))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (
        value("pas_server_stage_p50_microseconds") / 1e3,
        value("pas_server_stage_window_samples"),
    )
}

/// The load of some rounds, as the client saw it.
struct Driven {
    nominal: Vec<Step>,
    ladder: Vec<Step>,
    capacity: Vec<f64>,
    capacity_responses: Vec<Vec<Response>>,
}

impl Driven {
    /// Every (request, response) pair.
    fn pairs<'a>(&'a self, rounds: &'a [Round]) -> Vec<(&'a Planned, &'a Response)> {
        let mut pairs = Vec::new();
        for (i, round) in rounds.iter().enumerate() {
            pairs.extend(round.nominal.iter().zip(&self.nominal[i].responses));
            pairs.extend(round.capacity.iter().zip(&self.capacity_responses[i]));
            pairs.extend(round.ladder.iter().zip(&self.ladder[i].responses));
        }
        pairs
    }
}

fn drive(addr: SocketAddr, rounds: &[Round], tally: &mut Tally) -> Driven {
    let mut driven = Driven {
        nominal: Vec::new(),
        ladder: Vec::new(),
        capacity: Vec::new(),
        capacity_responses: Vec::new(),
    };
    for round in rounds {
        let step = open_loop(addr, &round.nominal, NOMINAL_RATE);
        tally.add(&round.nominal, &step.responses);
        driven.nominal.push(step);
        let (responses, rate) = closed_loop(addr, &round.capacity);
        tally.add(&round.capacity, &responses);
        driven.capacity.push(rate);
        driven.capacity_responses.push(responses);
        let step = open_loop(addr, &round.ladder, round.ladder_rate);
        tally.add(&round.ladder, &step.responses);
        driven.ladder.push(step);
    }
    driven
}

/// Whether a sub-step kept its tail within [`TAIL_LIMIT_MS`] without a
/// growing backlog.
fn met(step: &Step) -> bool {
    let tail = summarize(&step.latency_ms, TAIL_FLOOR_N.min(step.latency_ms.len()))
        .map_or(f64::INFINITY, |t| t.tail);
    tail <= TAIL_LIMIT_MS && !backlog_grows(&step.latency_ms)
}

/// One child of an untraced run: its own set-up and daemon, then its
/// share of the rounds; prints its raw data for the parent.
pub fn measure_part(seed: u64, seconds: u64, part: usize, parts: usize) {
    let total = rounds_for(seconds);
    let keep = part * total / parts..(part + 1) * total / parts;
    let (plan, daemon, setup_times, mut tally) = setup(seed, total, keep, 1);
    let rounds = &plan.rounds;
    let driven = drive(daemon.handle.addr(), rounds, &mut tally);
    let pairs = driven.pairs(rounds);
    let sheds = pairs.iter().filter(|(_, r)| r.status == 429).count();
    let (queue_ms, queue_samples) = scrape_queue_ms(daemon.handle.addr());
    daemon.stop();
    for (i, step) in driven.nominal.iter().enumerate() {
        let s =
            summarize(&step.latency_ms, TAIL_FLOOR_N).expect("nominal sub-steps are long enough");
        let ladder = &driven.ladder[i];
        emit(
            "round",
            &[
                s.p50,
                s.tail,
                s.tail_p,
                driven.capacity[i],
                ladder.rate,
                met(step) as u8 as f64,
                met(ladder) as u8 as f64,
                median(&step.lag_ms),
                median(&ladder.latency_ms),
            ],
        );
    }
    for t in setup_times {
        emit("setup", &[t]);
    }
    emit(
        "count",
        &[
            tally.attempted as f64,
            tally.failed as f64,
            tally.rejected as f64,
            sheds as f64,
        ],
    );
    emit("quality", &quality(pairs.iter().copied()));
    // Order-independent, so that the parts add up to the digest of the
    // whole stream whatever order the seed gave it.
    let digest = pairs.iter().fold(0u64, |acc, (p, r)| {
        let mut d = Digest::default();
        d.update(p.text.as_bytes());
        d.update(r.body.as_bytes());
        acc.wrapping_add(d.value())
    });
    emit(
        "digest",
        &[(digest >> 32) as f64, (digest & 0xffff_ffff) as f64],
    );
    emit("rss", &[crate::report::peak_rss_mb()]);
    emit("queue", &[queue_ms, queue_samples]);
}

/// Pools the children's rounds into the end-to-end report: medians over
/// rounds of the nominal sub-steps' p50 and tail and of the capacity
/// sub-steps' rates.
pub fn aggregate(seed: u64, parts: &[Part]) -> Report {
    let mut report = Report::new("serve_mix", seed);
    let rounds: Vec<&[f64]> = parts.iter().flat_map(|p| p.rows("round")).collect();
    let column = |i: usize| rounds.iter().map(|r| r[i]).collect::<Vec<f64>>();
    let (p50, tail, throughput) = (median(&column(0)), median(&column(1)), median(&column(3)));
    let tail_p = rounds[0][2];
    for (i, r) in rounds.iter().enumerate() {
        report.line(format!(
            "round {i}: nominal {NOMINAL_RATE} req/s p50={:.4} ms p{tail_p}={:.4} ms gen lag p50 {:.4} ms; capacity {:.1} req/s; {} req/s sub-step p50 {:.4} ms",
            r[0], r[1], r[7], r[3], r[4], r[8]
        ));
    }
    // The highest rate whose every sub-step met the limit, every lower
    // rate too.
    let mut by_rate: Vec<(f64, bool)> = vec![(NOMINAL_RATE, rounds.iter().all(|r| r[5] == 1.0))];
    for rate in LADDER {
        let steps: Vec<&&[f64]> = rounds.iter().filter(|r| r[4] == rate).collect();
        by_rate.push((rate, !steps.is_empty() && steps.iter().all(|r| r[6] == 1.0)));
    }
    by_rate.sort_by(|a, b| a.0.total_cmp(&b.0));
    let max_rate = by_rate
        .iter()
        .take_while(|(_, ok)| *ok)
        .last()
        .map_or(0.0, |(rate, _)| *rate);
    let sum = |key: &str, i: usize| parts.iter().map(|p| p.one(key)[i]).sum::<f64>();
    let (attempted, failed) = (sum("count", 0) as u64, sum("count", 1) as u64);
    let (rejected, sheds) = (sum("count", 2) as u64, sum("count", 3) as u64);
    let (finish, energy) = (sum("quality", 0), sum("quality", 1));
    let rho = sum("quality", 2) / sum("quality", 3).max(1.0);
    let digest = parts.iter().fold(0u64, |acc, p| {
        let d = p.one("digest");
        acc.wrapping_add(((d[0] as u64) << 32) | d[1] as u64)
    });
    let setup_times: Vec<f64> = parts
        .iter()
        .flat_map(|p| p.rows("setup").map(|r| r[0]))
        .collect();
    let queue: Vec<f64> = parts.iter().map(|p| p.one("queue")[0]).collect();
    report.line(format!(
        "set-up {:.4} s (median of {}): traffic plan, offline references, daemon boot, warm-up",
        median(&setup_times),
        setup_times.len()
    ));
    report.line(format!(
        "medians over {} rounds in {} processes: nominal p50 {p50:.4} ms, p{tail_p} {tail:.4} ms; capacity ({CAPACITY_WINDOW} in flight) {throughput:.1} req/s",
        rounds.len(),
        parts.len()
    ));
    report.line(format!(
        "max_rate_rps = {max_rate} (highest rate whose every sub-step keeps p{tail_p} <= {TAIL_LIMIT_MS} ms without a growing backlog, every lower rate too)"
    ));
    report.line(format!(
        "verdicts: {attempted} attempted, {rejected} rejected (the offline pipeline rejects them too), {failed} failed checks; 429 sheds {sheds}"
    ));
    report.line(format!(
        "fail_rate (non-200 responses and failed checks) = {:.6}",
        (rejected + failed) as f64 / attempted as f64
    ));
    report.line(format!(
        "daemon queue stage p50 {:.4} ms (median over processes)",
        median(&queue)
    ));
    report.line(format!(
        "response digest (every response, any order): {digest:016x}"
    ));
    let rss = parts.iter().map(|p| p.one("rss")[0]).fold(0.0, f64::max);
    report.metrics = vec![
        Metric::new("setup_s", median(&setup_times), "s"),
        Metric::new("throughput_pps", throughput, "1/s"),
        Metric::new("latency_p50_ms", p50, "ms"),
        Metric::new("latency_tail_ms", tail, "ms"),
        Metric::new("peak_rss_mb", rss, "MiB"),
        Metric::new("finish_time_s", finish, "model-s"),
        Metric::new("energy_cost_j", energy, "J"),
        Metric::new("utilization", rho, "ratio"),
    ];
    report.attempted = attempted;
    report.failed = failed;
    report
}

/// The traced run, in one process: the whole load, then the in-process
/// replay of the nominal requests' layer calls. Client spans come from
/// the timestamps the loop takes anyway, so recording them adds nothing
/// to the measured latencies.
pub fn run_traced(seed: u64, seconds: u64) -> Report {
    let mut report = Report::new("serve_mix", seed);
    // Created before the load so that the client spans fall after its
    // origin.
    let mut tracer = Tracer::default();
    let total = rounds_for(seconds);
    let (plan, daemon, setup_times, mut tally) = setup(seed, total, 0..total, SETUP_REPEATS);
    let addr = daemon.handle.addr();
    let driven = drive(addr, &plan.rounds, &mut tally);
    let (queue_ms, _) = scrape_queue_ms(addr);
    daemon.stop();
    let pairs = driven.pairs(&plan.rounds);
    let hits = pairs
        .iter()
        .filter(|(_, r)| r.served == "cache-exact" || r.served == "cache-region")
        .count();
    let sheds = pairs.iter().filter(|(_, r)| r.status == 429).count();
    report.line(format!(
        "set-up {:.4} s (median of {}); {} requests",
        median(&setup_times),
        setup_times.len(),
        pairs.len()
    ));
    let Replayed {
        mut rows,
        lines,
        mismatches,
    } = replay_layers(&mut tracer, &plan.rounds, &driven.nominal);
    if let Some(server) = rows.server.as_mut() {
        server.cache_hit_ratio = hits as f64 / pairs.len() as f64;
        server.sheds = sheds as f64;
        server.queue_ms = queue_ms;
    }
    report.lines.extend(lines);
    report.lines.extend(rows.describe());
    report.metrics = rows.metrics();
    report.spans = Some(tracer);
    report.attempted = tally.attempted;
    report.failed = tally.failed + mismatches;
    report
}

/// Client span name per served class, so no span population pools
/// classes.
fn client_span(class: Class) -> &'static str {
    match class {
        Class::Fresh => "client.fresh",
        Class::Exact => "client.cache-exact",
        Class::Region => "client.cache-region",
        Class::Incremental => "client.fresh-incremental",
    }
}

/// The daemon's two cache-key prints of a request's problem: as sent,
/// and with its power envelope erased.
fn key_prints(t: &mut Tracer, id: u64, problem: &Problem) {
    t.span(id, "spec.print", |_| print_problem(problem));
    let mut unconstrained = problem.clone();
    unconstrained.set_constraints(PowerConstraints::unconstrained());
    t.span(id, "spec.print", |_| print_problem(&unconstrained));
}

/// What the replay found: the layer rows, lines describing the classes
/// the rows leave out, and replays whose bytes differ from the response.
struct Replayed {
    rows: LayerRows,
    lines: Vec<String>,
    mismatches: u64,
}

/// Replays the layer calls each nominal request made inside the daemon,
/// in process and under spans, and derives the serving-layer rows.
///
/// The layer rows cover the `fresh` class only: its requests run the
/// CLI pipeline's stage calls through [`traced_cli`], as the daemon's
/// cold path does. The other classes' spans are kept as populations of
/// their own and described, never pooled with `fresh`: `cache-exact`
/// replays the parse and the two key prints, `cache-region` adds the
/// render of the cached schedule, and `fresh-incremental` runs
/// `schedule_session_with` whole, through a session engine that has not
/// served yet — the state the daemon's session for that graph is in,
/// since the warm-up request that opened it was served cold. Every
/// replayed schedule must equal the response's bytes.
fn replay_layers(tracer: &mut Tracer, rounds: &[Round], steps: &[Step]) -> Replayed {
    let mut rows = LayerRows::default();
    let mut server = ServerRows::default();
    let mut by_class: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let mut class_of = Vec::new();
    let mut overhead: Vec<f64> = Vec::new();
    let mut solved = Vec::new();
    let mut session_stats = SchedulerStats::default();
    let mut mismatches = 0;
    let scheduler = PowerAwareScheduler::default();
    let requests = rounds.iter().zip(steps).flat_map(|(round, step)| {
        round
            .nominal
            .iter()
            .zip(&step.responses)
            .enumerate()
            .map(move |(i, (p, r))| (i, p, r, step))
    });
    for (i, p, r, step) in requests {
        let id = class_of.len() as u64;
        class_of.push(p.class);
        let latency = step.latency_ms[i];
        let due = step.start + Duration::from_secs_f64(due_offset(i, step.rate));
        let client = tracer.record(id, client_span(p.class), None, due, r.done);
        tracer.record(
            id,
            "harness.gen_lag",
            Some(client),
            due,
            step.sent[i].max(due),
        );
        by_class.entry(p.class.served()).or_default().push(latency);
        let replay_started = Instant::now();
        let replayed = tracer.span(id, "replay", |t| {
            let problem = t.span(id, "spec.parse", |_| {
                parse_problem(&p.text).expect("plan text parses")
            });
            key_prints(t, id, &problem);
            match p.class {
                Class::Exact => None,
                Class::Region => parse_schedule(&r.body, &problem).ok().map(|(_, schedule)| {
                    t.span(id, "spec.render", |_| render(&problem, &schedule))
                }),
                Class::Fresh => {
                    let (verdict, counts) = traced_cli(t, id, &p.text, &p.problem);
                    let kind = match verdict {
                        Verdict::Schedule(_) => {
                            solved.push(id);
                            "solved"
                        }
                        Verdict::LintRejected => "lint_rejected",
                        _ => "rejected",
                    };
                    rows.add_counts(kind, counts);
                    match verdict {
                        Verdict::Schedule(text) => Some(text),
                        _ => None,
                    }
                }
                Class::Incremental => {
                    let mut problem = problem.clone();
                    let mut counter = CountingObserver::new();
                    let outcome = t.span(id, "session_pipeline", |_| {
                        scheduler.schedule_session_with(
                            &mut problem,
                            &mut SessionContext::new(),
                            &mut counter,
                        )
                    });
                    session_stats += counter.counts().into();
                    outcome.ok().map(|outcome| {
                        t.span(id, "spec.render", |_| render(&problem, &outcome.schedule))
                    })
                }
            }
        });
        let replay_ms = ms(replay_started.elapsed());
        if p.class == Class::Exact {
            overhead.push(latency - replay_ms);
        } else if replayed.as_deref() != (r.status == 200).then_some(r.body.as_str()) {
            eprintln!(
                "perfbench: {}: the replayed layer calls give other bytes than the daemon",
                p.problem.name()
            );
            mismatches += 1;
        }
    }
    let spans = tracer.spans();
    let class_of = &class_of;
    let in_class = |class| {
        spans
            .iter()
            .filter(move |s| class_of[s.group as usize] == class)
    };
    rows.add_spans(in_class(Class::Fresh), &solved);
    for class in [Class::Exact, Class::Region, Class::Incremental] {
        rows.add_other_spans(class.served(), in_class(class));
    }
    for (class, v) in by_class {
        server.class_p50_ms.insert(class, (median(&v), v.len()));
    }
    server.overhead_ms = if overhead.is_empty() {
        0.0
    } else {
        median(&overhead)
    };
    let lags: Vec<f64> = steps
        .iter()
        .flat_map(|s| s.lag_ms.iter().copied())
        .collect();
    server.gen_lag_ms = median(&lags);
    rows.server = Some(server);
    let lookups = session_stats.incremental_cache_hits
        + session_stats.incremental_deltas
        + session_stats.incremental_fallbacks;
    let lines = vec![
        "layer rows cover the `fresh` class; the other classes' spans are described by class below".to_string(),
        format!(
            "fresh-incremental session pipeline: incremental cache hits {} of {lookups} lookups, {} fallbacks",
            session_stats.incremental_cache_hits, session_stats.incremental_fallbacks
        ),
    ];
    Replayed {
        rows,
        lines,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_and_lag_from_the_send_time() {
        // 100 req/s: due at 0, 10, 20, 30 ms. The generator stalls 25 ms
        // on the second request, so it and the third go out late; the
        // stall also delays the responses behind it.
        let due: Vec<f64> = (0..4).map(|i| due_offset(i, 100.0)).collect();
        assert_eq!(due, vec![0.0, 0.01, 0.02, 0.03]);
        let sent = [0.0, 0.035, 0.036, 0.0301];
        let done = [0.002, 0.037, 0.039, 0.041];
        let (latency, lag) = account(&due, &sent, &done);
        let round = |v: Vec<f64>| {
            v.iter()
                .map(|x| (x * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        };
        assert_eq!(round(latency), vec![2.0, 27.0, 19.0, 11.0]);
        assert_eq!(round(lag), vec![0.0, 25.0, 16.0, 0.1]);
    }

    #[test]
    fn early_sends_count_as_no_lag() {
        let (_, lag) = account(&[0.5], &[0.4999], &[0.6]);
        assert_eq!(lag, vec![0.0]);
    }

    #[test]
    fn every_sub_step_carries_the_classes_in_the_shares_of_the_turns() {
        let mut queues = std::array::from_fn(|turn| {
            let pool: Vec<usize> = (0..100).map(|k| TURN * k + turn).collect();
            shuffled(pool, turn as u64).into_iter()
        });
        let mut seen = std::collections::BTreeSet::new();
        for (n, step_seed) in [(402, 1), (198, 2)] {
            let step = sub_step(&mut queues, n, step_seed);
            assert_eq!(step.len(), n);
            let count = |class| {
                step.iter()
                    .filter(|&&i| Class::TURNS[i % TURN] == class)
                    .count()
            };
            assert_eq!(count(Class::Exact), n / 3);
            assert_eq!(count(Class::Region), n / 3);
            assert_eq!(count(Class::Fresh), n / 6);
            assert_eq!(count(Class::Incremental), n / 6);
            seen.extend(step);
        }
        assert_eq!(seen.len(), 600, "no request is drawn twice");
        for rate in LADDER {
            assert_eq!(ladder_len(rate) % TURN, 0);
        }
    }

    #[test]
    fn backlog_detection_compares_the_first_and_last_tenth() {
        let flat: Vec<f64> = (0..100).map(|i| 1.0 + (i % 3) as f64 * 0.1).collect();
        assert!(!backlog_grows(&flat));
        let growing: Vec<f64> = (0..100).map(|i| 1.0 + i as f64 * 0.5).collect();
        assert!(backlog_grows(&growing));
    }
}
