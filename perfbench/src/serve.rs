//! The `serve-mixed` workload: one `copack serve --workers 1` daemon
//! process driven by this process as an open-loop client over one
//! pipelined connection.
//!
//! The request stream repeats a fixed cycle of [`CYCLE`] slots (see
//! [`slot_class`]): mostly cache hits on a warm set of Table 1 exchange
//! jobs, plus fresh-seed Table 1 and large-1k exchange misses and one
//! 4-quadrant large-1k `replan` whose dirty quadrant is churned at
//! `STANDARD_CHURN`. Every request is timed from when it was due.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use copack_core::{CancelToken, Codesign};
use copack_gen::{churn, SplitMix64, STANDARD_CHURN};
use copack_geom::{Package, Quadrant};
use copack_io::{parse_assignment, parse_quadrant, write_quadrant};
use copack_route::{analyze, cutline_congestion, DensityModel};
use copack_serve::{
    cache_key, decode_request, decode_response, encode_request, encode_response, execute_job,
    Frame, JobClass, JobOutput, JobSpec, LineReader, Lookup, PlanResponse, Request, Response,
    ResultCache, StatusSnapshot,
};

use crate::proc::Daemon;
use crate::stats::{median, tail_or_max};
use crate::trace::Tracer;
use crate::{Metrics, Outcome};

/// Slots in one cycle of the request pattern.
pub const CYCLE: usize = 100;
/// Slot of the cycle's large-1k exchange miss.
const LARGE_SLOT: usize = 0;
/// Slot of the cycle's replan.
const REPLAN_SLOT: usize = 50;
/// Slots of the cycle's fresh-seed Table 1 exchange misses. Five per
/// cycle cover the 15 (circuit, ψ) pairs every three cycles. At the
/// nominal rate each comes 30 or more slots (150 ms) after a large job
/// starts, twice the large job's ~70 ms, so even on a machine running
/// half as fast it finds the worker idle and its latency shows its own
/// service, not the queue.
const TABLE1_SLOTS: [usize; 5] = [32, 40, 80, 88, 96];
/// ψ values of the Table 1 jobs.
const PSIS: [u8; 3] = [1, 2, 4];
/// Exchange seeds of the warm set: 5 circuits × 3 ψ × 4 seeds = 60 jobs.
const WARM_SEEDS: u64 = 4;
/// The fixed latency limit on a rate's tail.
pub const LIMIT_MS: f64 = 200.0;
/// Mean growth of the worker requests' latency from a phase's first
/// cycles to its last that counts as a growing backlog.
pub const GROWTH_MS: f64 = 50.0;
/// Cycles compared at each end of a phase by [`backlog_grows`].
const TREND_CYCLES: usize = 2;
/// The nominal rate (requests/s): about 30% of the ~650/s this mix
/// sustains at the seed commit on a 2-core machine, and 40% of the
/// ~500/s it sustains there in slow phases. At 300/s, slow phases queued
/// the Table 1 misses behind the large jobs, and `work_p50_ms` jumped
/// from 6.8 ms to 7–25 ms.
pub const NOMINAL_RATE: f64 = 200.0;
/// Cycles of the nominal phase per 20 s of run: a multiple of 3 and 8,
/// so every (circuit, ψ) pair and large-1k instance appears equally.
const NOMINAL_CYCLES: usize = 24;
/// The ladder's coarse rates (requests/s): tried upwards until one
/// misses, then the gap to the last pass is bisected [`BISECTIONS`]
/// times.
pub const LADDER_START: f64 = 400.0;
/// Step between the ladder's coarse rates.
pub const LADDER_STEP: f64 = 100.0;
/// The highest coarse rate tried.
pub const LADDER_MAX: f64 = 2000.0;
/// Bisections between the last passing and first missing coarse rate.
const BISECTIONS: usize = 3;
/// Seconds per ladder rate.
const LADDER_PHASE_S: f64 = 3.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What a request asks of the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A repeat of a warm-set job.
    Hit,
    /// A fresh-seed Table 1 exchange job.
    Table1Miss,
    /// A fresh-seed large-1k exchange job.
    LargeMiss,
    /// Three cached quadrants plus one churned quadrant warm-starting
    /// from its previous plan.
    Replan,
}

impl Class {
    fn runs_worker(self) -> bool {
        self != Self::Hit
    }
}

/// The class of cycle slot `slot`.
#[must_use]
pub fn slot_class(slot: usize) -> Class {
    let slot = slot % CYCLE;
    if slot == LARGE_SLOT {
        Class::LargeMiss
    } else if slot == REPLAN_SLOT {
        Class::Replan
    } else if TABLE1_SLOTS.contains(&slot) {
        Class::Table1Miss
    } else {
        Class::Hit
    }
}

/// One request, encoded and keyed before it is due.
#[derive(Debug, Clone)]
pub struct Req {
    /// Its class.
    pub class: Class,
    /// The frame, newline-terminated.
    pub line: Arc<str>,
    /// The cache key of every job it carries, in order.
    pub keys: Vec<u64>,
    /// The specs, in order (for verification).
    pub specs: Vec<Arc<JobSpec>>,
}

/// A job with its precomputed key.
#[derive(Clone)]
struct Keyed {
    spec: Arc<JobSpec>,
    key: u64,
}

fn keyed(spec: JobSpec) -> Keyed {
    let (_, quadrant) = parse_quadrant(&spec.circuit).expect("generated circuits parse");
    let key = cache_key(&spec, &quadrant);
    Keyed {
        spec: Arc::new(spec),
        key,
    }
}

fn exchange_spec(circuit: &str, psi: u8, seed: u64) -> JobSpec {
    JobSpec {
        exchange: true,
        psi,
        exchange_seed: seed,
        ..JobSpec::new(circuit)
    }
}

/// Large-1k instances the exchange misses cycle through.
const LARGE_INSTANCES: usize = 8;

/// The deterministic request stream of one seed.
pub struct Stream {
    rng: SplitMix64,
    table1: Vec<String>,
    warm: Vec<Keyed>,
    warm_lines: Vec<Arc<str>>,
    /// Large-1k circuits of the exchange misses.
    large: Vec<String>,
    /// The replans' package: four large-1k quadrants with their names.
    sides: Vec<(String, Quadrant)>,
    /// The clean exchange spec of each side.
    clean: Vec<Keyed>,
    /// Each side's previous plan, once the daemon has planned it.
    prev: Vec<Option<String>>,
    table1_misses: usize,
    large_misses: usize,
    replans: usize,
}

fn large_1k(rng: &mut SplitMix64) -> (String, Quadrant) {
    let spec = copack_gen::large_circuit("1k", rng.next_u64() >> 16).expect("1k preset");
    let quadrant = spec.build_quadrant().expect("large instance builds");
    (spec.name, quadrant)
}

impl Stream {
    /// The stream for `seed`: the Table 1 circuits, and large-1k
    /// instances from seed-drawn generator seeds.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5E5E_5E5E);
        let table1: Vec<String> = copack_gen::circuits()
            .iter()
            .map(|c| {
                let q = c.build_quadrant().expect("Table 1 circuit builds");
                write_quadrant(&c.name.replace(' ', ""), &q)
            })
            .collect();
        let mut warm = Vec::new();
        for circuit in &table1 {
            for psi in PSIS {
                for xseed in 0..WARM_SEEDS {
                    warm.push(keyed(exchange_spec(circuit, psi, xseed)));
                }
            }
        }
        let warm_lines = warm.iter().map(|k| plan_line(&k.spec)).collect();
        let large = (0..LARGE_INSTANCES)
            .map(|_| {
                let (name, q) = large_1k(&mut rng);
                write_quadrant(&name, &q)
            })
            .collect();
        let sides: Vec<(String, Quadrant)> = (0..4).map(|_| large_1k(&mut rng)).collect();
        let default_seed = copack_core::ExchangeConfig::default().seed;
        let clean = sides
            .iter()
            .map(|(name, q)| keyed(exchange_spec(&write_quadrant(name, q), 1, default_seed)))
            .collect();
        Self {
            rng,
            table1,
            warm,
            warm_lines,
            large,
            sides,
            clean,
            prev: vec![None; 4],
            table1_misses: 0,
            large_misses: 0,
            replans: 0,
        }
    }

    fn fresh_seed(&mut self) -> u64 {
        // Far above the warm set's seeds, so a fresh job never hits.
        (self.rng.next_u64() >> 8) | (1 << 40)
    }

    /// Builds the next request of `class`.
    ///
    /// # Panics
    ///
    /// For a replan before the sides' previous plans are known.
    pub fn make(&mut self, class: Class) -> Req {
        match class {
            Class::Hit => {
                let i = usize::try_from(self.rng.below(self.warm.len() as u64)).expect("index");
                Req {
                    class,
                    line: Arc::clone(&self.warm_lines[i]),
                    keys: vec![self.warm[i].key],
                    specs: vec![Arc::clone(&self.warm[i].spec)],
                }
            }
            Class::Table1Miss => {
                let n = self.table1_misses;
                self.table1_misses += 1;
                let circuit = self.table1[n % self.table1.len()].clone();
                let psi = PSIS[(n / self.table1.len()) % PSIS.len()];
                let seed = self.fresh_seed();
                single(keyed(exchange_spec(&circuit, psi, seed)), class)
            }
            Class::LargeMiss => {
                let n = self.large_misses;
                self.large_misses += 1;
                let circuit = self.large[n % self.large.len()].clone();
                let seed = self.fresh_seed();
                single(keyed(exchange_spec(&circuit, 1, seed)), class)
            }
            Class::Replan => {
                // The dirty side rotates, so every side's warm start is
                // exercised; the other three answer from the cache.
                let dirty = self.replans % 4;
                self.replans += 1;
                let churn_seed = self.fresh_seed();
                let (name, base) = &self.sides[dirty];
                let edited = churn(base, churn_seed, STANDARD_CHURN).expect("churn applies");
                let mut jobs = self.clean.clone();
                jobs[dirty] = keyed(JobSpec {
                    prev: Some(
                        self.prev[dirty]
                            .clone()
                            .expect("every side has been planned"),
                    ),
                    ..exchange_spec(
                        &write_quadrant(name, &edited),
                        1,
                        self.clean[dirty].spec.exchange_seed,
                    )
                });
                let request = Request::Replan {
                    class: JobClass::Interactive,
                    jobs: jobs.iter().map(|k| (*k.spec).clone()).collect(),
                };
                Req {
                    class,
                    line: line_of(&request),
                    keys: jobs.iter().map(|k| k.key).collect(),
                    specs: jobs.iter().map(|k| Arc::clone(&k.spec)).collect(),
                }
            }
        }
    }

    /// Requests for cycle slots `from..to`.
    pub fn slots(&mut self, from: usize, to: usize) -> Vec<Req> {
        (from..to).map(|slot| self.make(slot_class(slot))).collect()
    }

    /// The warm set plus the clean large-1k jobs: what set-up plans.
    fn warm_up(&self) -> Vec<Req> {
        self.warm
            .iter()
            .zip(&self.warm_lines)
            .map(|(k, line)| Req {
                class: Class::Hit,
                line: Arc::clone(line),
                keys: vec![k.key],
                specs: vec![Arc::clone(&k.spec)],
            })
            .chain(
                self.clean
                    .iter()
                    .map(|k| single(k.clone(), Class::LargeMiss)),
            )
            .collect()
    }
}

fn line_of(request: &Request) -> Arc<str> {
    let mut line = encode_request(request);
    line.push('\n');
    line.into()
}

fn plan_line(spec: &JobSpec) -> Arc<str> {
    line_of(&Request::Plan(spec.clone()))
}

fn single(k: Keyed, class: Class) -> Req {
    Req {
        class,
        line: plan_line(&k.spec),
        keys: vec![k.key],
        specs: vec![k.spec],
    }
}

/// When one request was due, sent and completed, in seconds from the
/// phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When its last response arrived, if it did.
    pub done: Option<f64>,
}

impl Timing {
    /// Latency counted from when the request was due, so a stalled
    /// generator or daemon charges the wait to every request behind it.
    #[must_use]
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| (d - self.due) * 1e3)
    }

    /// How late the generator sent it.
    #[must_use]
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// Whether the worker backlog grew over a phase of whole cycles: the
/// requests that run a worker in the last [`TREND_CYCLES`] cycles took
/// longer on average than those in the same slots of the first ones, by
/// more than [`GROWTH_MS`]. Pairing slots keeps the mix of classes the
/// same on both sides. Below capacity the worker drains between large
/// jobs and the cycles look alike; above it each cycle waits longer
/// than the one before.
#[must_use]
pub fn backlog_grows(timings: &[(Timing, bool)]) -> bool {
    let cycles = timings.len() / CYCLE;
    if cycles < 2 * TREND_CYCLES {
        return false;
    }
    let mut growth = 0.0;
    let mut pairs = 0u32;
    for offset in 0..TREND_CYCLES * CYCLE {
        let (early, early_worker) = timings[offset];
        let (late, late_worker) = timings[(cycles - TREND_CYCLES) * CYCLE + offset];
        if early_worker && late_worker {
            let latency = |t: Timing| t.latency_ms().unwrap_or(f64::INFINITY);
            growth += latency(late) - latency(early);
            pairs += 1;
        }
    }
    pairs > 0 && growth / f64::from(pairs) > GROWTH_MS
}

/// What the reader thread learns, shared with the sender.
#[derive(Default)]
struct Inbox {
    /// Outstanding request indexes waiting for each key, oldest first.
    waiting: HashMap<u64, VecDeque<usize>>,
    /// Responses still expected per request.
    remaining: Vec<usize>,
    done: Vec<Option<Instant>>,
    /// Error frames received (refusals, failed jobs).
    errors: u64,
    /// Responses whose key matched no request sent.
    unmatched: Vec<u64>,
    /// The served assignment of every key, and keys served inconsistently.
    served: HashMap<u64, String>,
    inconsistent: Vec<u64>,
    status: Option<StatusSnapshot>,
    outstanding: usize,
}

impl Inbox {
    fn deliver(&mut self, plan: &PlanResponse, at: Instant) {
        match self.served.get(&plan.key) {
            Some(a) if *a != plan.assignment => self.inconsistent.push(plan.key),
            Some(_) => {}
            None => {
                self.served.insert(plan.key, plan.assignment.clone());
            }
        }
        let Some(req) = self
            .waiting
            .get_mut(&plan.key)
            .and_then(VecDeque::pop_front)
        else {
            self.unmatched.push(plan.key);
            return;
        };
        self.remaining[req] -= 1;
        if self.remaining[req] == 0 {
            self.done[req] = Some(at);
            self.outstanding -= 1;
        }
    }
}

/// A client of the daemon: one pipelined connection, drained by a
/// reader thread.
///
/// The daemon holds a response back until the client's next request
/// acknowledges the previous one (see `README.md`), so every latency is
/// rounded up to a multiple of the connection's inter-arrival time. On
/// one connection that step is 5 ms at the nominal rate. Two connections
/// made it 10 ms, and `tail_ms` then jumped a whole step (12%) between
/// runs.
struct Client {
    writer: TcpStream,
    inbox: Arc<Mutex<Inbox>>,
    stop: Arc<AtomicBool>,
    reader: std::thread::JoinHandle<Result<(), String>>,
}

impl Client {
    fn connect(addr: &str) -> Result<Self, String> {
        let inbox = Arc::new(Mutex::new(Inbox::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = writer.try_clone().map_err(|e| e.to_string())?;
        read_half
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| e.to_string())?;
        let reader = {
            let inbox = Arc::clone(&inbox);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || read_loop(read_half, &inbox, &stop))
        };
        Ok(Self {
            writer,
            inbox,
            stop,
            reader,
        })
    }

    fn inbox(&self) -> std::sync::MutexGuard<'_, Inbox> {
        self.inbox.lock().expect("the reader thread panicked")
    }

    /// Registers request `index` and writes it.
    fn send(&mut self, index: usize, req: &Req) -> Result<(), String> {
        {
            let mut inbox = self.inbox();
            if inbox.remaining.len() <= index {
                inbox.remaining.resize(index + 1, 0);
                inbox.done.resize(index + 1, None);
            }
            inbox.remaining[index] = req.keys.len();
            inbox.outstanding += 1;
            for key in &req.keys {
                inbox.waiting.entry(*key).or_default().push_back(index);
            }
        }
        self.writer
            .write_all(req.line.as_bytes())
            .map_err(|e| format!("sending a request: {e}"))
    }

    /// Waits until nothing is outstanding or the errors account for
    /// everything still missing, or `limit` passes.
    fn drain(&self, limit: Duration) {
        let until = Instant::now() + limit;
        while Instant::now() < until {
            {
                let inbox = self.inbox();
                if inbox.outstanding == 0 || inbox.errors as usize >= inbox.outstanding {
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Clears the request bookkeeping for the next phase.
    fn reset(&self) {
        let mut inbox = self.inbox();
        inbox.waiting.clear();
        inbox.remaining.clear();
        inbox.done.clear();
        inbox.errors = 0;
        inbox.outstanding = 0;
    }

    /// Sends `reqs` one at a time, each after the previous completed.
    fn closed_loop(&mut self, reqs: &[Req]) -> Result<(), String> {
        self.reset();
        for (i, req) in reqs.iter().enumerate() {
            self.send(i, req)?;
            self.drain(Duration::from_secs(60));
            if self.inbox().done[i].is_none() {
                return Err(format!("a {:?} request got no answer", req.class));
            }
        }
        Ok(())
    }

    /// Sends `reqs` open loop at `rate` per second and returns each
    /// one's timing plus the error frames received.
    fn open_loop(&mut self, reqs: &[Req], rate: f64) -> Result<(Vec<Timing>, u64), String> {
        self.reset();
        let start = Instant::now();
        let mut sent = Vec::with_capacity(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            let due = i as f64 / rate;
            let now = start.elapsed().as_secs_f64();
            if due > now {
                std::thread::sleep(Duration::from_secs_f64(due - now));
            }
            sent.push(start.elapsed().as_secs_f64());
            self.send(i, req)?;
        }
        self.drain(Duration::from_secs(30));
        let inbox = self.inbox();
        let timings = sent
            .iter()
            .enumerate()
            .map(|(i, &s)| Timing {
                due: i as f64 / rate,
                sent: s,
                done: inbox.done[i].map(|d| (d - start).as_secs_f64()),
            })
            .collect();
        Ok((timings, inbox.errors))
    }

    /// The daemon's counters.
    fn status(&mut self) -> Result<StatusSnapshot, String> {
        self.inbox().status = None;
        self.writer
            .write_all(line_of(&Request::Status).as_bytes())
            .map_err(|e| e.to_string())?;
        let until = Instant::now() + Duration::from_secs(10);
        while Instant::now() < until {
            if let Some(s) = self.inbox().status {
                return Ok(s);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("no status answer".to_owned())
    }

    /// Asks the daemon to stop, then joins the reader.
    fn shutdown(mut self) -> Result<(), String> {
        let sent = self
            .writer
            .write_all(line_of(&Request::Shutdown).as_bytes());
        std::thread::sleep(Duration::from_millis(20));
        self.stop.store(true, Ordering::SeqCst);
        self.reader
            .join()
            .map_err(|_| "the reader thread panicked")??;
        sent.map_err(|e| e.to_string())
    }
}

fn read_loop(stream: TcpStream, inbox: &Mutex<Inbox>, stop: &AtomicBool) -> Result<(), String> {
    let mut reader = LineReader::new(stream);
    loop {
        let line = match reader.next_frame().map_err(|e| e.to_string())? {
            Frame::Line(line) => line,
            Frame::Eof => return Ok(()),
            Frame::Idle if stop.load(Ordering::SeqCst) => return Ok(()),
            Frame::Idle => continue,
        };
        let at = Instant::now();
        let response = decode_response(&line).map_err(|e| e.to_string())?;
        let mut inbox = inbox.lock().expect("the sender panicked");
        match response {
            Response::Plan(plan)
            | Response::BatchItem {
                result: Ok(plan), ..
            } => inbox.deliver(&plan, at),
            Response::Error(_) | Response::BatchItem { result: Err(_), .. } => inbox.errors += 1,
            Response::Status(s) => inbox.status = Some(s),
            Response::BatchDone(_) | Response::Shutdown => {}
        }
    }
}

/// A running daemon with its client, warmed and ready.
struct Session {
    daemon: Daemon,
    client: Client,
    stream: Stream,
    /// Every request sent, for verification.
    sent: Vec<Req>,
}

/// Starts the daemon, connects, and plans the warm set and the clean
/// replan sides (their plans become the replans' previous plans).
fn set_up(bin: &Path, seed: u64) -> Result<Session, String> {
    let daemon = Daemon::start(bin, 1)?;
    let mut client = Client::connect(&daemon.addr)?;
    let mut stream = Stream::new(seed);
    let warm = stream.warm_up();
    client.closed_loop(&warm)?;
    for side in 0..4 {
        let key = stream.clean[side].key;
        let prev = client.inbox().served.get(&key).cloned();
        stream.prev[side] = Some(prev.ok_or("the daemon did not plan a replan side")?);
    }
    Ok(Session {
        daemon,
        client,
        stream,
        sent: warm,
    })
}

/// One open-loop phase's outcome.
struct Phase {
    rate: f64,
    reqs: Vec<Req>,
    timings: Vec<Timing>,
    errors: u64,
}

impl Phase {
    fn latencies(&self, worker_only: bool) -> Vec<f64> {
        self.reqs
            .iter()
            .zip(&self.timings)
            .filter(|(r, _)| !worker_only || r.class.runs_worker())
            .map(|(_, t)| t.latency_ms().unwrap_or(f64::INFINITY))
            .collect()
    }

    fn failed(&self) -> u64 {
        let missing = self.timings.iter().filter(|t| t.done.is_none()).count() as u64;
        missing.max(self.errors)
    }

    /// One line: rate, tail, backlog and verdict.
    fn describe(&self) -> String {
        format!(
            "{:.0}/s tail {:.1} ms{}{} -> {}",
            self.rate,
            tail_or_max(&self.latencies(false)),
            if self.grows() { ", backlog grows" } else { "" },
            if self.failed() > 0 {
                format!(", {} failed", self.failed())
            } else {
                String::new()
            },
            if self.passes() { "pass" } else { "miss" }
        )
    }

    fn grows(&self) -> bool {
        let marked: Vec<(Timing, bool)> = self
            .timings
            .iter()
            .zip(&self.reqs)
            .map(|(t, r)| (*t, r.class.runs_worker()))
            .collect();
        backlog_grows(&marked)
    }

    /// Meets the limit: nothing failed or refused, the tail is within
    /// [`LIMIT_MS`], and the worker backlog is not growing.
    fn passes(&self) -> bool {
        self.failed() == 0 && tail_or_max(&self.latencies(false)) <= LIMIT_MS && !self.grows()
    }
}

/// Runs `cycles` whole cycles of the stream open loop at `rate`.
fn phase(
    session: &mut Session,
    slot: &mut usize,
    rate: f64,
    cycles: usize,
) -> Result<Phase, String> {
    let reqs = session.stream.slots(*slot, *slot + cycles * CYCLE);
    *slot += cycles * CYCLE;
    let (timings, errors) = session.client.open_loop(&reqs, rate)?;
    session.sent.extend(reqs.iter().cloned());
    Ok(Phase {
        rate,
        reqs,
        timings,
        errors,
    })
}

/// Whole cycles lasting about `seconds` at `rate`.
fn cycles_for(rate: f64, seconds: f64) -> usize {
    ((rate * seconds) / CYCLE as f64).ceil().max(1.0) as usize
}

/// The nominal phase: [`NOMINAL_CYCLES`] per 20 s of run.
fn nominal(session: &mut Session, slot: &mut usize, seconds: f64) -> Result<Phase, String> {
    let blocks = (seconds / 20.0).round().max(1.0) as usize;
    phase(session, slot, NOMINAL_RATE, NOMINAL_CYCLES * blocks)
}

/// Finds the highest rate that meets the limit: coarse steps upwards
/// from [`LADDER_START`] until one misses, then bisection between the
/// last pass (or `floor`) and that miss. Returns the rate and one line
/// per phase.
fn ladder(
    session: &mut Session,
    slot: &mut usize,
    floor: f64,
) -> Result<(f64, Vec<String>), String> {
    let mut lines = Vec::new();
    let mut pass = floor;
    let mut miss = None;
    let mut rate = LADDER_START.max(floor + LADDER_STEP);
    while rate <= LADDER_MAX {
        let p = phase(session, slot, rate, cycles_for(rate, LADDER_PHASE_S))?;
        lines.push(p.describe());
        if !p.passes() {
            miss = Some(rate);
            break;
        }
        pass = rate;
        rate += LADDER_STEP;
    }
    if let Some(mut miss) = miss {
        for _ in 0..BISECTIONS {
            let mid = (pass + miss) / 2.0;
            let p = phase(session, slot, mid, cycles_for(mid, LADDER_PHASE_S))?;
            lines.push(p.describe());
            if p.passes() {
                pass = mid;
            } else {
                miss = mid;
            }
        }
    }
    Ok((pass, lines))
}

/// Local results of every distinct spec sent, computed with the same
/// executor the daemon uses.
fn verify(session: &Session) -> Result<HashMap<u64, JobOutput>, String> {
    let inbox = session.client.inbox();
    if !inbox.unmatched.is_empty() {
        return Err(format!(
            "{} responses carried a key no request had",
            inbox.unmatched.len()
        ));
    }
    if !inbox.inconsistent.is_empty() {
        return Err(format!(
            "{} keys were served two different plans",
            inbox.inconsistent.len()
        ));
    }
    let mut local: HashMap<u64, JobOutput> = HashMap::new();
    for req in &session.sent {
        for (key, spec) in req.keys.iter().zip(&req.specs) {
            if local.contains_key(key) {
                continue;
            }
            let output = execute_local(spec)?;
            if let Some(served) = inbox.served.get(key) {
                if *served != output.assignment {
                    return Err(format!(
                        "key {key:016x}: the served plan differs from execute_job"
                    ));
                }
            }
            local.insert(*key, output);
        }
    }
    Ok(local)
}

fn execute_local(spec: &JobSpec) -> Result<JobOutput, String> {
    let (name, quadrant) = parse_quadrant(&spec.circuit).map_err(|e| e.to_string())?;
    execute_job(spec, &name, &quadrant, &CancelToken::new()).map_err(|e| e.to_string())
}

/// Quality of the served warm set: (max density, wirelength µm, IR
/// drop mV, cut-line max), each summed over its jobs. The warm set is
/// the same for every seed, so these are exact and repeat across runs;
/// each plan is scored as a uniform package, as `copack plan --package`
/// would lay it out. The large and replan results are checked against
/// `execute_job` but not scored: their inputs change with the seed.
fn quality(warm: &[Keyed], local: &HashMap<u64, JobOutput>) -> Result<[f64; 4], String> {
    let grid = Codesign::default().grid;
    let mut sums = [0.0f64; 4];
    for job in warm {
        let (_, q) = parse_quadrant(&job.spec.circuit).map_err(|e| e.to_string())?;
        let text = &local
            .get(&job.key)
            .ok_or("a warm job was never served")?
            .assignment;
        let a = parse_assignment(text).map_err(|e| e.to_string())?.1;
        let report = analyze(&q, &a, DensityModel::Geometric).map_err(|e| e.to_string())?;
        sums[0] += f64::from(report.max_density);
        sums[1] += report.total_wirelength;
        let package = Package::uniform(q);
        let sides = [a.clone(), a.clone(), a.clone(), a];
        let ir =
            copack_core::evaluate_package_ir(&package, &sides, &grid).map_err(|e| e.to_string())?;
        sums[2] += ir.unwrap_or(0.0) * 1e3;
        let cutlines = cutline_congestion(&package, &sides, DensityModel::Geometric)
            .map_err(|e| e.to_string())?;
        sums[3] += f64::from(cutlines.max());
    }
    Ok(sums)
}

fn stop(session: Session) -> Result<(), String> {
    session.client.shutdown()?;
    session.daemon.wait()
}

/// The untraced run: end-to-end metrics plus every output check.
///
/// # Errors
///
/// On a daemon or transport failure, or a failed output check.
pub fn run(bin: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut session = None;
    for i in 0..SETUPS {
        let started = Instant::now();
        let s = set_up(bin, seed)?;
        setups.push(started.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            stop(s)?;
        } else {
            session = Some(s);
        }
    }
    let mut session = session.expect("at least one set-up");
    let mut slot = 0usize;
    let nominal = nominal(&mut session, &mut slot, seconds)?;
    let floor = if nominal.passes() { nominal.rate } else { 0.0 };
    // Peak RSS over a fixed amount of work: set-up plus the nominal phase.
    let rss_mb = session.daemon.memory("VmHWM")? as f64 / (1024.0 * 1024.0);
    let (max_rate, ladder) = ladder(&mut session, &mut slot, floor)?;
    let local = verify(&session)?;
    let q = quality(&session.stream.warm, &local)?;
    let attempted = nominal.reqs.len() as u64;
    let failed = nominal.failed();
    stop(session)?;

    let mut metrics = Metrics::new();
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("p50_ms", median(&nominal.latencies(false)), "ms");
    metrics.put("tail_ms", tail_or_max(&nominal.latencies(false)), "ms");
    metrics.put("work_p50_ms", median(&nominal.latencies(true)), "ms");
    metrics.put("rate_rps", max_rate, "1/s");
    metrics.put("rss_mb", rss_mb, "MB");
    metrics.put("ok_share", 1.0 - failed as f64 / attempted as f64, "share");
    metrics.put("max_density", q[0], "count");
    metrics.put("wirelength_um", q[1], "um");
    metrics.put("ir_drop_mv", q[2], "mV");
    metrics.put("cutline_max", q[3], "count");
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes: vec![
            format!("nominal: {}, {attempted} requests", nominal.describe()),
            format!("ladder: {}", ladder.join("; ")),
            format!("{} distinct jobs verified against execute_job", local.len()),
        ],
    })
}

/// Replays `reqs` in process through the daemon's public calls, with a
/// cache pre-filled by `warm`, checking each plan against the one the
/// daemon `served`. With a tracer, every call gets a span of the
/// request's index. Returns the wall time in seconds.
fn replay(
    warm: &[Req],
    reqs: &[Req],
    served: &HashMap<u64, String>,
    mut tracer: Option<&mut Tracer>,
) -> Result<f64, String> {
    let cache = ResultCache::new();
    for req in warm {
        for (key, spec) in req.keys.iter().zip(&req.specs) {
            if matches!(cache.lookup(*key), Lookup::Miss) {
                cache.fulfil(*key, Ok(Arc::new(execute_local(spec)?)));
            }
        }
    }
    let started = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        match tracer.as_deref_mut() {
            Some(t) => t.span("serve.request", i as u64, |t| {
                serve_one(&cache, req, i as u64, &mut Some(t))
            })?,
            None => serve_one(&cache, req, i as u64, &mut None)?,
        }
    }
    for (key, assignment) in served {
        if let Lookup::Hit(output) = cache.lookup(*key) {
            if output.assignment != *assignment {
                return Err(format!(
                    "key {key:016x}: the replay differs from the daemon"
                ));
            }
        }
    }
    Ok(started.elapsed().as_secs_f64())
}

/// Runs `f` inside a span when tracing.
fn maybe_span<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    req: u64,
    f: impl FnOnce(&mut Option<&mut Tracer>) -> T,
) -> T {
    match tracer.take() {
        Some(t) => {
            let out = t.span(name, req, |t| f(&mut Some(t)));
            *tracer = Some(t);
            out
        }
        None => f(&mut None),
    }
}

fn serve_one(
    cache: &ResultCache,
    req: &Req,
    id: u64,
    tracer: &mut Option<&mut Tracer>,
) -> Result<(), String> {
    let line = req.line.trim_end();
    let request = maybe_span(tracer, "serve.decode", id, |_| decode_request(line))
        .map_err(|e| e.to_string())?;
    let (jobs, batch) = match request {
        Request::Plan(spec) => (vec![spec], false),
        Request::Replan { jobs, .. } => (jobs, true),
        other => return Err(format!("unexpected request {other:?}")),
    };
    for (seq, spec) in jobs.iter().enumerate() {
        let (name, quadrant) =
            maybe_span(tracer, "io.parse", id, |_| parse_quadrant(&spec.circuit))
                .map_err(|e| e.to_string())?;
        let key = maybe_span(tracer, "serve.key", id, |_| cache_key(spec, &quadrant));
        if key != req.keys[seq] {
            return Err("the replayed key differs from the one sent".to_owned());
        }
        let lookup = maybe_span(tracer, "serve.lookup", id, |_| cache.lookup(key));
        let (tag, output) = match lookup {
            Lookup::Hit(output) => ("hit", output),
            Lookup::Miss => {
                let run = |_: &mut Option<&mut Tracer>| {
                    execute_job(spec, &name, &quadrant, &CancelToken::new())
                };
                let output = maybe_span(tracer, "serve.execute", id, |t| {
                    if spec.prev.is_some() {
                        maybe_span(t, "core.warm", id, run)
                    } else {
                        run(t)
                    }
                })
                .map_err(|e| e.to_string())?;
                let output = Arc::new(output);
                cache.fulfil(key, Ok(Arc::clone(&output)));
                ("miss", output)
            }
            Lookup::DiskHit(_) | Lookup::Coalesced(_) => {
                return Err("a serial replay cannot coalesce".to_owned())
            }
        };
        let plan = PlanResponse {
            cache: tag.to_owned(),
            key,
            name: output.name.clone(),
            report: output.report.clone(),
            assignment: output.assignment.clone(),
            seconds: 0.0,
        };
        let response = if batch {
            Response::BatchItem {
                seq: u32::try_from(seq).expect("four jobs"),
                result: Ok(plan),
            }
        } else {
            Response::Plan(plan)
        };
        std::hint::black_box(maybe_span(tracer, "serve.encode", id, |_| {
            encode_response(&response)
        }));
    }
    Ok(())
}

/// The traced run: the live nominal phase for latencies, counters and
/// memory, then the same request stream replayed in process twice,
/// untraced and traced, for per-layer self times and tracing overhead.
///
/// # Errors
///
/// As [`run`], or when the replay disagrees with the daemon.
pub fn run_traced(
    bin: &Path,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut session = set_up(bin, seed)?;
    let warm = session.sent.clone();
    let before = session.client.status()?;
    let rss_before = session.daemon.memory("VmRSS")?;
    let mut slot = 0usize;
    let nominal = nominal(&mut session, &mut slot, seconds)?;
    let after = session.client.status()?;
    let rss_after = session.daemon.memory("VmRSS")?;
    let served = session.client.inbox().served.clone();
    stop(session)?;

    let untraced = replay(&warm, &nominal.reqs, &served, None)?;
    let traced = replay(&warm, &nominal.reqs, &served, Some(tracer))?;
    let self_times = tracer.self_times();
    let per_req = |name: &str| -> Vec<f64> {
        (0..nominal.reqs.len())
            .map(|i| tracer.self_ns(&self_times, name, i as u64) as f64)
            .collect()
    };
    let warm_ms: Vec<f64> = nominal
        .reqs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.class == Class::Replan)
        .map(|(i, _)| tracer.total_ns("core.warm", i as u64) as f64 / 1e6)
        .collect();
    let execute_ms: Vec<f64> = nominal
        .reqs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.class.runs_worker())
        .map(|(i, _)| tracer.total_ns("serve.execute", i as u64) as f64 / 1e6)
        .collect();
    let queue_wait: Vec<f64> = nominal
        .reqs
        .iter()
        .zip(&nominal.timings)
        .enumerate()
        .filter(|(_, (r, _))| r.class.runs_worker())
        .map(|(i, (_, t))| {
            t.latency_ms().unwrap_or(f64::INFINITY)
                - tracer.total_ns("serve.request", i as u64) as f64 / 1e6
        })
        .collect();
    let us = |v: Vec<f64>| median(&v) / 1e3;
    let submitted = (after.submitted - before.submitted) as f64;
    let requests = nominal.reqs.len() as f64;
    let late: Vec<f64> = nominal.timings.iter().map(Timing::late_ms).collect();

    let mut metrics = Metrics::new();
    metrics.put("io.parse_ms", median(&per_req("io.parse")) / 1e6, "ms");
    metrics.put("core.warm_ms", median(&warm_ms), "ms");
    metrics.put("serve.decode_us", us(per_req("serve.decode")), "us");
    metrics.put("serve.key_us", us(per_req("serve.key")), "us");
    metrics.put("serve.lookup_us", us(per_req("serve.lookup")), "us");
    metrics.put("serve.encode_us", us(per_req("serve.encode")), "us");
    metrics.put("serve.execute_ms", median(&execute_ms), "ms");
    metrics.put("serve.queue_wait_ms", median(&queue_wait), "ms");
    metrics.put(
        "serve.hit_ratio",
        (after.cache_hits - before.cache_hits) as f64 / submitted,
        "ratio",
    );
    metrics.put(
        "serve.coalesced",
        (after.coalesced - before.coalesced) as f64,
        "count",
    );
    metrics.put(
        "serve.rejected",
        (after.rejected - before.rejected) as f64,
        "count",
    );
    metrics.put(
        "serve.rss_bytes_per_req",
        (rss_after as f64 - rss_before as f64) / requests,
        "B",
    );
    metrics.put("bench.gen_late_ms", tail_or_max(&late), "ms");
    metrics.put(
        "bench.trace_overhead_pct",
        100.0 * (traced - untraced) / untraced,
        "%",
    );
    Ok(Outcome {
        attempted: nominal.reqs.len() as u64,
        failed: nominal.failed(),
        metrics,
        notes: vec![format!(
            "nominal: {}, {} requests replayed",
            nominal.describe(),
            nominal.reqs.len()
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_due_time_through_a_generator_stall() {
        // Requests due every 1 ms; the generator stalls 10 ms before the
        // third, so it and the next go out late. Each is answered 0.5 ms
        // after it was sent.
        let sent = [0.000, 0.001, 0.012, 0.012, 0.012];
        let timings: Vec<Timing> = sent
            .iter()
            .enumerate()
            .map(|(i, &s)| Timing {
                due: i as f64 * 0.001,
                sent: s,
                done: Some(s + 0.0005),
            })
            .collect();
        let late: Vec<f64> = timings.iter().map(Timing::late_ms).collect();
        let latency: Vec<f64> = timings.iter().map(|t| t.latency_ms().unwrap()).collect();
        for (got, want) in late.iter().zip([0.0, 0.0, 10.0, 9.0, 8.0]) {
            assert!((got - want).abs() < 1e-9, "{late:?}");
        }
        // The stall is charged to the requests behind it, not hidden.
        for (got, want) in latency.iter().zip([0.5, 0.5, 10.5, 9.5, 8.5]) {
            assert!((got - want).abs() < 1e-9, "{latency:?}");
        }
        let unanswered = Timing {
            due: 0.0,
            sent: 0.0,
            done: None,
        };
        assert_eq!(unanswered.latency_ms(), None);
    }

    #[test]
    fn a_queue_that_never_drains_is_a_growing_backlog() {
        // Eight cycles at 1 ms per slot; only the large-miss slot runs a
        // worker. Draining: each takes 30 ms and the next is 100 ms away.
        let slots = 8 * CYCLE;
        let worker = |i: usize| slot_class(i) == Class::LargeMiss;
        let at = |i: usize| i as f64 * 0.001;
        let draining: Vec<(Timing, bool)> = (0..slots)
            .map(|i| {
                (
                    Timing {
                        due: at(i),
                        sent: at(i),
                        done: Some(at(i) + 0.030),
                    },
                    worker(i),
                )
            })
            .collect();
        assert!(!backlog_grows(&draining));
        // Growing: each takes 130 ms of a serial worker, so the k-th
        // large miss finishes at 130 ms × (k + 1) and waits ever longer.
        let growing: Vec<(Timing, bool)> = (0..slots)
            .map(|i| {
                let done = 0.130 * ((i / CYCLE) as f64 + 1.0);
                (
                    Timing {
                        due: at(i),
                        sent: at(i),
                        done: Some(done),
                    },
                    worker(i),
                )
            })
            .collect();
        assert!(backlog_grows(&growing));
        // Hits (not worker requests) never count towards the backlog.
        let hits: Vec<(Timing, bool)> = growing.iter().map(|(t, _)| (*t, false)).collect();
        assert!(!backlog_grows(&hits));
    }

    #[test]
    fn the_cycle_has_one_large_miss_one_replan_and_six_table1_misses() {
        let classes: Vec<Class> = (0..CYCLE).map(slot_class).collect();
        let count = |c: Class| classes.iter().filter(|&&x| x == c).count();
        assert_eq!(count(Class::LargeMiss), 1);
        assert_eq!(count(Class::Replan), 1);
        assert_eq!(count(Class::Table1Miss), TABLE1_SLOTS.len());
        assert_eq!(slot_class(CYCLE + LARGE_SLOT), Class::LargeMiss);
    }

    fn stream_bytes(seed: u64) -> Vec<String> {
        let mut stream = Stream::new(seed);
        let mut lines: Vec<String> = stream
            .warm_up()
            .iter()
            .map(|r| r.line.to_string())
            .collect();
        stream.prev = vec![Some("assignment x\norder 1\n".to_owned()); 4];
        lines.extend(stream.slots(0, CYCLE).iter().map(|r| r.line.to_string()));
        lines
    }

    #[test]
    fn the_same_seed_yields_the_same_request_bytes() {
        assert_eq!(stream_bytes(7), stream_bytes(7));
        assert_ne!(stream_bytes(7), stream_bytes(8));
    }
}
