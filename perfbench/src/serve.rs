//! `serve-cifar10`: the Table 2 CIFAR-10 net behind `spg_serve::Server`
//! under open-loop Poisson load.
//!
//! One submitter thread sends each request at its due time with
//! `try_submit` and never waits for replies; one collector thread waits
//! for them. Latency runs from the due time: (submit - due) plus the
//! server's own `Response.latency`, so a stalled generator or server
//! charges every request it delays. A refused or failed request misses
//! every latency limit.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use spg_convnet::data::Dataset;
use spg_convnet::{Engine, Network};
use spg_core::autotune::{Framework, TuningMode};
use spg_core::config::NetworkDescription;
use spg_core::schedule::LayerPlan;
use spg_serve::{ServeConfig, ServeError, Server};
use spg_tensor::Tensor;
use spg_workloads::networks;
use spg_workloads::table2::Benchmark;

use crate::layers;
use crate::load::poisson_schedule;
use crate::trace::Tracer;
use crate::{stats, Outcome, Run};

/// Fixed `lo` rate: about 15 % of the ~2,000 req/s at which this
/// workload saturated on the reference host (2 logical cores, AVX-512),
/// frozen as req/s.
pub const LO_RPS: f64 = 300.0;
/// Fixed `hi` rate: about 30 % of that saturation rate. A refused request
/// at a fixed rate is a failed operation, and the host sometimes runs at
/// half speed for tens of seconds: at 50 % of saturation that overflowed
/// the 64-deep queue in one run of forty, at 80 % its stalls of 40 ms did.
pub const HI_RPS: f64 = 600.0;
/// Rates 5 % apart from 60 % to 125 % of that saturation rate, scanned
/// upwards until one is not sustained.
pub const LADDER_RPS: [f64; 16] = [
    1200.0, 1260.0, 1325.0, 1390.0, 1460.0, 1535.0, 1610.0, 1690.0, 1775.0, 1865.0, 1960.0, 2055.0,
    2160.0, 2270.0, 2380.0, 2500.0,
];
/// The p99 latency limit of `serve.max_rps_p99_20ms`, from the due time.
pub const P99_LIMIT_MS: f64 = 20.0;
/// Share of a ladder rate's requests the full queue may refuse before
/// the rate counts as not sustained: one host stall longer than the
/// queue's depth refuses a burst without the server falling behind.
const MAX_REFUSED: f64 = 0.005;

const WORKERS: usize = 2;
const MAX_BATCH: usize = 8;
const MAX_DELAY: Duration = Duration::from_millis(1);
/// Distinct inputs whose reference logits are computed up front; request
/// `i` sends input `i % INPUTS`.
const INPUTS: usize = 256;
const SETUP_REPS: usize = 21;
const CLASSES: usize = 10;

/// Threads the workload keeps busy at once: the workers, the submitter
/// and the collector.
pub const THREADS: usize = WORKERS + 2;

/// Share of `--seconds` given to each phase.
const LO_SHARE: f64 = 0.2;
const HI_SHARE: f64 = 0.2;
const CAPACITY_SHARE: f64 = 0.3;
const RUNG_SHARE: f64 = 0.04;

fn description() -> Result<NetworkDescription, String> {
    NetworkDescription::parse(&networks::description(Benchmark::Cifar10)).map_err(|e| e.to_string())
}

/// Parse, build and forward-plan at cores = 1, as `spgcnn serve` does.
fn planned_engine(
    seed: u64,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<(Engine, Vec<(usize, LayerPlan)>), String> {
    let mut net = {
        let _s = tracer.span(|| "workloads.build".into(), parent);
        description()?.build(seed).map_err(|e| e.to_string())?
    };
    let plans = {
        let _s = tracer.span(|| "autotune.plan".into(), parent);
        Framework::new(1, TuningMode::Heuristic, 1)
            .try_plan_network_forward(&mut net)
            .map_err(|e| e.to_string())?
    };
    let engine =
        Engine::builder().network(net).workers(WORKERS).build().map_err(|e| e.to_string())?;
    Ok((engine, plans))
}

fn start(
    engine: Engine,
    plans: &[(usize, LayerPlan)],
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<Server, String> {
    let _s = tracer.span(|| "serve.start".into(), parent);
    let config = ServeConfig {
        workers: WORKERS,
        max_batch: MAX_BATCH,
        max_delay: MAX_DELAY,
        ..ServeConfig::default()
    };
    Server::start(engine.into_shared(), plans, config).map_err(|e| e.to_string())
}

/// One timed set-up: build, plan and start the server.
fn setup(seed: u64, tracer: &Tracer) -> Result<(Server, Duration), String> {
    let begin = Instant::now();
    let top = tracer.span(|| "setup".into(), None);
    let (engine, plans) = planned_engine(seed, tracer, top.id())?;
    let server = start(engine, &plans, tracer, top.id())?;
    Ok((server, begin.elapsed()))
}

/// Inputs, labels and the reference logits `Engine::forward` gives.
struct Reference {
    inputs: Vec<Vec<f32>>,
    labels: Vec<usize>,
    logits: Vec<Vec<f32>>,
}

fn reference(seed: u64) -> Result<(Reference, Dataset, Network), String> {
    let quiet = Tracer::new(false);
    let (engine, _) = planned_engine(seed, &quiet, None)?;
    let desc = description()?;
    let data = Dataset::synthetic(desc.input, CLASSES, INPUTS, 0.15, seed);
    let inputs: Vec<Vec<f32>> =
        (0..data.len()).map(|i| data.image(i).as_slice().to_vec()).collect();
    let logits = inputs
        .iter()
        .map(|x| engine.forward(x).map(Tensor::into_vec))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let labels = (0..data.len()).map(|i| data.label(i)).collect();
    Ok((Reference { inputs, labels, logits }, data, engine.into_network()))
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
struct Phase {
    sent: usize,
    /// Latency from due time per request (ms); failures are infinite.
    latency_ms: Vec<f64>,
    /// Server-side `Response.latency` of completed requests (ms).
    server_ms: Vec<f64>,
    /// Duration of each `try_submit` call (µs).
    admit_us: Vec<f64>,
    /// How late the generator submitted: submit - due (ms).
    lag_ms: Vec<f64>,
    rejected: usize,
    /// Timed-out, faulted or disconnected requests.
    errored: usize,
    /// Completed responses whose logits differ from the reference.
    mismatched: usize,
    batch_total: usize,
    loss_total: f64,
    completed: usize,
    /// From the phase start to the last completion.
    span: Duration,
}

impl Phase {
    fn failed(&self) -> usize {
        self.rejected + self.errored + self.mismatched
    }

    fn p(&self, pct: f64) -> f64 {
        stats::percentile_of(&self.latency_ms, pct)
    }

    /// p99 of the generator's lag (0 with no requests).
    fn lag_p99(&self) -> f64 {
        if self.lag_ms.is_empty() {
            0.0
        } else {
            stats::percentile_of(&self.lag_ms, 99.0)
        }
    }

    /// Whether the backlog grew: the later half of the requests waited
    /// clearly longer than the earlier half.
    fn backlog_grew(&self) -> bool {
        let half = self.latency_ms.len() / 2;
        if half == 0 {
            return false;
        }
        let (a, b) = self.latency_ms.split_at(half);
        stats::median(b) > 1.5 * stats::median(a) + 1.0
    }

    /// Served without a growing backlog: every reply correct, at most
    /// [`MAX_REFUSED`] of the requests refused by the full queue, and the
    /// later half of the requests not waiting clearly longer.
    fn sustained(&self) -> bool {
        self.errored == 0
            && self.mismatched == 0
            && self.rejected as f64 <= MAX_REFUSED * self.sent as f64
            && !self.backlog_grew()
    }

    /// Meets the p99 limit with nothing refused and no growing backlog.
    fn within_limit(&self) -> bool {
        self.failed() == 0
            && self.sent >= 100
            && self.p(99.0) <= P99_LIMIT_MS
            && !self.backlog_grew()
    }

    /// Adds `other`'s requests to this phase's; spans add up, so the
    /// achieved rate stays completed requests over active time.
    fn absorb(&mut self, other: Phase) {
        self.sent += other.sent;
        self.latency_ms.extend(other.latency_ms);
        self.server_ms.extend(other.server_ms);
        self.admit_us.extend(other.admit_us);
        self.lag_ms.extend(other.lag_ms);
        self.rejected += other.rejected;
        self.errored += other.errored;
        self.mismatched += other.mismatched;
        self.batch_total += other.batch_total;
        self.loss_total += other.loss_total;
        self.completed += other.completed;
        self.span += other.span;
    }

    fn achieved_rps(&self) -> f64 {
        self.completed as f64 / self.span.as_secs_f64().max(1e-9)
    }

    fn summary(&self, name: &str) -> String {
        let n = self.latency_ms.len();
        let tail = stats::supported_tail(n);
        let at = |p: f64| if n > 0 { self.p(p) } else { f64::NAN };
        format!(
            "{name}: n={n} p50={:.3} ms p99={:.3} ms tail=p{} ({:.3} ms) rejected={} errored={} \
             mismatched={} mean_batch={:.2} achieved={:.1} req/s gen_lag_p99={:.3} ms{}",
            at(50.0),
            at(99.0),
            tail.map_or("-".to_string(), |p| p.to_string()),
            tail.map_or(f64::NAN, at),
            self.rejected,
            self.errored,
            self.mismatched,
            self.batch_total as f64 / self.completed.max(1) as f64,
            self.achieved_rps(),
            self.lag_p99(),
            if self.lag_dominated() { " LAG-DOMINATED (invalid)" } else { "" },
        )
    }

    /// The generator, not the server, set the tail: its p99 lag is over
    /// half the p99 latency.
    fn lag_dominated(&self) -> bool {
        !self.latency_ms.is_empty() && self.lag_p99() > 0.5 * self.p(99.0)
    }
}

/// A submitted request travelling from the submitter to the collector.
struct InFlight {
    index: usize,
    due: Instant,
    submitted: Instant,
    admitted: Instant,
    pending: spg_serve::PendingResponse,
}

/// Offers `rate` req/s for `duration` and collects every reply.
fn run_phase(
    server: &Server,
    refs: &Reference,
    seed: u64,
    rate: f64,
    duration: Duration,
    tracer: &Tracer,
    name: &str,
) -> Phase {
    let schedule = poisson_schedule(seed, rate, duration);
    let top = tracer.span(|| format!("serve.phase.{name}"), None);
    let parent = top.id();
    let origin = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = mpsc::channel::<InFlight>();
    let mut phase = Phase { sent: schedule.len(), ..Phase::default() };
    let mut refused: Vec<(usize, Instant, Instant, bool)> = Vec::new();
    std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            for (index, offset) in schedule.iter().enumerate() {
                let due = origin + *offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let input = refs.inputs[index % refs.inputs.len()].clone();
                let submitted = Instant::now();
                let result = server.try_submit(input);
                let admitted = Instant::now();
                match result {
                    Ok(pending) => {
                        let sent = InFlight { index, due, submitted, admitted, pending };
                        tx.send(sent).expect("the collector outlives the submitter");
                    }
                    Err(e) => refused.push((
                        index,
                        due,
                        submitted,
                        matches!(e, ServeError::Rejected { .. }),
                    )),
                }
            }
            drop(tx);
        });
        for f in rx {
            let req = Some(f.index as u64);
            phase.admit_us.push((f.admitted - f.submitted).as_secs_f64() * 1e6);
            let lag = f.submitted.saturating_duration_since(f.due);
            phase.lag_ms.push(lag.as_secs_f64() * 1e3);
            match f.pending.wait() {
                Ok(r) => {
                    let done = f.submitted + r.latency;
                    phase.latency_ms.push((lag + r.latency).as_secs_f64() * 1e3);
                    phase.server_ms.push(r.latency.as_secs_f64() * 1e3);
                    phase.batch_total += r.batch_size;
                    phase.completed += 1;
                    phase.span = phase.span.max(done.saturating_duration_since(origin));
                    let k = f.index % refs.inputs.len();
                    if r.logits != refs.logits[k] {
                        phase.mismatched += 1;
                    }
                    let logits = Tensor::from_vec(r.logits);
                    phase.loss_total +=
                        f64::from(Network::loss_and_gradient(&logits, refs.labels[k]).0);
                    let id = tracer.record("serve.request", parent, req, f.due, done);
                    tracer.record("serve.try_submit", Some(id), req, f.submitted, f.admitted);
                }
                Err(_) => {
                    phase.errored += 1;
                    phase.latency_ms.push(f64::INFINITY);
                    tracer.record("serve.request", parent, req, f.due, Instant::now());
                }
            }
        }
        submitter.join().expect("the submitter thread does not panic");
    });
    for (index, due, submitted, rejected) in refused {
        phase.lag_ms.push(submitted.saturating_duration_since(due).as_secs_f64() * 1e3);
        phase.latency_ms.push(f64::INFINITY);
        if rejected {
            phase.rejected += 1;
        } else {
            phase.errored += 1;
        }
        tracer.record("serve.try_submit", parent, Some(index as u64), submitted, submitted);
    }
    phase
}

/// Requests kept outstanding by the capacity phase: enough to hand every
/// worker a full micro-batch while the next ones queue, and fewer than
/// the queue holds, so none is refused.
const CAPACITY_WINDOW: usize = 2 * WORKERS * MAX_BATCH;

/// Slices of the capacity phase; the reported capacity is the median of
/// their completion rates, so one host stall moves one slice only.
const CAPACITY_SLICES: usize = 6;

/// Closed-loop capacity: keeps [`CAPACITY_WINDOW`] requests outstanding
/// for `duration` and returns the median completed requests per second
/// over [`CAPACITY_SLICES`] equal slices, and how many requests failed or
/// replied differently from the reference.
fn run_capacity(
    server: &Server,
    refs: &Reference,
    duration: Duration,
    tracer: &Tracer,
) -> (f64, usize) {
    let _s = tracer.span(|| "serve.phase.capacity".into(), None);
    let start = Instant::now();
    let slice = duration / CAPACITY_SLICES as u32;
    let mut bad = 0;
    // First and last completion instant and the count, per slice.
    let mut slices: [Option<(Instant, Instant, usize)>; CAPACITY_SLICES] = [None; CAPACITY_SLICES];
    // One thread both submits and waits: it tops the window up, then
    // waits for the oldest reply, so the generator takes one core's
    // share of scheduling instead of two.
    let mut window = std::collections::VecDeque::with_capacity(CAPACITY_WINDOW);
    let mut index = 0;
    loop {
        while window.len() < CAPACITY_WINDOW && start.elapsed() < duration {
            let input = refs.inputs[index % refs.inputs.len()].clone();
            match server.submit_timeout(input, Duration::from_secs(5)) {
                Ok(p) => window.push_back((index, p)),
                Err(_) => bad += 1,
            }
            index += 1;
        }
        let Some((i, pending)) = window.pop_front() else { break };
        match pending.wait() {
            Ok(r) if r.logits == refs.logits[i % refs.inputs.len()] => {
                let now = Instant::now();
                let k = ((now - start).as_nanos() / slice.as_nanos().max(1)) as usize;
                // Replies drained after the phase ends count in no slice.
                if let Some(s) = slices.get_mut(k) {
                    let (first, _, n) = s.unwrap_or((now, now, 0));
                    *s = Some((first, now, n + 1));
                }
            }
            _ => bad += 1,
        }
    }
    // Completions after the first of a slice over the time they took.
    let rates: Vec<f64> = slices
        .iter()
        .flatten()
        .filter(|(first, last, n)| *n > 1 && last > first)
        .map(|(first, last, n)| (n - 1) as f64 / (*last - *first).as_secs_f64())
        .collect();
    if rates.is_empty() {
        return (0.0, bad + 1);
    }
    (stats::median(&rates), bad)
}

/// The lo and hi phases and the ladder scan.
struct Sweep {
    /// Both `lo` halves together.
    lo: Phase,
    /// The lower of the two `lo` halves' p50 latencies.
    lo_p50_ms: f64,
    hi: Phase,
    /// Closed-loop requests per second.
    capacity_rps: f64,
    /// Capacity-phase replies that failed or differed from the reference.
    capacity_bad: usize,
    /// Achieved rate at the highest ladder rate served without a growing
    /// backlog.
    sustained_rps: f64,
    /// Achieved rate at the highest fixed or ladder rate that also met
    /// the p99 limit (0 when none did).
    limit_rps: f64,
    rungs: Vec<(f64, Phase)>,
}

fn sweep(server: &Server, refs: &Reference, run: &Run, tracer: &Tracer) -> Sweep {
    let secs = run.seconds as f64;
    let phase = |seed: u64, rate: f64, share: f64, name: &str| {
        run_phase(server, refs, seed, rate, Duration::from_secs_f64(secs * share), tracer, name)
    };
    // `lo` runs in two halves, first and last, so a host slowdown within
    // the run reaches at most one of the two medians the run reports.
    let lo_first = phase(run.seed, LO_RPS, LO_SHARE / 2.0, "lo");
    let hi = phase(run.seed, HI_RPS, HI_SHARE, "hi");
    let (capacity_rps, capacity_bad) =
        run_capacity(server, refs, Duration::from_secs_f64(secs * CAPACITY_SHARE), tracer);
    let mut limit_rps: f64 = 0.0;
    let mut sustained_rps = 0.0;
    let mut rungs = Vec::new();
    // The scan ends at the second rate in a row that is not sustained, so
    // one host stall does not end it early.
    let mut misses = 0;
    for rate in LADDER_RPS {
        let rung = phase(run.seed, rate, RUNG_SHARE, "rung");
        if rung.sustained() {
            misses = 0;
            sustained_rps = rung.achieved_rps();
            if rung.within_limit() {
                limit_rps = limit_rps.max(rung.achieved_rps());
            }
        } else {
            misses += 1;
        }
        rungs.push((rate, rung));
        if misses == 2 {
            break;
        }
    }
    let lo_last = phase(run.seed ^ 1, LO_RPS, LO_SHARE / 2.0, "lo");
    for p in [&lo_first, &lo_last, &hi] {
        if p.within_limit() {
            limit_rps = limit_rps.max(p.achieved_rps());
        }
    }
    let lo_p50_ms = lo_first.p(50.0).min(lo_last.p(50.0));
    let mut lo = lo_first;
    lo.absorb(lo_last);
    Sweep { lo, lo_p50_ms, hi, capacity_rps, capacity_bad, sustained_rps, limit_rps, rungs }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let (refs, data, mut ref_net) = reference(run.seed)?;
    let mut setups = Vec::new();
    let mut server = None;
    let reps = if run.tracer.enabled() { 1 } else { SETUP_REPS };
    for rep in 0..reps {
        crate::space_setup(rep);
        if let Some(old) = server.take() {
            Server::shutdown(old);
        }
        let (s, took) = setup(run.seed, run.tracer)?;
        setups.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up ran");

    let quiet = Tracer::new(false);
    let untraced =
        if run.tracer.enabled() { Some(sweep(&server, &refs, run, &quiet)) } else { None };
    let s = sweep(&server, &refs, run, run.tracer);
    server.shutdown();

    // Refusals on the ladder are what the scan looks for; a wrong reply
    // anywhere is a failure.
    let mut out = Outcome::new((s.lo.sent + s.hi.sent) as u64);
    out.failed = (s.lo.failed() + s.hi.failed() + s.capacity_bad) as u64
        + s.rungs.iter().map(|(_, r)| (r.mismatched + r.errored) as u64).sum::<u64>();
    out.note(s.lo.summary(&format!("lo {LO_RPS} req/s")));
    out.note(s.hi.summary(&format!("hi {HI_RPS} req/s")));
    for (rate, rung) in &s.rungs {
        out.note(rung.summary(&format!("ladder {rate} req/s")));
    }
    out.note(format!(
        "capacity {:.1} req/s; sustained open-loop {:.1} req/s; within the {P99_LIMIT_MS} ms \
         p99 limit {:.1} req/s",
        s.capacity_rps, s.sustained_rps, s.limit_rps
    ));
    for (phase, name) in [(&s.lo, "lo"), (&s.hi, "hi")] {
        if phase.lag_dominated() {
            out.note(format!("{name} phase invalid: the generator's lag set the tail latency"));
        }
    }

    if !run.tracer.enabled() {
        out.note_setups(&setups);
        let completed = (s.lo.completed + s.hi.completed).max(1) as f64;
        out.e2e = vec![
            ("setup_s", stats::median(&setups)),
            ("throughput_per_s", s.capacity_rps),
            ("latency_ms", s.lo_p50_ms),
            ("loss_final", (s.lo.loss_total + s.hi.loss_total) / completed),
        ];
        return Ok(out);
    }

    let l = &mut out.layer;
    l.insert("serve.lo.p99_ms".into(), s.lo.p(99.0));
    l.insert("serve.hi.p50_ms".into(), s.hi.p(50.0));
    l.insert("serve.hi.p99_ms".into(), s.hi.p(99.0));
    l.insert("serve.max_rps_p99_20ms".into(), s.limit_rps);
    l.insert("serve.sustained_rps".into(), s.sustained_rps);
    l.insert("serve.lo.batch_mean".into(), s.lo.batch_total as f64 / s.lo.completed.max(1) as f64);
    l.insert("serve.hi.batch_mean".into(), s.hi.batch_total as f64 / s.hi.completed.max(1) as f64);
    l.insert("serve.hi.server_p99_ms".into(), stats::percentile_of(&s.hi.server_ms, 99.0));
    let admit: Vec<f64> = [&s.lo, &s.hi].iter().flat_map(|p| p.admit_us.iter().copied()).collect();
    l.insert("serve.admit_us_p99".into(), stats::percentile_of(&admit, 99.0));
    l.insert("serve.rejected".into(), (s.lo.rejected + s.hi.rejected) as f64);
    l.insert("serve.hi.gen_lag_p99_ms".into(), s.hi.lag_p99());
    if let Some(u) = untraced {
        l.insert("trace.overhead_pct".into(), (s.hi.p(50.0) / u.hi.p(50.0) - 1.0) * 100.0);
    }
    let spans = run.tracer.spans();
    let plan_ms: f64 = spans
        .iter()
        .filter(|s| s.name == "autotune.plan")
        .map(|s| s.dur().as_secs_f64() * 1e3)
        .sum();
    l.insert("autotune.plan_ms".into(), plan_ms);
    let top = run.tracer.span(|| "layers".into(), None);
    layers::pass(&mut ref_net, &data, 64, false, 1, 5, run.tracer, top.id(), &mut out.layer);
    Ok(out)
}
