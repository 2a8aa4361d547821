//! The `serve` workload: a one-worker `Server` admits a fixed set of
//! small buffer-pipeline tenants, round after round, and serves each
//! round in two phases:
//!
//! * saturation — a closed loop in which the client feeds every tenant
//!   as fast as it can while keeping each tenant's outstanding tokens
//!   under its in-flight limit;
//! * paced — an open loop offering tokens at a fixed rate well below
//!   saturation, each token timed from when it was due to when
//!   `poll_outputs` returned it.
//!
//! One client thread and one pool worker: at most two busy threads.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use gals_rt::DEFAULT_STREAM_CAPACITY;
use gals_serve::{DeploymentHandle, Server, ServerOptions};
use isochron::{library, Design};
use moc::Value;

use crate::trace::{median, quantile, Tracer};
use crate::{cpu, statics, Checks, Outcome, Rng};

const STAGES: usize = 3;
const INPUT: &str = "p0";
const OUTPUT: &str = "p3";
/// Tokens one feed call may carry in the saturation phase.
const CHUNK: usize = 32;
/// Offered rate of the paced phase, in tokens per second over all
/// tenants: well below saturation (about 165k tokens per CPU-second), and
/// a rate one client thread sustains while it feeds 16 tenants one token
/// per call.  At 100k/s it falls behind and its backlog sets the latency;
/// at 10k/s the worker parks between tokens and the wake of an idle
/// virtual CPU sets it.
const PACED_RATE: f64 = 60_000.0;
/// A tenant's tokens fed and not yet polled stay below its ingress plus
/// egress capacity.  `DeploymentHandle::feed` has no timeout: a client
/// that feeds past what the tenant can hold without polling in between
/// blocks for ever (a 1-worker server returns from a 132-token feed to a
/// `pipe3` tenant; a 136-token one had not returned after 3 s).
const LIMIT: usize = 2 * DEFAULT_STREAM_CAPACITY - 1;
/// How long a round or a drain may take before it counts as stalled.
const STALL: Duration = Duration::from_secs(60);
/// Tokens of the tenant replayed against the synchronous reference.
const CONFORMANCE_TOKENS: usize = 1_000;

/// The shape of one round.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub tenants: usize,
    /// Tokens per tenant in the saturation phase.
    pub saturation: usize,
    /// Tokens over all tenants in the paced phase.
    pub paced: usize,
}

pub const FULL: Sizes = Sizes {
    tenants: 16,
    saturation: 4_000,
    paced: 40_000,
};

/// The `i`-th token of tenant `t`: the tenant and the position are in
/// the value, so a token delivered to the wrong tenant or out of order
/// cannot match.
fn token(seed: u64, t: usize, i: usize) -> Value {
    let noise = Rng::new(seed ^ ((t as u64) << 40) ^ i as u64).below(1 << 16) as i64;
    Value::Int(((t as i64) << 48) | ((i as i64) << 16) | noise)
}

struct Tenant {
    handle: DeploymentHandle,
    fed: usize,
    polled: usize,
    /// Due times of the paced tokens fed and not yet polled.
    in_flight: VecDeque<Instant>,
    /// Due times of the paced tokens due and not yet fed.
    waiting: VecDeque<Instant>,
}

/// The client side of the round: feeds and polls, timing each call when
/// traced, and checks every polled token.
struct Client<'a> {
    seed: u64,
    tr: &'a mut Tracer,
    checks: &'a mut Checks,
    polls: u64,
    empty_polls: u64,
}

impl Client<'_> {
    fn feed(&mut self, t: usize, tenant: &mut Tenant, n: usize) {
        let seed = self.seed;
        let values = (tenant.fed..tenant.fed + n).map(|i| token(seed, t, i));
        let start = self.tr.on().then(Instant::now);
        let fed = tenant.handle.feed(INPUT, values);
        if let Some(start) = start {
            self.tr
                .add("gals-serve.feed", start.elapsed().as_secs_f64() * 1e6);
        }
        match fed {
            Ok(()) => tenant.fed += n,
            Err(e) => self.checks.fail(&format!("t{t}: feed refused: {e}")),
        }
    }

    /// Polls one tenant; returns how many tokens arrived and when.
    fn poll(&mut self, t: usize, tenant: &mut Tenant) -> (usize, Instant) {
        let start = Instant::now();
        let flows = tenant.handle.poll_outputs();
        let now = Instant::now();
        if self.tr.on() {
            self.tr
                .add("gals-serve.poll", (now - start).as_secs_f64() * 1e6);
        }
        self.polls += 1;
        let values = flows.get(OUTPUT).map_or(&[][..], |v| v.as_slice());
        if values.is_empty() {
            self.empty_polls += 1;
        }
        let first = tenant.polled;
        let in_order = values
            .iter()
            .enumerate()
            .all(|(k, v)| *v == token(self.seed, t, first + k));
        self.checks.expect(in_order && flows.len() <= 1, || {
            format!("t{t}: tokens {first}.. are not its own stream in order")
        });
        tenant.polled += values.len();
        (values.len(), now)
    }
}

fn admit(
    server: &Server,
    t: usize,
    tr: &mut Tracer,
    checks: &mut Checks,
    verifies: &mut Vec<f64>,
    setups: &mut Vec<f64>,
) -> Option<Tenant> {
    let start = cpu::thread();
    let design: Design = match tr.span("core.compose", |_| library::buffer_pipeline_design(STAGES))
    {
        Ok(design) => design,
        Err(e) => {
            checks.fail(&format!("pipe{STAGES} does not compose: {e}"));
            return None;
        }
    };
    let verdict = design.verdict();
    verifies.push(cpu::thread() - start);
    checks.expect(verdict.isochronous, || {
        format!("pipe{STAGES} must verify:\n{verdict}")
    });
    let admit_start = cpu::thread();
    let handle = tr.span("gals-serve.admit", |_| {
        server.admit(format!("t{t}"), &design)
    });
    setups.push(cpu::thread() - admit_start);
    if tr.on() {
        // Admission's parts, each measured on its own on the same design.
        statics::time_phases(&design, tr);
        tr.apart("apart.admission", |tr| {
            tr.span("gals-rt.capacity", |_| {
                std::hint::black_box(design.capacity_analysis().is_ok())
            });
            tr.span("gals-rt.predict", |_| {
                std::hint::black_box(design.performance_prediction().is_ok())
            });
            tr.span("gals-rt.stage", |_| {
                std::hint::black_box(design.stage_derived().is_ok())
            });
            std::hint::black_box(statics::compile(&design, tr).len());
        });
    }
    match handle {
        Ok(handle) => Some(Tenant {
            handle,
            fed: 0,
            polled: 0,
            in_flight: VecDeque::new(),
            waiting: VecDeque::new(),
        }),
        Err(e) => {
            checks.fail(&format!("t{t}: admission refused: {e}"));
            None
        }
    }
}

fn worker_counts(server: &Server) -> (u64, u64) {
    server
        .worker_stats()
        .iter()
        .fold((0, 0), |(d, p), w| (d + w.dispatches, p + w.parks))
}

/// Serves one tenant a short stream with the same client and replays its
/// outcome against the synchronous reference (untimed: the replay is far
/// slower than serving).
fn conformance(server: &Server, seed: u64, tr: &mut Tracer, checks: &mut Checks) {
    let (mut verifies, mut setups) = (Vec::new(), Vec::new());
    let Some(mut tenant) = admit(server, 0, tr, checks, &mut verifies, &mut setups) else {
        return;
    };
    let mut client = Client {
        seed,
        tr,
        checks,
        polls: 0,
        empty_polls: 0,
    };
    let deadline = Instant::now() + STALL;
    while tenant.polled < CONFORMANCE_TOKENS && Instant::now() < deadline {
        let room = LIMIT - (tenant.fed - tenant.polled);
        let n = room.min(CHUNK).min(CONFORMANCE_TOKENS - tenant.fed);
        if n > 0 {
            client.feed(0, &mut tenant, n);
        }
        client.poll(0, &mut tenant);
    }
    let conforms = tenant
        .handle
        .finish(STALL)
        .map_err(|e| e.to_string())
        .and_then(|outcome| outcome.check_conformance().map_err(|e| e.to_string()))
        .map(|report| report.is_isochronous());
    checks.expect(conforms == Ok(true), || {
        format!("pipe{STAGES} served does not conform to its synchronous reference: {conforms:?}")
    });
}

pub fn run_sized(seed: u64, seconds: f64, sizes: Sizes, tr: &mut Tracer) -> Outcome {
    let mut checks = Checks::default();
    let server = match Server::start(ServerOptions::new(1, 32)) {
        Ok(server) => server,
        Err(e) => {
            checks.fail(&format!("the server does not start: {e}"));
            return Outcome {
                checks,
                metrics: BTreeMap::new(),
            };
        }
    };
    conformance(&server, seed, &mut Tracer::new(false), &mut checks);
    let mut rng = Rng::new(seed);
    let interval = Duration::from_secs_f64(1.0 / PACED_RATE);
    let (mut verifies, mut setups, mut saturations) = (Vec::new(), Vec::new(), Vec::new());
    // Per-round quantiles only, so memory does not grow with the rounds.
    let (mut latencies, mut lateness) = (Vec::new(), Vec::new());
    let (mut p50s, mut p99s, mut late_p99s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut polls, mut empty_polls, mut dispatches, mut parks, mut served) = (0, 0, 0, 0, 0);
    let round_tokens = sizes.tenants * sizes.saturation + sizes.paced;
    let start = Instant::now();
    while served == 0 || start.elapsed().as_secs_f64() < seconds {
        checks.attempted += round_tokens as u64;
        let mut tenants: Vec<Tenant> = Vec::new();
        for t in 0..sizes.tenants {
            match admit(&server, t, tr, &mut checks, &mut verifies, &mut setups) {
                Some(tenant) => tenants.push(tenant),
                None => break,
            }
        }
        if tenants.len() < sizes.tenants {
            checks.fail_ops(round_tokens as u64, "a round could not admit its tenants");
            break;
        }
        let assignment: Vec<usize> = (0..sizes.paced)
            .map(|_| rng.below(sizes.tenants as u64) as usize)
            .collect();
        let (dispatches0, parks0) = worker_counts(&server);
        let mut client = Client {
            seed,
            tr: &mut *tr,
            checks: &mut checks,
            polls: 0,
            empty_polls: 0,
        };
        let deadline = Instant::now() + STALL;

        // Saturation: closed loop.
        let target = sizes.saturation;
        let phase_cpu = cpu::process();
        let mut open = sizes.tenants;
        while open > 0 && Instant::now() < deadline {
            open = 0;
            for (t, tenant) in tenants.iter_mut().enumerate() {
                let room = LIMIT - (tenant.fed - tenant.polled);
                let n = room.min(CHUNK).min(target - tenant.fed);
                if n > 0 {
                    client.feed(t, tenant, n);
                }
                client.poll(t, tenant);
                if tenant.polled < target {
                    open += 1;
                }
            }
        }
        saturations.push((sizes.tenants * target) as f64 / (cpu::process() - phase_cpu));

        // Paced: open loop at a fixed rate; a token waits in the
        // generator while its tenant is at the in-flight limit, and its
        // latency keeps counting from when it was due.
        let paced_start = Instant::now();
        latencies.clear();
        lateness.clear();
        let (mut released, mut delivered) = (0usize, 0usize);
        while delivered < sizes.paced && Instant::now() < deadline {
            let now = Instant::now();
            while released < sizes.paced && paced_start + interval * released as u32 <= now {
                let due = paced_start + interval * released as u32;
                tenants[assignment[released]].waiting.push_back(due);
                released += 1;
            }
            for (t, tenant) in tenants.iter_mut().enumerate() {
                let room = LIMIT - (tenant.fed - tenant.polled);
                let n = room.min(tenant.waiting.len());
                if n > 0 {
                    let fed_at = Instant::now();
                    for due in tenant.waiting.drain(..n) {
                        lateness.push((fed_at - due).as_secs_f64() * 1e6);
                        tenant.in_flight.push_back(due);
                    }
                    client.feed(t, tenant, n);
                }
                let (arrived, at) = client.poll(t, tenant);
                for due in tenant
                    .in_flight
                    .drain(..arrived.min(tenant.in_flight.len()))
                {
                    latencies.push((at - due).as_secs_f64() * 1e6);
                }
                delivered += arrived;
            }
        }
        p50s.push(median(&latencies));
        p99s.push(quantile(&latencies, 0.99));
        late_p99s.push(quantile(&lateness, 0.99));
        polls += client.polls;
        empty_polls += client.empty_polls;
        let (dispatches1, parks1) = worker_counts(&server);
        dispatches += dispatches1 - dispatches0;
        parks += parks1 - parks0;
        served += round_tokens;
        if Instant::now() >= deadline {
            checks.fail_ops(round_tokens as u64, "a round stalled");
            break;
        }

        for (t, tenant) in tenants.into_iter().enumerate() {
            let fed = tenant.fed;
            match tenant.handle.finish(STALL) {
                Ok(outcome) => checks.expect(outcome.flow(OUTPUT).len() == fed, || {
                    format!(
                        "t{t}: {} tokens out for {fed} in",
                        outcome.flow(OUTPUT).len()
                    )
                }),
                Err(e) => checks.fail(&format!("t{t} did not finish: {e}")),
            }
        }
    }
    drop(server);

    let mut metrics = BTreeMap::new();
    metrics.insert("verify_s", median(&verifies));
    metrics.insert("setup_s", median(&setups));
    metrics.insert("ops_per_s", median(&saturations));
    if tr.on() {
        let admits = setups.len() as f64;
        statics::layers(tr, admits, &mut metrics);
        let admit = tr.total("gals-serve.admit") / admits;
        let stage = tr.total("gals-rt.stage") / admits;
        let parts = metrics["gals-rt.capacity_s"] + metrics["gals-rt.predict_s"] + stage;
        metrics.insert("gals-serve.admit_s", admit);
        metrics.insert("gals-rt.stage_s", stage);
        metrics.insert("gals-serve.admit_over_parts", admit / parts);
        let (feed_sum, feeds) = tr.sum("gals-serve.feed");
        let (poll_sum, poll_count) = tr.sum("gals-serve.poll");
        metrics.insert("gals-serve.feed_us", feed_sum / feeds.max(1) as f64);
        metrics.insert("gals-serve.poll_us", poll_sum / poll_count.max(1) as f64);
        metrics.insert(
            "gals-serve.empty_poll_share",
            empty_polls as f64 / polls as f64,
        );
        metrics.insert(
            "gals-rt.dispatches_per_token",
            dispatches as f64 / served as f64,
        );
        metrics.insert("gals-rt.parks_per_token", parks as f64 / served as f64);
        metrics.insert("serve.latency_p50_us", median(&p50s));
        metrics.insert("serve.latency_p99_us", median(&p99s));
        metrics.insert("serve.generator_late_us", median(&late_p99s));
    }
    Outcome { checks, metrics }
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    run_sized(seed, seconds, FULL, tr)
}
