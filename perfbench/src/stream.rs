//! The `stream` workload: an 8-stage buffer pipeline built from its
//! definitions, deployed with derived capacities on a one-worker pool,
//! and run to completion over a large preloaded stream, repetition after
//! repetition.  The compiled machines, the ring transport and the batch
//! scheduler do the work; the static layers take a sixth of each repetition.

use std::collections::BTreeMap;
use std::time::Instant;

use gals_rt::ExecutionMode;
use isochron::library;
use moc::Value;

use crate::trace::{median, Tracer};
use crate::{cpu, host, statics, Checks, Outcome, Rng};

const STAGES: usize = 8;
/// Tokens per repetition: enough that one run takes about half a second,
/// so thread start-up is a small share of it.
pub const TOKENS: usize = 50_000;
/// Tokens of the run replayed against the synchronous reference.
const CONFORMANCE_TOKENS: usize = 2_000;
/// One pool worker: the main thread only waits for the run, so the
/// workload keeps one core busy.
const POOL: ExecutionMode = ExecutionMode::Pool {
    workers: 1,
    quantum: 32,
};

/// Measures repetitions of `tokens` tokens each for `seconds`.
pub fn run_sized(seed: u64, seconds: f64, tokens: usize, tr: &mut Tracer) -> Outcome {
    let mut rng = Rng::new(seed);
    let values: Vec<Value> = (0..tokens)
        .map(|_| Value::Bool(rng.below(2) == 1))
        .collect();
    let input = "p0";
    let output = format!("p{STAGES}");

    let mut checks = Checks::default();
    conformance(&values[..values.len().min(CONFORMANCE_TOKENS)], &mut checks);
    let (mut verifies, mut setups, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = RunCounts::default();
    let start = Instant::now();
    while checks.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        checks.attempted += tokens as u64;
        let setup_start = cpu::thread();
        let design = match tr.span("core.compose", |_| library::buffer_pipeline_design(STAGES)) {
            Ok(design) => design,
            Err(e) => {
                checks.fail_ops(
                    tokens as u64,
                    &format!("pipe{STAGES} does not compose: {e}"),
                );
                continue;
            }
        };
        let verdict = design.verdict();
        let verify = cpu::thread() - setup_start;
        let prediction = tr.span("gals-rt.predict", |_| design.performance_prediction());
        let deployment = tr.span("gals-rt.deploy", |_| {
            let mut deployment = design.deploy_derived()?;
            if let Ok(prediction) = prediction {
                deployment.set_prediction(prediction);
            }
            deployment.set_execution_mode(POOL)?;
            Ok::<_, isochron::DesignError>(deployment)
        });
        let setup = cpu::thread() - setup_start;
        let mut deployment = match deployment {
            Ok(deployment) => deployment,
            Err(e) => {
                checks.fail_ops(tokens as u64, &format!("pipe{STAGES} does not deploy: {e}"));
                continue;
            }
        };
        checks.expect(verdict.isochronous, || {
            format!("pipe{STAGES} must verify:\n{verdict}")
        });

        deployment.feed(input, values.iter().copied());
        let (run_start, steal_start) = (Instant::now(), host::steal_seconds());
        let outcome = tr.span("gals-rt.run", |_| deployment.run());
        let wall = run_start.elapsed().as_secs_f64();
        // The steal the hypervisor took from the machine during the run:
        // the main thread only waits, so it is the pool worker's.
        let stolen = steal_start
            .zip(host::steal_seconds())
            .map_or(0.0, |(a, b)| b - a);
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                checks.fail_ops(tokens as u64, &format!("pipe{STAGES} run failed: {e}"));
                continue;
            }
        };
        checks.expect(outcome.flow(&output) == values.as_slice(), || {
            format!("the {output} flow differs from the {input} flow")
        });
        verifies.push(verify);
        setups.push(setup);
        runs.push(wall - stolen);
        if tr.on() {
            counts.add(outcome.stats(), tokens, wall);
            statics::time_phases(&design, tr);
            tr.apart("apart.capacity", |tr| {
                tr.span("gals-rt.capacity", |_| {
                    std::hint::black_box(design.capacity_analysis().is_ok())
                });
            });
            let mut machines = Vec::new();
            tr.apart("apart.compile", |tr| {
                machines = statics::compile(&design, tr)
            });
            tr.apart("apart.traced_run", |tr| {
                // The busy share comes from the deployment's own trace,
                // which slows the run: it gets a repetition of its own.
                let busy = design.deploy_derived().ok().and_then(|mut deployment| {
                    deployment.set_execution_mode(POOL).ok()?;
                    deployment.set_tracing(true);
                    deployment.feed(input, values.iter().copied());
                    let outcome = deployment.run().ok()?;
                    let stats = outcome.stats();
                    let trace = stats.trace.as_ref()?;
                    let busy: f64 = trace.components.iter().map(|c| c.busy.as_secs_f64()).sum();
                    Some(busy / stats.elapsed.as_secs_f64())
                });
                match busy {
                    Some(share) => tr.add("gals-rt.busy_share", share),
                    None => checks.fail("the traced repetition gave no trace summary"),
                }
            });
            tr.apart("apart.step", |tr| {
                let first = &mut machines[0];
                first.feed(input, values.iter().copied());
                let steps_start = Instant::now();
                let steps = first.run(2 * tokens + 2);
                tr.add(
                    "codegen.step",
                    steps_start.elapsed().as_secs_f64() * 1e9 / steps.max(1) as f64,
                );
                checks.expect(first.output("p1") == values.as_slice(), || {
                    "the bare compiled stage does not forward its input".into()
                });
            });
        }
    }

    let mut metrics = BTreeMap::new();
    metrics.insert("verify_s", median(&verifies));
    metrics.insert("setup_s", median(&setups));
    metrics.insert("ops_per_s", tokens as f64 / median(&runs));
    if tr.on() {
        let units = counts.reps as f64;
        statics::layers(tr, units, &mut metrics);
        metrics.insert("gals-rt.deploy_s", tr.total("gals-rt.deploy") / units);
        counts.layers(tr, &mut metrics);
    }
    Outcome { checks, metrics }
}

/// Replays a deployment of the design over `values` against its
/// synchronous reference (untimed: the replay is far slower than the run).
fn conformance(values: &[Value], checks: &mut Checks) {
    let conforms = library::buffer_pipeline_design(STAGES)
        .and_then(|design| design.deploy_derived())
        .map_err(|e| e.to_string())
        .and_then(|mut deployment| {
            deployment
                .set_execution_mode(POOL)
                .map_err(|e| e.to_string())?;
            deployment.feed("p0", values.iter().copied());
            let outcome = deployment.run().map_err(|e| e.to_string())?;
            let report = outcome.check_conformance().map_err(|e| e.to_string())?;
            Ok(report.is_isochronous())
        });
    checks.expect(conforms == Ok(true), || {
        format!("pipe{STAGES} does not conform to its synchronous reference: {conforms:?}")
    });
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    run_sized(seed, seconds, TOKENS, tr)
}

/// Runtime counters summed over the traced repetitions.
#[derive(Default)]
struct RunCounts {
    reps: usize,
    tokens: f64,
    run_s: f64,
    reactions: f64,
    dispatches: f64,
    parks: f64,
    blocked: f64,
}

impl RunCounts {
    fn add(&mut self, stats: &gals_rt::DeploymentStats, tokens: usize, run_s: f64) {
        self.reps += 1;
        self.tokens += tokens as f64;
        self.run_s += run_s;
        self.reactions += stats.total_reactions() as f64;
        self.dispatches += stats.total_dispatches() as f64;
        self.parks += stats.pool_workers.iter().map(|w| w.parks).sum::<u64>() as f64;
        self.blocked += stats.total_blocked_reads() as f64;
    }

    fn layers(&self, tr: &Tracer, out: &mut BTreeMap<&'static str, f64>) {
        let (step_sum, step_count) = tr.sum("codegen.step");
        let step_ns = step_sum / step_count.max(1) as f64;
        out.insert("gals-rt.run_s", self.run_s / self.reps as f64);
        out.insert("gals-rt.reactions_per_token", self.reactions / self.tokens);
        out.insert("codegen.step_ns", step_ns);
        out.insert(
            "gals-rt.overhead_ns_per_reaction",
            self.run_s * 1e9 / self.reactions - step_ns,
        );
        out.insert(
            "gals-rt.dispatches_per_token",
            self.dispatches / self.tokens,
        );
        out.insert("gals-rt.parks_per_token", self.parks / self.tokens);
        out.insert(
            "gals-rt.blocked_reads_per_token",
            self.blocked / self.tokens,
        );
        let (busy_sum, busy_count) = tr.sum("gals-rt.busy_share");
        out.insert("gals-rt.busy_share", busy_sum / busy_count.max(1) as f64);
    }
}
