//! End-to-end and per-layer benchmark of the isochronous design stack:
//! Signal definitions verified compositionally (`verify`), deployed as a
//! batch GALS pipeline (`stream`), and served to many tenants (`serve`).
//!
//! ```text
//! perfbench --workload <verify|stream|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload prints every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`) as the last line of its standard
//! output, one JSON object, after a line stamping the host.  Each
//! end-to-end metric is a median over the repetitions or samples of the
//! run.  A traced run measures the workload untraced for the first half
//! of its time and traced for the second, reports the ratio of the two
//! as the tracing overhead, and writes its spans to
//! `perfbench/out/<workload>-<seed>.json`.  Layers a workload does not
//! reach are measured by a one-round traced probe of the workload that
//! does, so every traced run reports every layer.

mod cpu;
mod host;
mod serve;
mod statics;
mod stream;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use trace::Tracer;

/// End-to-end metrics and their units.
const END_TO_END: [(&str, &str); 4] = [
    ("verify_s", "s"),
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units.
const PER_LAYER: [(&str, &str); 36] = [
    ("signal.normalize_s", "s"),
    ("clocks.infer_s", "s"),
    ("clocks.algebra_s", "s"),
    ("clocks.hierarchy_s", "s"),
    ("clocks.disjunctive_s", "s"),
    ("clocks.schedule_s", "s"),
    ("clocks.bdd_nodes", "count"),
    ("core.compose_s", "s"),
    ("core.compose_over_analyze", "ratio"),
    ("gals-rt.capacity_s", "s"),
    ("gals-rt.predict_s", "s"),
    ("codegen.compile_s", "s"),
    ("gals-rt.deploy_s", "s"),
    ("gals-rt.run_s", "s"),
    ("gals-rt.reactions_per_token", "count"),
    ("codegen.step_ns", "ns"),
    ("gals-rt.overhead_ns_per_reaction", "ns"),
    ("gals-rt.dispatches_per_token", "count"),
    ("gals-rt.parks_per_token", "count"),
    ("gals-rt.blocked_reads_per_token", "count"),
    ("gals-rt.busy_share", "ratio"),
    ("gals-serve.admit_s", "s"),
    ("gals-rt.stage_s", "s"),
    ("gals-serve.admit_over_parts", "ratio"),
    ("gals-serve.feed_us", "us"),
    ("gals-serve.poll_us", "us"),
    ("gals-serve.empty_poll_share", "ratio"),
    ("serve.latency_p50_us", "us"),
    ("serve.latency_p99_us", "us"),
    ("serve.generator_late_us", "us"),
    ("bench.trace_ratio.verify_s", "ratio"),
    ("bench.trace_ratio.setup_s", "ratio"),
    ("bench.trace_ratio.ops_per_s", "ratio"),
    ("host.steal_s", "s"),
    ("host.steal_share", "ratio"),
    ("host.available_parallelism", "count"),
];

/// A SplitMix64 generator: the benchmark's only source of input data.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Operations attempted and failed, and outputs found wrong.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    wrong: u64,
}

impl Checks {
    /// Records a check of an output against its expected value.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.wrong += 1;
            if self.wrong <= 20 {
                eprintln!("check failed: {}", message());
            }
        }
    }

    pub fn fail(&mut self, message: &str) {
        self.expect(false, || message.to_string());
    }

    /// Records `n` operations the program failed to carry out.
    pub fn fail_ops(&mut self, n: u64, message: &str) {
        self.failed += n;
        eprintln!("operation failed: {message}");
    }
}

/// What one workload run measured.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, f64>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["verify", "stream", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(name: &str, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    match name {
        "verify" => verify::run(seed, seconds, tr),
        "stream" => stream::run(seed, seconds, tr),
        _ => serve::run(seed, seconds, tr),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = host::Stamp::read();
    let steal_start = host::steal_seconds();
    let started = std::time::Instant::now();

    let mut tracer = Tracer::new(args.trace);
    let (outcome, units): (Outcome, &[(&str, &str)]) = if args.trace {
        (traced(&args, &mut tracer), &PER_LAYER)
    } else {
        let outcome = run_workload(&args.workload, args.seed, args.seconds, &mut tracer);
        (outcome, &END_TO_END)
    };
    let mut metrics = outcome.metrics;
    let steal = steal_start.zip(host::steal_seconds()).map(|(a, b)| b - a);
    if let Some(rss) = host::peak_rss_mb() {
        metrics.insert("peak_rss_mb", rss);
    }
    if args.trace {
        let wall = started.elapsed().as_secs_f64() * host::cpus_in_stat() as f64;
        metrics.insert("host.steal_s", steal.unwrap_or(0.0));
        metrics.insert("host.steal_share", steal.unwrap_or(0.0) / wall);
        metrics.insert("host.available_parallelism", stamp.parallelism as f64);
    }
    let host_json = stamp.to_json(&args.workload, args.seed, steal);
    println!("host {host_json}");
    if args.trace {
        report_spans(&tracer, &args, &host_json);
    }

    let mut line = String::new();
    let mut complete = true;
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.checks.wrong == 0,
        outcome.checks.attempted,
        outcome.checks.failed
    );
    for (i, (name, unit)) in units.iter().enumerate() {
        let value = metrics.get(name).copied().filter(|v| v.is_finite());
        let Some(value) = value else {
            eprintln!("perfbench: metric {name} was not measured");
            complete = false;
            continue;
        };
        let _ = write!(
            line,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    line.push_str("}}");
    if !complete || outcome.checks.attempted == 0 {
        eprintln!("perfbench: incomplete run, no result");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// A traced run: the workload untraced for half the time, then traced
/// for the other half, then one-round probes for the layers it does not
/// reach.  Each end-to-end figure of the traced half is reported as a
/// ratio to the untraced half's: the tracing overhead.
fn traced(args: &Args, tracer: &mut Tracer) -> Outcome {
    let half = args.seconds / 2.0;
    let untraced = run_workload(&args.workload, args.seed, half, &mut Tracer::new(false));
    let mut outcome = run_workload(&args.workload, args.seed, half, tracer);
    outcome.checks.attempted += untraced.checks.attempted;
    outcome.checks.failed += untraced.checks.failed;
    outcome.checks.wrong += untraced.checks.wrong;
    for (ratio, name) in [
        ("bench.trace_ratio.verify_s", "verify_s"),
        ("bench.trace_ratio.setup_s", "setup_s"),
        ("bench.trace_ratio.ops_per_s", "ops_per_s"),
    ] {
        if let (Some(traced), Some(plain)) = (outcome.metrics.get(name), untraced.metrics.get(name))
        {
            outcome.metrics.insert(ratio, traced / plain);
        }
    }

    for name in ["stream", "serve"] {
        if name == args.workload {
            continue;
        }
        let result = probe(name, args.seed);
        outcome.checks.attempted += result.checks.attempted;
        outcome.checks.failed += result.checks.failed;
        outcome.checks.wrong += result.checks.wrong;
        for (metric, value) in result.metrics {
            if PER_LAYER.iter().any(|(n, _)| *n == metric) {
                outcome.metrics.entry(metric).or_insert(value);
            }
        }
    }
    outcome
}

/// A one-round traced run of a workload that reaches the runtime or the
/// serving layers, for the traced runs of the workloads that do not.
fn probe(workload: &str, seed: u64) -> Outcome {
    let mut tr = Tracer::new(true);
    if workload == "stream" {
        return stream::run_sized(seed, 0.0, 10_000, &mut tr);
    }
    let sizes = serve::Sizes {
        tenants: 4,
        saturation: 1_000,
        paced: 2_000,
    };
    serve::run_sized(seed, 0.0, sizes, &mut tr)
}

/// Prints the per-layer self-time table and writes the spans out.
fn report_spans(tracer: &Tracer, args: &Args, host_json: &str) {
    eprintln!(
        "{:<24} {:>8} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, (count, total, own)) in tracer.self_times() {
        eprintln!("{name:<24} {count:>8} {total:>12.6} {own:>12.6}");
    }
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("{}-{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(host_json)));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
