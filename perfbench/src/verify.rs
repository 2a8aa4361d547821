//! The `verify` workload: a fixed corpus taken from component definitions
//! to verdict, derived capacities, prediction and compiled machines, pass
//! after pass.  The static layers do all the work; nothing is deployed.

use std::collections::BTreeMap;
use std::time::Instant;

use gals_rt::DeployError;
use isochron::{library, Design, DesignError};
use moc::Value;
use signal_lang::{generate, stdlib, Expr, ProcessBuilder};

use crate::trace::{median, Tracer};
use crate::{cpu, statics, Checks, Outcome, Rng};

/// Pipeline depths of the corpus: enough to show how composition cost
/// grows with depth while one pass stays near a second.
const PIPELINES: [usize; 4] = [4, 8, 12, 14];
/// Generated components in the seeded batch, and signals in each.  Kept
/// small so the seed changes the pass time by little.
const BATCH: (usize, usize) = (3, 6);

/// The answer each corpus item must get, fixed by the paper and by the
/// shape of the item rather than read back from the program.
enum Expect {
    /// An `n`-stage buffer pipeline: isochronous, bound 1 on each of its
    /// `n - 1` edges, `2n` reactions per token, fill latency `2(n - 1)`.
    Pipeline(usize),
    /// A paper design: isochronous, not endochronous as a whole unless it
    /// has one component, with `roots` roots when given.
    Paper { roots: Option<usize> },
    /// The multirate burst design: isochronous, bound 3 on its one edge.
    Multirate,
    /// The primed feedback loop: isochronous, every edge bounded.
    Primed,
    /// The unprimed feedback loop: refused with `UnprimedCycle`.
    Unprimed,
    /// A lone `default` over unrelated inputs with a filter: refused with
    /// `NotVerified`.
    Unverified,
    /// A seeded batch of generated endochronous components sharing no
    /// signal: weakly hierarchic by construction.
    Generated,
}

/// A corpus design: its name, the call that builds it from its component
/// definitions, and its expected answer.
struct Item {
    name: String,
    build: Box<dyn Fn() -> Result<Design, DesignError>>,
    expect: Expect,
}

fn item(
    name: impl Into<String>,
    build: impl Fn() -> Result<Design, DesignError> + 'static,
    expect: Expect,
) -> Item {
    Item {
        name: name.into(),
        build: Box::new(build),
        expect,
    }
}

/// A lone `d := y default z` composed with the paper's `filter`: `y` and
/// `z` are unrelated inputs, so the design fails the criterion.
fn unverified_design() -> Result<Design, DesignError> {
    let loose = ProcessBuilder::new("loose")
        .define("d", Expr::var("y").default(Expr::var("z")))
        .build()
        .expect("the process builds");
    Design::compose("bad", [loose, stdlib::filter()])
}

/// The corpus: the designs of `isochron::library`, the unverified design
/// and the seeded generated batch.
fn corpus(seed: u64) -> Vec<Item> {
    let mut items: Vec<Item> = PIPELINES
        .iter()
        .map(|&n| {
            item(
                format!("pipe{n}"),
                move || library::buffer_pipeline_design(n),
                Expect::Pipeline(n),
            )
        })
        .collect();
    let paper = |roots| Expect::Paper { roots };
    items.extend([
        item("main", library::producer_consumer_design, paper(None)),
        item("filter_merge", library::filter_merge_design, paper(None)),
        item("ltta", library::ltta_design, paper(Some(4))),
        item("buffer", library::buffer_design, paper(Some(1))),
        item("burst_main", library::multirate_design, Expect::Multirate),
        item("primed_loop", library::primed_loop_design, Expect::Primed),
        item("unprimed_loop", library::unprimed_loop_design, Expect::Unprimed),
        item("bad", unverified_design, Expect::Unverified),
        item(
            "generated",
            move || {
                Design::compose(
                    "generated",
                    generate::component_batch(BATCH.0, BATCH.1, seed),
                )
            },
            Expect::Generated,
        ),
    ]);
    items
}

/// Thread CPU seconds of one design's pass: all of it, and the part from
/// verdict to compiled machines (capacity, prediction and compilation).
#[derive(Default)]
struct Cost {
    pass: f64,
    setup: f64,
}

/// Takes one design through the pass and checks it; returns the thread
/// CPU seconds of the pass's own calls (the checks and the layers timed
/// apart are left out).
fn take(item: &Item, probe: &[Value], tr: &mut Tracer, checks: &mut Checks) -> Cost {
    let start = cpu::thread();
    let design = match tr.span("core.compose", |_| (item.build)()) {
        Ok(design) => design,
        Err(e) => {
            checks.fail(&format!("{}: composition failed: {e}", item.name));
            return Cost {
                pass: cpu::thread() - start,
                setup: 0.0,
            };
        }
    };
    let verdict = design.verdict();
    let setup_start = cpu::thread();
    let capacity = tr.span("gals-rt.capacity", |_| design.capacity_analysis());
    let mut derived = None;
    if let Ok(capacity) = &capacity {
        let prediction = tr.span("gals-rt.predict", |_| design.performance_prediction());
        let machines = statics::compile(&design, tr);
        derived = Some((capacity, prediction, machines));
    }
    let end = cpu::thread();
    let cost = Cost {
        pass: end - start,
        setup: end - setup_start,
    };
    statics::time_phases(&design, tr);

    let name = &item.name;
    let isochronous = |checks: &mut Checks| {
        checks.expect(verdict.isochronous, || {
            format!("{name}: expected isochronous:\n{verdict}")
        });
    };
    match (&item.expect, derived) {
        (Expect::Pipeline(n), Some((capacity, prediction, mut machines))) => {
            isochronous(checks);
            let bounds: Vec<usize> = capacity.bounds().values().map(|c| c.bound).collect();
            checks.expect(bounds == vec![1; n - 1], || {
                format!(
                    "{name}: expected bound 1 on each of {} edges, got {bounds:?}",
                    n - 1
                )
            });
            match prediction {
                Ok(p) => checks.expect(
                    p.reactions_per_input() == 2.0 * *n as f64 && p.fill_latency == 2 * (n - 1),
                    || {
                        format!(
                            "{name}: predicted {} reactions/token and fill {}, expected {} and {}",
                            p.reactions_per_input(),
                            p.fill_latency,
                            2 * n,
                            2 * (n - 1)
                        )
                    },
                ),
                Err(e) => checks.fail(&format!("{name}: prediction failed: {e}")),
            }
            // The first stage's compiled machine forwards what it reads.
            let first = &mut machines[0];
            first.feed("p0", probe.iter().copied());
            first.run(2 * probe.len() + 2);
            checks.expect(first.output("p1") == probe, || {
                format!("{name}: the compiled first stage does not forward its input")
            });
        }
        (Expect::Paper { roots }, Some((_, prediction, _))) => {
            isochronous(checks);
            let single = verdict.component_count == 1;
            checks.expect(verdict.endochronous == single, || {
                format!("{name}: endochronous as a whole should be {single}")
            });
            if let Some(roots) = roots {
                checks.expect(verdict.roots == *roots, || {
                    format!("{name}: expected {roots} roots, got {}", verdict.roots)
                });
            }
            checks.expect(prediction.is_ok(), || format!("{name}: prediction failed"));
        }
        (Expect::Multirate, Some((capacity, _, _))) => {
            isochronous(checks);
            let bounds: Vec<usize> = capacity.bounds().values().map(|c| c.bound).collect();
            checks.expect(bounds == [3], || {
                format!("{name}: expected bound 3, got {bounds:?}")
            });
        }
        (Expect::Primed, Some((capacity, _, _))) => {
            isochronous(checks);
            checks.expect(capacity.is_fully_bounded(), || {
                format!("{name}: unbounded edge")
            });
        }
        (Expect::Generated, Some(_)) => checks.expect(verdict.weakly_hierarchic, || {
            format!("{name}: a generated batch must be weakly hierarchic:\n{verdict}")
        }),
        (Expect::Unprimed, None) => checks.expect(
            matches!(capacity, Err(DeployError::UnprimedCycle(_))),
            || format!("{name}: expected UnprimedCycle, got {:?}", capacity.err()),
        ),
        (Expect::Unverified, None) => checks.expect(
            !verdict.weakly_hierarchic
                && matches!(&capacity, Err(DeployError::NotVerified(n)) if n == name),
            || format!("{name}: expected NotVerified, got {:?}", capacity.err()),
        ),
        (_, _) => checks.fail(&format!(
            "{name}: capacity derivation gave the wrong kind of answer: {:?}",
            capacity.err()
        )),
    }
    cost
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut rng = Rng::new(seed);
    let probe: Vec<Value> = (0..16).map(|_| Value::Bool(rng.below(2) == 1)).collect();
    let items = corpus(seed);

    let mut checks = Checks::default();
    let (mut passes, mut setups) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut total = Cost::default();
        tr.span("verify.pass", |tr| {
            for item in &items {
                let cost = take(item, &probe, tr, &mut checks);
                total.pass += cost.pass;
                total.setup += cost.setup;
            }
        });
        passes.push(total.pass);
        setups.push(total.setup);
        checks.attempted += items.len() as u64;
    }

    let pass = median(&passes);
    let mut metrics = BTreeMap::new();
    metrics.insert("verify_s", pass);
    metrics.insert("setup_s", median(&setups));
    metrics.insert("ops_per_s", items.len() as f64 / pass);
    if tr.on() {
        statics::layers(tr, passes.len() as f64, &mut metrics);
    }
    Outcome { checks, metrics }
}
