//! The static layers timed one by one: normalization, the phases of the
//! clock calculus, composition, capacity, prediction and compilation.

use std::collections::BTreeMap;

use clocks::{ClockAlgebra, ClockHierarchy, DisjunctiveForm, SchedulingGraph};
use isochron::Design;

use crate::trace::Tracer;

/// The phases `ClockAnalysis::analyze` runs, in its order, with the span
/// each is recorded under.
const PHASES: [&str; 5] = [
    "clocks.infer",
    "clocks.algebra",
    "clocks.hierarchy",
    "clocks.disjunctive",
    "clocks.schedule",
];

/// Re-runs, apart from the design's own construction, the normalization
/// of every component definition and the phase sequence of
/// `ClockAnalysis::analyze` on the final composition, one span per phase;
/// records the BDD size the algebra ends with.
pub fn time_phases(design: &Design, tr: &mut Tracer) {
    tr.apart("apart.analyze", |tr| {
        tr.span("signal.normalize", |_| {
            for component in design.components() {
                std::hint::black_box(component.definition().normalize().is_ok());
            }
        });
        let kernel = design.composition();
        let relations = tr.span(PHASES[0], |_| clocks::inference::infer(kernel));
        let mut algebra = tr.span(PHASES[1], |_| ClockAlgebra::new(kernel, &relations));
        let hierarchy = tr.span(PHASES[2], |_| {
            ClockHierarchy::build(kernel, &relations, &mut algebra)
        });
        let disjunctive = tr.span(PHASES[3], |_| {
            DisjunctiveForm::analyze(kernel, &relations, &hierarchy, &mut algebra)
        });
        let acyclic = tr.span(PHASES[4], |_| {
            SchedulingGraph::build(kernel, &relations, &hierarchy)
                .acyclicity(&mut algebra)
                .is_acyclic()
        });
        std::hint::black_box((disjunctive.is_disjunctive(), acyclic));
        tr.add("clocks.bdd_nodes", algebra.bdd_node_count() as f64);
    });
}

/// Lowers every component to its compiled machine (step program plus
/// `CompiledRuntime`) inside a `codegen.compile` span.
pub fn compile(design: &Design, tr: &mut Tracer) -> Vec<codegen::CompiledRuntime> {
    tr.span("codegen.compile", |_| {
        design
            .components()
            .iter()
            .map(|c| c.compiled_runtime())
            .collect()
    })
}

/// The static per-layer metrics from the spans recorded so far, each per
/// `units` of the workload's work.
pub fn layers(tr: &Tracer, units: f64, out: &mut BTreeMap<&'static str, f64>) {
    let per = |name: &str| tr.total(name) / units;
    out.insert("signal.normalize_s", per("signal.normalize"));
    out.insert("clocks.infer_s", per(PHASES[0]));
    out.insert("clocks.algebra_s", per(PHASES[1]));
    out.insert("clocks.hierarchy_s", per(PHASES[2]));
    out.insert("clocks.disjunctive_s", per(PHASES[3]));
    out.insert("clocks.schedule_s", per(PHASES[4]));
    out.insert("clocks.bdd_nodes", tr.sum("clocks.bdd_nodes").0 / units);
    out.insert("core.compose_s", per("core.compose"));
    let analyze: f64 = PHASES.iter().map(|p| tr.total(p)).sum();
    out.insert(
        "core.compose_over_analyze",
        tr.total("core.compose") / analyze.max(1e-12),
    );
    out.insert("gals-rt.capacity_s", per("gals-rt.capacity"));
    out.insert("gals-rt.predict_s", per("gals-rt.predict"));
    out.insert("codegen.compile_s", per("codegen.compile"));
}
