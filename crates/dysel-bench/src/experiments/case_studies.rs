//! Case studies I-IV: Figs. 8, 9, 10(a/b), 11(a/b).

use dysel_baselines::{heuristic_select, lc_select, porple_select};
use dysel_device::GpuConfig;
use dysel_workloads::{Target, Workload};

use crate::harness::{suite, CaseError, CaseResult, Harness};
use crate::{Bar, Figure};

fn dysel_bars(case: &CaseResult) -> Vec<Bar> {
    vec![
        Bar::new("Oracle", 1.0),
        Bar::new("Sync", case.rel(case.dysel.sync)),
        Bar::new("Async(best)", case.rel(case.dysel.async_best)),
        Bar::new("Async(worst)", case.rel(case.dysel.async_worst)),
    ]
}

/// Fig. 8 — Case I: DySel vs locality-centric scheduling on the CPU for
/// the six OpenCL benchmarks (relative execution time over oracle).
pub fn fig8(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "fig8",
        "Case I: locality-centric scheduling on CPU",
        "relative execution time over oracle (lower is better)",
    );
    let workloads: Vec<Workload> = vec![
        suite::cutcp_schedules(),
        suite::kmeans_std(),
        suite::sgemm_schedules(),
        suite::spmv_jds_std(),
        suite::spmv_csr_sched_random(),
        suite::spmv_csr_sched_diagonal(),
        suite::stencil_std(),
    ];
    for w in workloads {
        let case = h.run_case(&w, Target::Cpu)?;
        let lc = lc_select(w.variants(Target::Cpu));
        let mut bars = dysel_bars(&case);
        bars.push(Bar::new("LC", case.rel(case.sweep.time_of(lc))));
        bars.push(Bar::new("Worst", case.sweep.spread()));
        fig.push_row(w.name.clone(), bars);
    }
    fig.push_geomean();
    fig.note("paper: DySel near-oracle everywhere; LC wrong on spmv-csr(diagonal) by ~1.15x; worst bars 2.95-117.74x");
    Ok(fig)
}

/// Fig. 9 — Case II: DySel vs PORPLE and the rule-based heuristic for GPU
/// data placement.
pub fn fig9(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "fig9",
        "Case II: data placement on GPU",
        "relative execution time over oracle (lower is better)",
    );
    for w in [suite::spmv_csr_placements(), suite::particlefilter_std()] {
        let case = h.run_case(&w, Target::Gpu)?;
        let variants = w.variants(Target::Gpu);
        let args = w.fresh_args();
        let porple = porple_select(&GpuConfig::kepler_k20c(), variants, &args);
        let heuristic = heuristic_select(variants, &args);
        let mut bars = dysel_bars(&case);
        bars.push(Bar::new("PORPLE", case.rel(case.sweep.time_of(porple))));
        bars.push(Bar::new(
            "Heuristic",
            case.rel(case.sweep.time_of(heuristic)),
        ));
        bars.push(Bar::new("Worst", case.sweep.spread()));
        fig.push_row(w.name.clone(), bars);
    }
    fig.note("paper: spmv-csr — PORPLE 1.29x, heuristic 2.29x, DySel negligible overhead; particlefilter — both baselines optimal, Rodinia original 1.17x, DySel <= 4%");
    Ok(fig)
}

fn mixed_case(
    h: &Harness,
    fig: &mut Figure,
    w: &Workload,
    target: Target,
) -> Result<(), CaseError> {
    let case = h.run_case(w, target)?;
    let mut bars = dysel_bars(&case);
    bars.push(Bar::new("Worst", case.sweep.spread()));
    let selected = &case.dysel.sync_report.selected_name;
    fig.push_row(format!("{} (pick: {selected})", w.name), bars);
    Ok(())
}

/// Fig. 10(a) — Case III: mixed compile-time optimizations, CPU.
pub fn fig10a(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "fig10a",
        "Case III: mixed compile-time optimizations, CPU",
        "relative execution time over oracle (lower is better)",
    );
    for w in [
        suite::cutcp_mixed(),
        suite::sgemm_mixed(),
        suite::spmv_jds_std(),
        suite::stencil_std(),
    ] {
        mixed_case(h, &mut fig, &w, Target::Cpu)?;
    }
    fig.push_geomean();
    fig.note("paper: ~2% average overhead; naive base versions win on CPU (scratchpad tiling is a 1.23x average slowdown there)");
    Ok(fig)
}

/// Fig. 10(b) — Case III: mixed compile-time optimizations, GPU.
pub fn fig10b(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "fig10b",
        "Case III: mixed compile-time optimizations, GPU",
        "relative execution time over oracle (lower is better)",
    );
    for w in [
        suite::cutcp_mixed(),
        suite::sgemm_mixed_gpu(),
        suite::spmv_jds_std(),
        suite::stencil_std(),
    ] {
        mixed_case(h, &mut fig, &w, Target::Gpu)?;
    }
    fig.push_geomean();
    fig.note("paper: DySel optimal except spmv-jds, where it picks the 2nd-best (unroll+prefetch+texture) at 0.8% loss; worst bars up to 7.74x");
    Ok(fig)
}

fn input_dependent(h: &Harness, target: Target) -> Result<Figure, CaseError> {
    let (id, label) = match target {
        Target::Cpu => ("fig11a", "CPU"),
        Target::Gpu => ("fig11b", "GPU"),
    };
    let mut fig = Figure::new(
        id,
        format!("Case IV: input-dependent optimization, {label}"),
        "relative execution time over oracle (lower is better)",
    );
    for w in [suite::spmv_csr_random(), suite::spmv_csr_diagonal()] {
        let case = h.run_case(&w, target)?;
        let mut bars = dysel_bars(&case);
        for name in case.names.clone() {
            bars.push(Bar::new(name.clone(), case.rel_variant(&name)));
        }
        bars.push(Bar::new("Worst", case.sweep.spread()));
        let selected = &case.dysel.sync_report.selected_name;
        fig.push_row(format!("{} (pick: {selected})", w.name), bars);
    }
    Ok(fig)
}

/// Fig. 11(a) — Case IV: input-dependent selection, CPU (scalar/vector x
/// DFO/BFO schedules on random vs diagonal matrices).
pub fn fig11a(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = input_dependent(h, Target::Cpu)?;
    fig.note("paper: DySel recovers 2.98x (random) and 8.63x (diagonal) over the worst choice; LC's unconditional DFO misses the diagonal case");
    Ok(fig)
}

/// Fig. 11(b) — Case IV: input-dependent selection, GPU (scalar vs vector
/// kernels on random vs diagonal matrices).
pub fn fig11b(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = input_dependent(h, Target::Gpu)?;
    fig.note("paper: vector wins on random (scalar 4.73x slower); scalar wins on diagonal (vector 22.73x slower); DySel <= 0.8% overhead");
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline claim of the paper, checked end-to-end on one case:
    /// DySel lands within a few percent of the oracle while the worst pure
    /// variant is far slower.
    #[test]
    fn dysel_is_near_oracle_for_kmeans() {
        let w = suite::kmeans_std();
        let case = Harness::default().run_case(&w, Target::Cpu).unwrap();
        assert!(case.rel(case.dysel.sync) < 1.15, "{:?}", case.dysel.sync);
        assert!(case.rel(case.dysel.async_best) < 1.15);
        assert!(case.sweep.spread() > 1.3);
    }

    #[test]
    fn gpu_case_is_near_oracle_for_particlefilter() {
        let w = suite::particlefilter_std();
        let case = Harness::default().run_case(&w, Target::Gpu).unwrap();
        assert!(
            case.rel(case.dysel.sync) < 1.10,
            "sync rel {}",
            case.rel(case.dysel.sync)
        );
    }
}
