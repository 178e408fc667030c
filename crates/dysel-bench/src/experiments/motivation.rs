//! Fig. 1 (vectorization motivation), Fig. 2 (work-group distribution) and
//! Table 1 (productive-mode properties).

use dysel_baselines::intel_vec_select;
use dysel_core::{LaunchOptions, LaunchStats};
use dysel_kernel::{Orchestration, ProfilingMode};
use dysel_workloads::Target;

use crate::harness::{suite, CaseError, Harness};
use crate::{Bar, Figure};

/// Fig. 1 — "Performance of Intel CPU OpenCL stack with different
/// vectorization strategies": speedup over the heuristic's choice (higher
/// is better) for `sgemm` and `spmv-jds` under scalar / 4-way / 8-way
/// SIMD.
pub fn fig1(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "fig1",
        "vectorization strategies on the CPU model",
        "speedup over the vectorizer heuristic's choice (higher is better)",
    );
    for w in [suite::sgemm_vec(), suite::spmv_jds_vec()] {
        let variants = w.variants(Target::Cpu);
        let sweep = h.sweep(&w, Target::Cpu);
        let pick = intel_vec_select(variants);
        let t_heuristic = sweep.time_of(pick);
        let mut bars = vec![Bar::new("heuristic", 1.0)];
        for (i, v) in variants.iter().enumerate() {
            bars.push(Bar::new(v.name(), t_heuristic.ratio_over(sweep.times[i].1)));
        }
        fig.push_row(
            format!("{} (pick: {})", w.name, variants[pick.0].name()),
            bars,
        );
    }
    fig.note("paper: heuristic falls short of the best by 2.13x (sgemm, picked 4-way) and 1.24x (spmv-jds, picked 8-way)");
    Ok(fig)
}

/// Fig. 2 — distribution of base work-group counts among kernel launches
/// across the benchmark suite (iterative solvers launch every iteration).
pub fn fig2(_: &Harness) -> Result<Figure, CaseError> {
    let mut stats = LaunchStats::new();
    // (workload, iterations a real application would launch).
    let launches: Vec<(u64, u64)> = vec![
        (suite::sgemm_schedules().total_units, 1),
        (suite::spmv_csr_random().total_units, 100), // CG solver
        (suite::spmv_csr_diagonal().total_units, 100),
        (suite::spmv_jds_std().total_units, 100),
        (suite::stencil_std().total_units, 200), // PDE time stepping
        (suite::cutcp_schedules().total_units, 1),
        (suite::kmeans_std().total_units, 30), // Lloyd iterations
        (suite::particlefilter_std().total_units, 40), // frames
    ];
    for (units, iters) in launches {
        for _ in 0..iters {
            stats.record(units);
        }
    }
    let mut fig = Figure::new(
        "fig2",
        "work-groups per kernel launch across the suite",
        "number of kernel launches per power-of-two work-group bucket",
    );
    for (bucket, count) in stats.histogram() {
        fig.push_row(
            format!("<= {bucket} work-groups"),
            vec![Bar::new("launches", count as f64)],
        );
    }
    fig.note(format!(
        "{} of {} launches have >= 128 work-groups (DySel's activation threshold, §2.1)",
        stats.launches_at_least(128),
        stats.launches()
    ));
    Ok(fig)
}

/// Table 1 — measured properties of the three productive profiling modes
/// on a live workload: productive/wasted units, extra space, async
/// support.
pub fn table1(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "table1",
        "productive profiling mode properties (measured)",
        "per mode: productive units, wasted units, extra KiB, eager chunks",
    );
    let w = suite::spmv_csr_random();
    for mode in [
        ProfilingMode::FullyProductive,
        ProfilingMode::HybridPartial,
        ProfilingMode::SwapPartial,
    ] {
        let report = h.run_dysel(
            &w,
            Target::Cpu,
            &LaunchOptions::new()
                .with_mode(mode)
                .with_orchestration(Orchestration::Async),
        )?;
        fig.push_row(
            mode.to_string(),
            vec![
                Bar::new("productive", report.productive_units as f64),
                Bar::new("wasted", report.wasted_units as f64),
                Bar::new("extraKiB", report.extra_space_bytes as f64 / 1024.0),
                Bar::new("eager", report.eager_chunks as f64),
                Bar::new(
                    "async",
                    f64::from(u8::from(report.orchestration == Orchestration::Async)),
                ),
            ],
        );
    }
    fig.note("paper Table 1: productive output K / 1 / 1; extra space 0 / <=K-1 / <=K; async yes / yes / no");
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_claims() {
        let fig = table1(&Harness::default()).unwrap();
        assert_eq!(fig.rows.len(), 3);
        let get = |r: usize, l: &str| {
            fig.rows[r]
                .bars
                .iter()
                .find(|b| b.label == l)
                .map(|b| b.value)
                .expect("bar")
        };
        // Fully-productive: nothing wasted, no extra space, async works.
        assert_eq!(get(0, "wasted"), 0.0);
        assert_eq!(get(0, "extraKiB"), 0.0);
        assert_eq!(get(0, "async"), 1.0);
        // Hybrid: K-1 = 3 output copies; async works.
        assert!(get(1, "extraKiB") > 0.0);
        assert_eq!(get(1, "async"), 1.0);
        // Swap: K copies, strictly more than hybrid; async forced off.
        assert!(get(2, "extraKiB") > get(1, "extraKiB"));
        assert_eq!(get(2, "async"), 0.0);
        assert_eq!(get(2, "eager"), 0.0);
    }
}
