//! §5.1 (sync vs async) and §5.2 (profiling overhead, selection accuracy).

use dysel_core::{LaunchOptions, Runtime};
use dysel_device::{CpuConfig, CpuDevice, Cycles, Device};
use dysel_kernel::Orchestration;
use dysel_workloads::{Target, Workload};

use crate::harness::{suite, CaseError, Harness};
use crate::{Bar, Figure};

/// §5.1 — synchronous vs asynchronous overhead on the pathological
/// `sgemm` schedule set (the paper's 117x oracle/worst disparity case):
/// overheads over oracle, plus the eager-chunk counts that show async
/// scattering the profiling latency.
pub fn sec51(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "sec51",
        "sync vs async DySel on the pathological sgemm (§5.1)",
        "percent overhead over oracle / eager chunk count",
    );
    let w = suite::sgemm_schedules();
    let case = h.run_case(&w, Target::Cpu)?;
    let pct = |v: f64| (v - 1.0) * 100.0;
    fig.push_row(
        "sgemm (CPU)",
        vec![
            Bar::new("spread(x)", case.sweep.spread()),
            Bar::new("sync-ovh%", pct(case.rel(case.dysel.sync))),
            Bar::new("async-ovh%", pct(case.rel(case.dysel.async_best))),
            Bar::new(
                "eager-chunks",
                case.dysel.async_best_report.eager_chunks as f64,
            ),
            Bar::new(
                "profile-time%",
                100.0 * case.dysel.sync_report.profile_time.as_f64()
                    / case.dysel.sync_report.total_time.as_f64(),
            ),
        ],
    );
    fig.note("paper: 117x disparity; sync overhead 8%, async scatters it below 5%");
    Ok(fig)
}

/// Runs `iters` iterative launches, profiling every iteration, and
/// compares against `iters` oracle launches.
fn per_iteration_overhead(h: &Harness, w: &Workload, iters: u32) -> f64 {
    let sweep = h.sweep(w, Target::Cpu);
    let best = sweep.best().0;

    // Oracle: the best pure variant run for the same iterations on one
    // runtime, so both sides enjoy the same cross-iteration cache warmth.
    let oracle_total = {
        let mut rt = Runtime::new(h.oracle_device(Target::Cpu));
        rt.add_kernel(&w.signature, w.variants(Target::Cpu)[best.0].clone());
        let mut total = Cycles::ZERO;
        for _ in 0..iters {
            let mut args = w.fresh_args();
            let report = rt
                .launch(
                    &w.signature,
                    &mut args,
                    w.total_units,
                    &LaunchOptions::new(),
                )
                .expect("oracle launch");
            total += report.total_time;
        }
        total
    };

    let mut rt = Runtime::new(h.device(Target::Cpu));
    rt.add_kernels(&w.signature, w.variants(Target::Cpu).to_vec());
    let mut total = Cycles::ZERO;
    for _ in 0..iters {
        let mut args = w.fresh_args();
        let report = rt
            .launch(
                &w.signature,
                &mut args,
                w.total_units,
                &LaunchOptions::new(),
            )
            .expect("launch");
        total += report.total_time;
    }
    total.ratio_over(oracle_total)
}

/// Selection accuracy of `runs` differently-seeded profiled launches.
fn selection_accuracy(h: &Harness, w: &Workload, noise_sigma: f64, reps: u32, runs: u32) -> f64 {
    let sweep = h.sweep(w, Target::Cpu);
    let truth = sweep.best().0;
    let mut hits = 0u32;
    for seed in 0..runs {
        let cfg = CpuConfig {
            noise_sigma,
            seed: 0x5EC52 + u64::from(seed),
            ..CpuConfig::default()
        };
        let mut rt = Runtime::new(Box::new(CpuDevice::new(cfg)) as Box<dyn Device>);
        rt.add_kernels(&w.signature, w.variants(Target::Cpu).to_vec());
        let mut args = w.fresh_args();
        let opts = LaunchOptions::new()
            .with_orchestration(Orchestration::Sync)
            .with_profile_reps(reps);
        let report = rt
            .launch(&w.signature, &mut args, w.total_units, &opts)
            .expect("launch");
        if report.selected == truth {
            hits += 1;
        }
    }
    f64::from(hits) / f64::from(runs)
}

/// §5.2 — profiling overhead with profiling re-enabled *every* iteration
/// of the iterative benchmarks, plus selection accuracy under measurement
/// noise for the small-workload `spmv-csr` case.
pub fn sec52(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "sec52",
        "per-iteration profiling overhead and selection accuracy (§5.2)",
        "relative time over oracle when profiling every iteration / accuracy",
    );
    for (w, iters) in [
        (suite::spmv_jds_std(), 8u32),
        (suite::stencil_std(), 8),
        (suite::kmeans_std(), 8),
        (suite::spmv_csr_sched_random(), 8),
    ] {
        let rel = per_iteration_overhead(h, &w, iters);
        fig.push_row(
            w.name.clone(),
            vec![
                Bar::new("every-iter", rel),
                Bar::new("ovh%", (rel - 1.0) * 100.0),
            ],
        );
    }
    // Selection accuracy: kmeans' closest schedules differ by only ~14%,
    // so timer noise genuinely flips selections there (the paper's 95%
    // spmv-csr case); repetitions recover accuracy at extra cost.
    let w = suite::kmeans_std();
    for (sigma, reps) in [(0.02, 1u32), (0.15, 1), (0.15, 4)] {
        let acc = selection_accuracy(h, &w, sigma, reps, 40);
        fig.push_row(
            format!("accuracy sigma={sigma} reps={reps}"),
            vec![Bar::new("accuracy", acc)],
        );
    }
    fig.note("paper: most CPU benchmarks <6% per-iteration overhead (88% worst case); spmv-csr selection accuracy 95%, recoverable by repeating profiling executions");
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeating_profiling_recovers_accuracy() {
        let w = suite::kmeans_std();
        let h = Harness::default();
        let noisy = selection_accuracy(&h, &w, 0.25, 1, 48);
        let repeated = selection_accuracy(&h, &w, 0.25, 6, 48);
        assert!(
            repeated >= noisy,
            "reps should not hurt accuracy ({repeated} vs {noisy})"
        );
    }

    #[test]
    fn zero_noise_is_perfectly_accurate() {
        let w = suite::kmeans_std();
        assert_eq!(selection_accuracy(&Harness::default(), &w, 0.0, 1, 4), 1.0);
    }
}
