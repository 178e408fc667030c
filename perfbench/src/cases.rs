//! `cases-cpu`: the paper's CPU case-study flow (Figs. 8, 10a, 11a) on one
//! main thread. One op is one case: the exhaustive oracle sweep, then the
//! sync, async-best and async-worst DySel launches, each on a fresh CPU
//! device and runtime, every output verified.

use dysel_baselines::exhaustive_sweep;
use dysel_core::{InitialSelection, LaunchOptions, LaunchReport, Runtime};
use dysel_kernel::{Orchestration, Variant};
use dysel_workloads::{
    cutcp, kmeans, sgemm, spmv_csr, spmv_jds, stencil, CsrMatrix, JdsMatrix, Target, Workload,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::trace::{self, rebuild, within, CPU, SWEEP};
use crate::{
    cpu, device, next_op, runtime_config, timed_op, Bench, Digest, PassCtx, PassResult, Tally,
};

/// Variants the oracle sweep runs at once: `exhaustive_sweep` spawns one
/// thread and one device per variant, so the benchmark hands it chunks of
/// this many variants to bound threads and memory by the core count of
/// the reference machine (2).
pub const SWEEP_THREADS: usize = 2;

/// Rows of the random sparse matrix (0.4% dense, 256 row blocks).
const SPMV_N: usize = 8192;
const SPMV_DENSITY: f64 = 0.004;
/// Rows of the diagonal matrix: its working set exceeds the simulated LLC
/// share, where the random matrix's vector fits.
const DIAG_N: usize = 1 << 18;
/// cutcp lattice: 512 bricks, every one of the 60 schedules swept.
const CUTCP: cutcp::Shape = cutcp::Shape { n: 32, atoms: 64 };
const KMEANS: kmeans::Shape = kmeans::Shape {
    n: 8192,
    d: 16,
    k: 8,
};
const SGEMM_N: usize = 192;
const STENCIL_N: usize = 48;

/// The case list: Case I schedule sets, Case III mixed sets (spmv-jds and
/// stencil repeat, as in the suite) and Case IV input-dependent sets.
fn case_list(seed: u64) -> Vec<Workload> {
    let random = CsrMatrix::random(SPMV_N, SPMV_N, SPMV_DENSITY, seed);
    let diagonal = CsrMatrix::diagonal(DIAG_N);
    let jds = spmv_jds::workload(&JdsMatrix::from_csr(&random), seed);
    let stencil = stencil::workload(STENCIL_N, seed);
    let sched = |name: &str, m: &CsrMatrix| {
        spmv_csr::workload(
            name,
            m,
            seed,
            spmv_csr::cpu_schedule_variants(m.rows),
            Vec::new(),
        )
    };
    vec![
        cutcp::workload(CUTCP, seed),
        kmeans::workload(KMEANS, seed),
        sgemm::schedules_workload(SGEMM_N, seed),
        jds.clone(),
        sched("spmv-csr(random)", &random),
        sched("spmv-csr(diagonal)", &diagonal),
        stencil.clone(),
        cutcp::mixed_workload(CUTCP, seed),
        sgemm::mixed_workload(SGEMM_N, seed),
        jds,
        stencil,
        spmv_csr::case4_workload("spmv-csr(random)", &random, seed),
        spmv_csr::case4_workload("spmv-csr(diagonal)", &diagonal, seed),
    ]
}

pub struct Cases {
    cases: Vec<Workload>,
    /// Per case, the CPU variants with timed kernels (traced runs only).
    timed: Vec<Vec<Variant>>,
    /// DySel sync time over the oracle per case, from the first pass.
    rel: Vec<f64>,
}

impl Cases {
    pub fn new(seed: u64, traced: bool) -> Self {
        let cases = within(traced, "workloads.build", || case_list(seed));
        let timed = if traced {
            cases
                .iter()
                .map(|w| {
                    let all: Vec<usize> = (0..w.variants(Target::Cpu).len()).collect();
                    rebuild(w, Target::Cpu, &all, Some(&CPU))
                        .variants(Target::Cpu)
                        .to_vec()
                })
                .collect()
        } else {
            Vec::new()
        };
        Cases {
            cases,
            timed,
            rel: Vec::new(),
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "panic".into())
}

/// Whole-workload time of every `target` variant, in variant order,
/// swept `SWEEP_THREADS` variants at a time.
pub fn sweep(w: &Workload, target: Target, traced: bool) -> Result<Vec<u64>, String> {
    let all: Vec<usize> = (0..w.variants(target).len()).collect();
    let mut times = Vec::with_capacity(all.len());
    for chunk in all.chunks(SWEEP_THREADS) {
        let sub = rebuild(w, target, chunk, traced.then_some(&SWEEP));
        let factory = || device(target, traced.then_some(&SWEEP));
        let result = within(traced, "baselines.sweep", || {
            catch_unwind(AssertUnwindSafe(|| exhaustive_sweep(&sub, target, factory)))
        })
        .map_err(|p| format!("{} sweep: {}", w.name, panic_text(p.as_ref())))?;
        times.extend(result.times.iter().map(|(_, t)| t.0));
    }
    Ok(times)
}

impl Cases {
    /// One case: the oracle time and the three DySel launch reports.
    fn run_case(
        &self,
        i: usize,
        traced: bool,
        tally: &mut Tally,
    ) -> Result<(u64, Vec<LaunchReport>), String> {
        let w = &self.cases[i];
        let times = sweep(w, Target::Cpu, traced)?;
        // Tie-breaking as in `SweepResult::{best, worst}`.
        let best = (0..times.len()).min_by_key(|&j| times[j]).unwrap_or(0);
        let worst = (0..times.len()).max_by_key(|&j| times[j]).unwrap_or(0);
        let plans = [
            LaunchOptions::new().with_orchestration(Orchestration::Sync),
            LaunchOptions::new().with_initial(InitialSelection::Index(best)),
            LaunchOptions::new().with_initial(InitialSelection::Index(worst)),
        ];
        let mut reports = Vec::with_capacity(plans.len());
        for opts in &plans {
            let mut rt = within(traced, "core.register", || {
                let mut rt = Runtime::with_config(
                    device(Target::Cpu, traced.then_some(&CPU)),
                    runtime_config(),
                );
                let variants = if traced {
                    self.timed[i].clone()
                } else {
                    w.variants(Target::Cpu).to_vec()
                };
                rt.add_kernels(&w.signature, variants);
                rt
            });
            let mut args = w.fresh_args();
            let report = within(traced, "core.launch", || {
                rt.launch(&w.signature, &mut args, w.total_units, opts)
            })
            .map_err(|e| format!("{} launch: {e}", w.name))?;
            within(traced, "workloads.verify", || w.verify(&args))
                .map_err(|e| format!("{} output: {e}", w.name))?;
            if traced {
                tally.traced_launch(&report);
                let (alloc, reuse) = rt.sandbox_stats();
                tally.pool.0 += alloc;
                tally.pool.1 += reuse;
            }
            reports.push(report);
        }
        Ok((times[best], reports))
    }
}

impl Bench for Cases {
    fn ops_per_pass(&self) -> usize {
        self.cases.len()
    }

    fn pass(&mut self, ctx: PassCtx, tally: &mut Tally) -> PassResult {
        let mut digest = Digest::default();
        let mut cycles = 0u64;
        let mut rel = Vec::new();
        for i in 0..self.cases.len() {
            if ctx.traced {
                trace::set_op(next_op());
            }
            // The sweep's threads count too: they exit inside the op.
            let (result, cost) = timed_op(cpu::process_s, || {
                within(ctx.traced, "op", || self.run_case(i, ctx.traced, tally))
            });
            trace::set_op(0);
            let profiled = match result {
                Ok((oracle, reports)) => {
                    for r in &reports {
                        digest.launch(r);
                        cycles += r.total_time.0;
                    }
                    rel.push(reports[0].total_time.0 as f64 / oracle as f64);
                    reports[0].profiled()
                }
                Err(e) => {
                    tally.fail(e);
                    false
                }
            };
            tally.op(cost, profiled, ctx.timed);
        }
        if self.rel.is_empty() {
            self.rel = rel;
        }
        PassResult {
            digest: digest.0,
            cycles,
        }
    }

    fn rel_oracle_geomean(&mut self, _tally: &mut Tally) -> f64 {
        crate::geomean(&self.rel)
    }
}
