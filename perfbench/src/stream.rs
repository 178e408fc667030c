//! `stream-gpu`: one main thread and one long-lived `Runtime` on the GPU
//! model, launching a fixed set of signatures the way an iterative
//! application does (§3.1): each application run launches every signature
//! `LAUNCHES_PER_RUN` times; the first launch micro-profiles, later ones
//! reuse the cached selection. One op is one `Runtime::launch` plus the
//! verification of its output.

use dysel_core::{LaunchOptions, LaunchReport, Runtime};
use dysel_workloads::{
    cutcp, histogram, sgemm, spmv_csr, spmv_jds, stencil, CsrMatrix, JdsMatrix, Target, Workload,
};

use crate::trace::{self, rebuild, within, GPU};
use crate::{
    cpu, device, next_op, runtime_config, timed_op, Bench, Digest, PassCtx, PassResult, Tally,
};

/// Launches of every signature per application run (one pass).
const LAUNCHES_PER_RUN: usize = 4;

/// Signatures, each above the 128-base-work-group profiling threshold.
/// Their count is odd, so the median op sits inside one signature's
/// cluster of op costs rather than on the gap between two.
fn signatures(seed: u64) -> Vec<Workload> {
    let random = CsrMatrix::random(8192, 8192, 0.01, seed);
    vec![
        spmv_csr::case4_workload("spmv-csr(random)", &random, seed),
        histogram::workload(1 << 18, histogram::Distribution::Uniform, seed),
        spmv_csr::case4_workload("spmv-csr(diagonal)", &CsrMatrix::diagonal(1 << 15), seed),
        spmv_jds::workload(&JdsMatrix::from_csr(&random), seed),
        sgemm::mixed_workload(256, seed),
        stencil::workload(64, seed),
        cutcp::workload(cutcp::Shape { n: 32, atoms: 200 }, seed),
    ]
}

fn register(workloads: &[Workload], traced: bool) -> Runtime {
    let mut rt = Runtime::with_config(
        device(Target::Gpu, traced.then_some(&GPU)),
        runtime_config(),
    );
    for w in workloads {
        let variants = if traced {
            let all: Vec<usize> = (0..w.variants(Target::Gpu).len()).collect();
            rebuild(w, Target::Gpu, &all, Some(&GPU))
                .variants(Target::Gpu)
                .to_vec()
        } else {
            w.variants(Target::Gpu).to_vec()
        };
        rt.add_kernels(&w.signature, variants);
    }
    rt
}

pub struct Stream {
    workloads: Vec<Workload>,
    bare: Runtime,
    timed: Option<Runtime>,
    /// Total time of each signature's profiling launch in the first pass.
    first: Vec<u64>,
}

impl Stream {
    pub fn new(seed: u64, traced: bool) -> Self {
        let workloads = within(traced, "workloads.build", || signatures(seed));
        let bare = register(&workloads, false);
        let timed = traced.then(|| within(true, "core.register", || register(&workloads, true)));
        Stream {
            workloads,
            bare,
            timed,
            first: Vec::new(),
        }
    }
}

fn launch(
    rt: &mut Runtime,
    w: &Workload,
    opts: &LaunchOptions,
    traced: bool,
) -> Result<LaunchReport, String> {
    let mut args = w.fresh_args();
    let report = within(traced, "core.launch", || {
        rt.launch(&w.signature, &mut args, w.total_units, opts)
    })
    .map_err(|e| format!("{} launch: {e}", w.name))?;
    within(traced, "workloads.verify", || w.verify(&args))
        .map_err(|e| format!("{} output: {e}", w.name))?;
    Ok(report)
}

impl Bench for Stream {
    fn ops_per_pass(&self) -> usize {
        self.workloads.len() * LAUNCHES_PER_RUN
    }

    fn pass(&mut self, ctx: PassCtx, tally: &mut Tally) -> PassResult {
        let rt = match (&mut self.timed, ctx.traced) {
            (Some(rt), true) => rt,
            _ => &mut self.bare,
        };
        let record_first = self.first.is_empty() && !ctx.traced;
        let mut digest = Digest::default();
        let mut cycles = 0u64;
        for k in 0..LAUNCHES_PER_RUN {
            let opts = if k == 0 {
                LaunchOptions::new()
            } else {
                LaunchOptions::new().without_profiling()
            };
            for w in &self.workloads {
                if ctx.traced {
                    trace::set_op(next_op());
                }
                let (result, cost) = timed_op(cpu::process_s, || {
                    within(ctx.traced, "op", || launch(rt, w, &opts, ctx.traced))
                });
                trace::set_op(0);
                let report = match result {
                    Ok(report) => report,
                    Err(e) => {
                        tally.fail(e);
                        tally.op(cost, false, ctx.timed);
                        continue;
                    }
                };
                if k == 0 && !report.profiled() {
                    tally.fail(format!(
                        "{}: profiling launch skipped ({:?})",
                        w.name, report.skipped
                    ));
                }
                if k == 0 && record_first {
                    self.first.push(report.total_time.0);
                }
                if ctx.traced {
                    tally.traced_launch(&report);
                }
                digest.launch(&report);
                cycles += report.total_time.0;
                tally.op(cost, report.profiled(), ctx.timed);
            }
        }
        if ctx.traced {
            tally.pool = rt.sandbox_stats();
        }
        PassResult {
            digest: digest.0,
            cycles,
        }
    }

    fn rel_oracle_geomean(&mut self, tally: &mut Tally) -> f64 {
        let mut rel = Vec::new();
        for (w, &dysel) in self.workloads.iter().zip(&self.first) {
            match crate::cases::sweep(w, Target::Gpu, false) {
                Ok(times) => {
                    let oracle = times.iter().copied().min().unwrap_or(1);
                    rel.push(dysel as f64 / oracle as f64);
                }
                Err(e) => tally.fail(e),
            }
        }
        crate::geomean(&rel)
    }
}
