//! Shared experiment machinery: the [`Harness`] that carries the
//! command-line settings into every experiment, the standard workload
//! suite (paper §4.1 inputs, scaled to simulator-friendly sizes), and the
//! oracle/DySel case runner behind Figs. 8-11.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use dysel_baselines::{exhaustive_sweep, SweepResult};
use dysel_core::{
    DyselError, FaultPlan, InitialSelection, LaunchOptions, LaunchReport, PredictLevel, PruneLevel,
    Runtime, RuntimeConfig, SkipReason,
};
use dysel_device::{CpuConfig, CpuDevice, Cycles, Device, GpuConfig, GpuDevice};
use dysel_kernel::{fnv1a, Orchestration, FNV_OFFSET};
use dysel_obs::EventSink;
use dysel_predict::Model;
use dysel_workloads::{Target, Workload};

/// The settings every experiment runs under (the `experiments` flags),
/// plus the run's launch ledger. The default is the plain paper setup:
/// auto threads, no faults, stateless, unobserved, no pruning or
/// prediction.
#[derive(Debug, Default)]
pub struct Harness {
    /// Worker threads of each fresh [`Harness::device`]'s functional
    /// executor (`--threads`; `0` = auto). Virtual-time results are
    /// identical for every count — this trades host wall-clock only.
    pub threads: usize,
    /// Fault plan installed on every [`Harness::device`] (`--fault-plan`),
    /// never on an [`Harness::oracle_device`]. Each device gets its own
    /// clone with zeroed launch counters, so runs stay independent and
    /// reproducible.
    pub fault_plan: Option<FaultPlan>,
    /// Selection-state file (`--state-file`): every
    /// [`run_dysel`](Harness::run_dysel) runtime warm-starts from it and
    /// saves the merged state back after its launch; the stress driver's
    /// service persists to it.
    pub state_file: Option<PathBuf>,
    /// Dominance-pruning level of every [`run_dysel`](Harness::run_dysel)
    /// runtime (`--prune`).
    pub prune: PruneLevel,
    /// Prediction level of every [`run_dysel`](Harness::run_dysel) runtime
    /// (`--predict`).
    pub predict: PredictLevel,
    /// Trained model of every [`run_dysel`](Harness::run_dysel) runtime
    /// (`--predict-model`); without one nothing is predicted.
    pub predict_model: Option<Arc<Model>>,
    /// Event sink every [`run_dysel`](Harness::run_dysel) runtime emits
    /// into (`--trace-out` / `--metrics-out`). One sink spans the run, so
    /// the exported trace holds every launch in execution order; without
    /// one the runs are bit-identical to an unobserved build.
    pub observer: Option<Arc<EventSink>>,
    /// Whether a state-file problem was already reported (warn once).
    state_warned: AtomicBool,
    /// Launch ledger: every [`run_dysel`](Harness::run_dysel) records here.
    summary: Mutex<RunSummary>,
}

/// Why a case could not produce its figure.
#[derive(Debug)]
pub enum CaseError {
    /// The DySel launch itself failed.
    LaunchFailed {
        /// Workload name.
        workload: String,
        /// The runtime's error.
        error: DyselError,
    },
    /// The DySel launch completed but its output failed verification.
    WrongOutput {
        /// Workload name.
        workload: String,
        /// What the verifier found.
        detail: String,
    },
}

impl fmt::Display for CaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseError::LaunchFailed { workload, error } => {
                write!(f, "DySel launch of {workload} failed: {error}")
            }
            CaseError::WrongOutput { workload, detail } => {
                write!(f, "DySel output of {workload} is wrong: {detail}")
            }
        }
    }
}

impl std::error::Error for CaseError {}

/// A fresh default device for `target` (4-core i7-3820-like CPU or Kepler
/// K20c-like GPU, seeded noise) with `threads` workers and `plan`.
fn new_device(target: Target, threads: usize, plan: Option<FaultPlan>) -> Box<dyn Device> {
    let mut dev: Box<dyn Device> = match target {
        Target::Cpu => Box::new(CpuDevice::new(CpuConfig {
            threads,
            ..CpuConfig::default()
        })),
        Target::Gpu => Box::new(GpuDevice::new(GpuConfig {
            threads,
            ..GpuConfig::kepler_k20c()
        })),
    };
    dev.set_fault_plan(plan);
    dev
}

impl Harness {
    /// A fresh default device for `target` under the harness's thread
    /// count and fault plan.
    pub fn device(&self, target: Target) -> Box<dyn Device> {
        new_device(target, self.threads, self.fault_plan.clone())
    }

    /// [`Harness::device`] as a factory that owns its settings, for
    /// owners that outlive the harness borrow (the launch service).
    pub fn factory(&self, target: Target) -> impl Fn() -> Box<dyn Device> + Send + Sync + 'static {
        let (threads, plan) = (self.threads, self.fault_plan.clone());
        move || new_device(target, threads, plan.clone())
    }

    /// A fresh default device for `target` on the oracle side: the
    /// harness's thread count but no fault plan, since the paper's oracle
    /// is the best pure variant on a healthy machine.
    pub fn oracle_device(&self, target: Target) -> Box<dyn Device> {
        new_device(target, self.threads, None)
    }

    /// The exhaustive pure-variant sweep over fault-free devices like
    /// [`Harness::oracle_device`], but with one worker each:
    /// [`exhaustive_sweep`] already runs `available_parallelism` of them at
    /// once.
    pub fn sweep(&self, w: &Workload, target: Target) -> SweepResult {
        exhaustive_sweep(w, target, || new_device(target, 1, None))
    }

    /// Snapshot of the run's launch/fault/selection summary so far.
    pub fn summary(&self) -> RunSummary {
        self.summary
            .lock()
            .expect("a run_dysel call panicked mid-record")
            .clone()
    }

    fn warn_state_once(&self, msg: &str) {
        if !self.state_warned.swap(true, Ordering::Relaxed) {
            eprintln!("warning: {msg}");
        }
    }

    /// Runs one DySel launch on a fresh device, verifying the output.
    ///
    /// # Errors
    ///
    /// [`CaseError`] when the launch fails or its output is wrong.
    pub fn run_dysel(
        &self,
        w: &Workload,
        target: Target,
        opts: &LaunchOptions,
    ) -> Result<LaunchReport, CaseError> {
        let mut rt = Runtime::with_config(
            self.device(target),
            RuntimeConfig {
                state_path: self.state_file.clone(),
                observe: self.observer.clone(),
                prune: self.prune,
                predict: self.predict,
                predict_model: self.predict_model.clone(),
                ..RuntimeConfig::default()
            },
        );
        if let Some(e) = rt.state_load_error() {
            self.warn_state_once(&format!("selection state ignored, cold start: {e}"));
        }
        rt.add_kernels(&w.signature, w.variants(target).to_vec());
        let mut args = w.fresh_args();
        let report = rt
            .launch(&w.signature, &mut args, w.total_units, opts)
            .map_err(|error| CaseError::LaunchFailed {
                workload: w.name.clone(),
                error,
            })?;
        w.verify(&args).map_err(|detail| CaseError::WrongOutput {
            workload: w.name.clone(),
            detail,
        })?;
        self.summary
            .lock()
            .expect("a run_dysel call panicked mid-record")
            .record(&report);
        if self.state_file.is_some() {
            // Load-merge-save per launch: the fresh runtime warm-started
            // from the file above, so saving writes the union of every
            // signature seen so far, atomically.
            if let Err(e) = rt.save_state() {
                self.warn_state_once(&format!("selection state not saved: {e}"));
            }
        }
        Ok(report)
    }

    /// Runs the full case: exhaustive sweep plus DySel under sync and
    /// async (best/worst initial) orchestrations.
    ///
    /// # Errors
    ///
    /// The first DySel run's [`CaseError`].
    pub fn run_case(&self, w: &Workload, target: Target) -> Result<CaseResult, CaseError> {
        let sweep = self.sweep(w, target);
        let names = w
            .variants(target)
            .iter()
            .map(|v| v.name().to_owned())
            .collect();
        let (best, worst) = (sweep.best().0, sweep.worst().0);
        let run = |opts: LaunchOptions| self.run_dysel(w, target, &opts);
        let sync_report = run(LaunchOptions::new().with_orchestration(Orchestration::Sync))?;
        let async_best_report =
            run(LaunchOptions::new().with_initial(InitialSelection::Index(best.0)))?;
        let async_worst_report =
            run(LaunchOptions::new().with_initial(InitialSelection::Index(worst.0)))?;
        Ok(CaseResult {
            sweep,
            names,
            dysel: DyselTimes {
                sync: sync_report.total_time,
                async_best: async_best_report.total_time,
                async_worst: async_worst_report.total_time,
                sync_report,
                async_best_report,
            },
        })
    }
}

/// Aggregate over every DySel launch a run performed via
/// [`Harness::run_dysel`]: the numbers behind the one-line end-of-run
/// summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// DySel launches performed.
    pub launches: u64,
    /// Launches that ran micro-profiling (zero on a warm restart).
    pub profiled: u64,
    /// Variants actually micro-profiled across all launches (pruned and
    /// quarantined variants carry sentinel measurements and are not
    /// counted) — the number that must shrink under `PruneLevel::On`.
    pub profiled_variants: u64,
    /// Launches that reused a cached/persisted selection instead.
    pub warm_skips: u64,
    /// Launch failures observed (including failed retries).
    pub launch_errors: u64,
    /// Retries issued for transient launch failures.
    pub retries: u64,
    /// Variants dropped for blowing the profiling deadline.
    pub deadline_discards: u64,
    /// Launches cooperatively preempted by the cycle-budget subsystem.
    pub preemptions: u64,
    /// Variants caught by output validation.
    pub validation_failures: u64,
    /// Productive profiling slices re-executed with the winner.
    pub repaired_slices: u64,
    /// Variants quarantined across all launches.
    pub quarantined: u64,
    /// Variants excluded (or, in audit mode, flagged for exclusion) from
    /// micro-profiling by static dominance pruning.
    pub pruned: u64,
    /// Audit-mode pruning disagreements: launches whose winner the
    /// dominance rule would have pruned.
    pub prune_disagreements: u64,
    /// Launches whose model prediction matched the final selection.
    pub predict_hits: u64,
    /// Launches whose model prediction missed.
    pub predict_misses: u64,
    /// Launches whose drift watch invalidated the reused selection (the
    /// following launch of that signature re-profiled).
    pub drift_reprofiles: u64,
    /// FNV-1a digest over the `(signature, selected name)` sequence, in
    /// launch order. Deterministic run order makes equal digests mean
    /// "every launch selected the same winner" — what the warm-restart
    /// smoke compares between a cold and a warm invocation.
    pub selections_digest: u64,
}

impl Default for RunSummary {
    fn default() -> Self {
        RunSummary {
            launches: 0,
            profiled: 0,
            profiled_variants: 0,
            warm_skips: 0,
            launch_errors: 0,
            retries: 0,
            deadline_discards: 0,
            preemptions: 0,
            validation_failures: 0,
            repaired_slices: 0,
            quarantined: 0,
            pruned: 0,
            prune_disagreements: 0,
            predict_hits: 0,
            predict_misses: 0,
            drift_reprofiles: 0,
            selections_digest: FNV_OFFSET,
        }
    }
}

impl RunSummary {
    fn fold(&mut self, bytes: &[u8]) {
        self.selections_digest = fnv1a(fnv1a(self.selections_digest, bytes), &[0]);
    }

    fn record(&mut self, report: &LaunchReport) {
        self.launches += 1;
        if report.profiled() {
            self.profiled += 1;
        }
        self.profiled_variants += report
            .measurements
            .iter()
            .filter(|m| m.measured < dysel_device::Cycles::MAX)
            .count() as u64;
        if report.skipped == Some(SkipReason::CachedSelection) {
            self.warm_skips += 1;
        }
        self.launch_errors += report.faults.launch_errors;
        self.retries += report.faults.retries;
        self.deadline_discards += report.faults.deadline_discards;
        self.preemptions += report.faults.preemptions;
        self.validation_failures += report.faults.validation_failures;
        self.repaired_slices += report.faults.repaired_slices;
        self.quarantined += report.faults.quarantined.len() as u64;
        self.pruned += report.pruned_variants;
        self.prune_disagreements += u64::from(report.prune_disagreement);
        match report.predict_hit {
            Some(true) => self.predict_hits += 1,
            Some(false) => self.predict_misses += 1,
            None => {}
        }
        self.drift_reprofiles += u64::from(report.drift_reprofiled);
        self.fold(report.signature.as_bytes());
        self.fold(report.selected_name.as_bytes());
    }

    /// The one-line end-of-run rendering.
    pub fn line(&self) -> String {
        format!(
            "run summary: launches={} profiled={} profiled-variants={} \
             warm-skips={} \
             faults[errors={} retries={} deadline={} preempted={} \
             wrong-output={} repaired={}] quarantined={} pruned={} \
             prune-disagreements={} predict-hits={} predict-misses={} \
             drift-reprofiles={} selections={:016x}",
            self.launches,
            self.profiled,
            self.profiled_variants,
            self.warm_skips,
            self.launch_errors,
            self.retries,
            self.deadline_discards,
            self.preemptions,
            self.validation_failures,
            self.repaired_slices,
            self.quarantined,
            self.pruned,
            self.prune_disagreements,
            self.predict_hits,
            self.predict_misses,
            self.drift_reprofiles,
            self.selections_digest,
        )
    }
}

/// DySel execution times for the three orchestration bars of the figures.
#[derive(Debug, Clone)]
pub struct DyselTimes {
    /// Synchronous flow.
    pub sync: Cycles,
    /// Asynchronous flow, best-variant initial selection.
    pub async_best: Cycles,
    /// Asynchronous flow, worst-variant initial selection.
    pub async_worst: Cycles,
    /// Launch report of the synchronous run (selection, overheads, ...).
    pub sync_report: LaunchReport,
    /// Launch report of the async-best run.
    pub async_best_report: LaunchReport,
}

/// Everything the per-workload figures need: the pure-variant sweep and
/// the DySel runs.
#[derive(Debug)]
pub struct CaseResult {
    /// Pure-variant whole-workload times (oracle/worst/named bars).
    pub sweep: SweepResult,
    /// Variant names, in variant order.
    pub names: Vec<String>,
    /// DySel times.
    pub dysel: DyselTimes,
}

impl CaseResult {
    /// Relative time of a scheme over the oracle.
    pub fn rel(&self, t: Cycles) -> f64 {
        t.ratio_over(self.sweep.best().1)
    }

    /// Relative time of a named pure variant over the oracle.
    pub fn rel_variant(&self, name: &str) -> f64 {
        let idx = self
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("unknown variant {name}"));
        self.sweep.times[idx].1.ratio_over(self.sweep.best().1)
    }
}

/// The standard experiment inputs: the paper's §4.1 setup scaled to sizes
/// the deterministic simulator sweeps in seconds.
pub mod suite {
    use dysel_workloads::{
        cutcp, kmeans, particlefilter, sgemm, spmv_csr, spmv_jds, stencil, CsrMatrix, JdsMatrix,
        Workload,
    };

    /// Rows/cols of the "random" sparse matrix (paper: 16k x 16k, 1%).
    pub const SPMV_N: usize = 16384;
    /// Rows of the diagonal matrix (paper: 2M; scaled 2x down).
    pub const DIAG_N: usize = 1 << 20;
    /// sgemm matrix edge.
    pub const SGEMM_N: usize = 256;
    /// stencil grid edge.
    pub const STENCIL_N: usize = 96;
    /// Master input seed.
    pub const SEED: u64 = 42;

    /// The SHOC random sparse matrix.
    pub fn random_matrix() -> CsrMatrix {
        CsrMatrix::random(SPMV_N, SPMV_N, 0.01, SEED)
    }

    /// The diagonal matrix of Case IV.
    pub fn diagonal_matrix() -> CsrMatrix {
        CsrMatrix::diagonal(DIAG_N)
    }

    /// spmv-csr with the Case IV variant grid, random input.
    pub fn spmv_csr_random() -> Workload {
        spmv_csr::case4_workload("spmv-csr(random)", &random_matrix(), SEED)
    }

    /// spmv-csr with the Case IV variant grid, diagonal input.
    pub fn spmv_csr_diagonal() -> Workload {
        spmv_csr::case4_workload("spmv-csr(diagonal)", &diagonal_matrix(), SEED)
    }

    /// spmv-csr with the Case I two-schedule CPU set, random input.
    pub fn spmv_csr_sched_random() -> Workload {
        let m = random_matrix();
        spmv_csr::workload(
            "spmv-csr(random)",
            &m,
            SEED,
            spmv_csr::cpu_schedule_variants(m.rows),
            spmv_csr::gpu_case4_variants(m.rows),
        )
    }

    /// spmv-csr with the Case I two-schedule CPU set, diagonal input.
    pub fn spmv_csr_sched_diagonal() -> Workload {
        let m = diagonal_matrix();
        spmv_csr::workload(
            "spmv-csr(diagonal)",
            &m,
            SEED,
            spmv_csr::cpu_schedule_variants(m.rows),
            spmv_csr::gpu_case4_variants(m.rows),
        )
    }

    /// spmv-csr with the Case II placement candidates, random input.
    pub fn spmv_csr_placements() -> Workload {
        spmv_csr::placement_workload("spmv-csr", &random_matrix(), SEED)
    }

    /// spmv-jds (Cases I & III).
    pub fn spmv_jds_std() -> Workload {
        spmv_jds::workload(&JdsMatrix::from_csr(&random_matrix()), SEED)
    }

    /// spmv-jds Fig. 1 vector-width candidates.
    pub fn spmv_jds_vec() -> Workload {
        spmv_jds::vector_workload(&JdsMatrix::from_csr(&random_matrix()), SEED)
    }

    /// sgemm with the six Case I schedules.
    pub fn sgemm_schedules() -> Workload {
        sgemm::schedules_workload(SGEMM_N, SEED)
    }

    /// sgemm with the Case III mixed-optimization candidates (CPU size).
    pub fn sgemm_mixed() -> Workload {
        sgemm::mixed_workload(SGEMM_N, SEED)
    }

    /// sgemm edge for the GPU experiments (bigger: GPUs have 13 SMs to
    /// fill, so the profiling slice must stay a small workload fraction).
    pub const SGEMM_N_GPU: usize = 512;

    /// sgemm mixed candidates at the GPU experiment size.
    pub fn sgemm_mixed_gpu() -> Workload {
        sgemm::mixed_workload(SGEMM_N_GPU, SEED)
    }

    /// sgemm Fig. 1 vector-width candidates.
    pub fn sgemm_vec() -> Workload {
        sgemm::vector_workload(SGEMM_N, SEED)
    }

    /// stencil (Cases I & III).
    pub fn stencil_std() -> Workload {
        stencil::workload(STENCIL_N, SEED)
    }

    /// cutcp with the full 60-schedule Case I set.
    pub fn cutcp_schedules() -> Workload {
        cutcp::workload(cutcp::Shape { n: 64, atoms: 4000 }, SEED)
    }

    /// cutcp with the two Case III candidates.
    pub fn cutcp_mixed() -> Workload {
        cutcp::mixed_workload(cutcp::Shape { n: 64, atoms: 4000 }, SEED)
    }

    /// kmeans (Case I).
    pub fn kmeans_std() -> Workload {
        kmeans::workload(
            kmeans::Shape {
                n: 16384,
                d: 16,
                k: 8,
            },
            SEED,
        )
    }

    /// particlefilter with the Case II placement candidates
    /// (paper input size: 32,000 particles).
    pub fn particlefilter_std() -> Workload {
        particlefilter::workload(
            particlefilter::Shape {
                particles: 32768,
                window: 64,
                frame: 1 << 16,
            },
            SEED,
        )
    }

    /// Every suite workload plus the histogram patterns (which the figure
    /// harness drives separately), under stable names — the set the lint
    /// binary audits and the `--features-out` export walks.
    pub fn audit_suite() -> Vec<(&'static str, Workload)> {
        use dysel_workloads::histogram;
        vec![
            ("spmv-csr-random", spmv_csr_random()),
            ("spmv-csr-diagonal", spmv_csr_diagonal()),
            ("spmv-csr-sched-random", spmv_csr_sched_random()),
            ("spmv-csr-sched-diagonal", spmv_csr_sched_diagonal()),
            ("spmv-csr-placements", spmv_csr_placements()),
            ("spmv-jds", spmv_jds_std()),
            ("spmv-jds-vec", spmv_jds_vec()),
            ("sgemm-schedules", sgemm_schedules()),
            ("sgemm-mixed", sgemm_mixed()),
            ("sgemm-mixed-gpu", sgemm_mixed_gpu()),
            ("sgemm-vec", sgemm_vec()),
            ("stencil", stencil_std()),
            ("cutcp-schedules", cutcp_schedules()),
            ("cutcp-mixed", cutcp_mixed()),
            ("kmeans", kmeans_std()),
            ("particlefilter", particlefilter_std()),
            (
                "histogram-uniform",
                histogram::workload(1 << 16, histogram::Distribution::Uniform, SEED),
            ),
            (
                "histogram-skewed",
                histogram::workload(1 << 16, histogram::Distribution::Skewed, SEED),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_case_produces_consistent_relatives() {
        let w = suite::kmeans_std();
        let case = Harness::default().run_case(&w, Target::Cpu).unwrap();
        assert_eq!(case.names.len(), 3);
        // Oracle relative is 1.0 by definition.
        let best_name = case.names[case.sweep.best().0 .0].clone();
        assert!((case.rel_variant(&best_name) - 1.0).abs() < 1e-9);
        // DySel lands near the oracle (well under the worst variant).
        assert!(case.rel(case.dysel.sync) < case.sweep.spread());
    }
}
