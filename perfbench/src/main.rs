//! DySel host-time benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cases-cpu|stream-gpu|service-cpu> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop over a fixed list of ops (one "pass"),
//! repeated until `--seconds` have elapsed. The first pass warms caches
//! and pools and is not timed; its selections digest is checked against
//! `pinned.json`. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` every pass is run twice, once bare
//! and once through the timing wrappers, and the last line carries the
//! per-layer metrics (see `report.rs`).

mod cases;
mod cpu;
mod report;
mod service;
mod stream;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use dysel_core::{LaunchReport, RuntimeConfig};
use dysel_device::{CpuConfig, CpuDevice, Device, GpuConfig, GpuDevice};
use dysel_workloads::Target;

use trace::{Probe, TimedDevice};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Parsed command line.
pub struct Cli {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(report::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// FNV-1a over launch decisions: what a pass computed, independent of
/// host timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn fold(&mut self, bytes: &[u8]) {
        for b in bytes.iter().chain(&[0u8]) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one launch: its signature, winner and virtual total time.
    pub fn launch(&mut self, report: &LaunchReport) {
        self.fold(report.signature.as_bytes());
        self.fold(report.selected_name.as_bytes());
        self.fold(&report.total_time.0.to_le_bytes());
    }
}

/// The deterministic result of one pass: equal across traced and bare
/// passes, and pinned for the default seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassResult {
    pub digest: u64,
    /// Sum of `LaunchReport::total_time` over the pass.
    pub cycles: u64,
}

/// Host-side tallies of the ops a run executed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of every timed op, in ms.
    pub op_ms: Vec<f64>,
    /// CPU time of every timed op, in ms.
    pub op_cpu_ms: Vec<f64>,
    /// CPU time of the timed ops that micro-profiled, in ms.
    pub profiled_cpu_ms: Vec<f64>,
    /// Timed op CPU times by position in the pass, in ms.
    pub slot_cpu_ms: Vec<Vec<f64>>,
    /// Position of the next op in the current pass.
    pub cursor: usize,
    /// Failure messages (the first few are printed).
    pub errors: Vec<String>,
    /// Profiled launches, profiled variants and warm skips seen in traced
    /// passes.
    pub traced_profiled: u64,
    pub traced_variants: u64,
    pub traced_warm_skips: u64,
    /// Sandbox pool `(allocations, reuses)` of traced runtimes.
    pub pool: (u64, u64),
    /// Submissions of traced passes answered `Busy` (retried, not
    /// failures), and accepted.
    pub busy: u64,
    pub accepted: u64,
}

impl Tally {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Accounts one op: `timed` ops feed the latency samples.
    pub fn op(&mut self, cost: OpCost, profiled: bool, timed: bool) {
        self.attempted += 1;
        if timed {
            self.op_ms.push(cost.wall_ms);
            self.op_cpu_ms.push(cost.cpu_ms);
            if profiled {
                self.profiled_cpu_ms.push(cost.cpu_ms);
            }
            if self.slot_cpu_ms.len() <= self.cursor {
                self.slot_cpu_ms.resize_with(self.cursor + 1, Vec::new);
            }
            self.slot_cpu_ms[self.cursor].push(cost.cpu_ms);
        }
        self.cursor += 1;
    }

    /// Folds in the tally of another thread (op latencies keep no slot).
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.op_ms.extend(other.op_ms);
        self.op_cpu_ms.extend(other.op_cpu_ms);
        self.profiled_cpu_ms.extend(other.profiled_cpu_ms);
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.traced_profiled += other.traced_profiled;
        self.traced_variants += other.traced_variants;
        self.traced_warm_skips += other.traced_warm_skips;
        self.busy += other.busy;
        self.accepted += other.accepted;
    }

    /// Accounts one launch report of a traced pass.
    pub fn traced_launch(&mut self, report: &LaunchReport) {
        if report.profiled() {
            self.traced_profiled += 1;
        }
        self.traced_variants += report
            .measurements
            .iter()
            .filter(|m| m.measured < dysel_device::Cycles::MAX)
            .count() as u64;
        if report.skipped == Some(dysel_core::SkipReason::CachedSelection) {
            self.traced_warm_skips += 1;
        }
    }
}

/// Wall and CPU time of one op.
#[derive(Debug, Clone, Copy)]
pub struct OpCost {
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

/// Times an op: wall time, and the CPU time `cpu_s` reads before and after.
pub fn timed_op<T>(cpu_s: impl Fn() -> f64, f: impl FnOnce() -> T) -> (T, OpCost) {
    let (t, c) = (Instant::now(), cpu_s());
    let out = f();
    let cost = OpCost {
        cpu_ms: (cpu_s() - c) * 1e3,
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
    };
    (out, cost)
}

/// Everything a pass needs to know about how it runs.
#[derive(Debug, Clone, Copy)]
pub struct PassCtx {
    /// Run the wrapped instance and record spans.
    pub traced: bool,
    /// Feed op latencies into the tally (false for the warm-up pass).
    pub timed: bool,
}

/// A fresh device of the `target` model with a serial functional executor,
/// timed into `probe` when one is given.
pub fn device(target: Target, probe: Option<&'static Probe>) -> Box<dyn Device> {
    let dev: Box<dyn Device> = match target {
        Target::Cpu => Box::new(CpuDevice::new(CpuConfig {
            threads: 1,
            ..CpuConfig::default()
        })),
        Target::Gpu => Box::new(GpuDevice::new(GpuConfig {
            threads: 1,
            ..GpuConfig::kepler_k20c()
        })),
    };
    match probe {
        Some(p) => TimedDevice::wrap(dev, p),
        None => dev,
    }
}

/// Runtime configuration of every runtime and service lane: private
/// address spaces make each launch's virtual time a function of its own
/// runtime's history, so bare and traced passes price identically.
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        private_addrs: true,
        ..RuntimeConfig::default()
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Hands out op ids for span tagging (0 means "no op").
pub fn next_op() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Relaxed)
}

/// A workload after set-up.
pub trait Bench {
    /// Ops in one pass.
    fn ops_per_pass(&self) -> usize;
    /// Whether a pass's ops overlap in time (several clients).
    fn concurrent(&self) -> bool {
        false
    }
    /// Runs one pass over the fixed op list.
    fn pass(&mut self, ctx: PassCtx, tally: &mut Tally) -> PassResult;
    /// Quality measurement after the timed window (bare instance only):
    /// DySel's total time over the oracle's, geomean over the op list.
    fn rel_oracle_geomean(&mut self, tally: &mut Tally) -> f64;
    /// End-of-run work of the traced instance (service persistence);
    /// returns extra per-layer metrics.
    fn finish_traced(&mut self, tally: &mut Tally) -> Vec<(&'static str, f64)> {
        let _ = tally;
        Vec::new()
    }
}

fn build(cli: &Cli, traced: bool) -> Result<Box<dyn Bench>, String> {
    Ok(match cli.workload.as_str() {
        "cases-cpu" => Box::new(cases::Cases::new(cli.seed, traced)),
        "stream-gpu" => Box::new(stream::Stream::new(cli.seed, traced)),
        "service-cpu" => Box::new(service::Service::new(cli.seed, traced)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Measured facts of a run, handed to the reporters.
pub struct Run {
    /// CPU seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed bare pass.
    pub bare_pass_s: Vec<f64>,
    /// CPU seconds of each timed bare pass.
    pub bare_pass_cpu_s: Vec<f64>,
    /// Wall time of each timed traced pass.
    pub traced_pass_s: Vec<f64>,
    pub ops_per_pass: usize,
    pub concurrent: bool,
    pub first: PassResult,
    /// Start of the measurement loop on the span clock's timeline: spans
    /// that closed before it belong to set-up.
    pub loop_start_ns: u64,
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={} mem_total_mib={:.0}",
        cli.workload,
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        report::nproc(),
        report::mem_total_mib()
    );

    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let c = cpu::process_s();
        match build(&cli, cli.trace) {
            Ok(b) => bench = Some(b),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::from(1);
            }
        }
        setup_s.push(cpu::process_s() - c);
    }
    let mut bench = bench.expect("at least one set-up ran");

    let mut tally = Tally::default();
    let mut mismatches = 0u64;
    let mut bare_pass_s = Vec::new();
    let mut bare_pass_cpu_s = Vec::new();
    let mut traced_pass_s = Vec::new();
    let mut first = None;
    let loop_start_ns = trace::clock_ns();
    let start = Instant::now();
    for pass in 0.. {
        let timed = pass > 0;
        tally.cursor = 0;
        let (bare, cost) = timed_op(cpu::process_s, || {
            bench.pass(
                PassCtx {
                    traced: false,
                    timed,
                },
                &mut tally,
            )
        });
        if timed {
            bare_pass_s.push(cost.wall_ms / 1e3);
            bare_pass_cpu_s.push(cost.cpu_ms / 1e3);
        }
        if cli.trace {
            let t = Instant::now();
            let traced = bench.pass(
                PassCtx {
                    traced: true,
                    timed: false,
                },
                &mut tally,
            );
            if timed {
                traced_pass_s.push(t.elapsed().as_secs_f64());
            }
            if traced != bare {
                mismatches += 1;
                tally.fail(format!(
                    "pass {pass}: traced {traced:?} differs from bare {bare:?}"
                ));
            }
        }
        first.get_or_insert(bare);
        if pass >= 2 && start.elapsed().as_secs_f64() >= cli.seconds {
            break;
        }
    }
    let first = first.expect("at least one pass ran");
    let run = Run {
        setup_s,
        bare_pass_s,
        bare_pass_cpu_s,
        traced_pass_s,
        ops_per_pass: bench.ops_per_pass(),
        concurrent: bench.concurrent(),
        first,
        loop_start_ns,
    };

    eprintln!(
        "perfbench: bare pass seconds {:?}",
        run.bare_pass_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    let pinned_ok = report::check_pinned(&cli, first);
    let metrics = if cli.trace {
        let extra = bench.finish_traced(&mut tally);
        report::per_layer(&run, &tally, &extra)
    } else {
        let rel = bench.rel_oracle_geomean(&mut tally);
        report::end_to_end(&run, &tally, rel)
    };
    drop(bench);
    if cli.trace {
        if let Err(e) = report::write_spans(&cli) {
            eprintln!("perfbench: spans not written: {e}");
        }
    }

    for e in &tally.errors {
        eprintln!("perfbench: failure: {e}");
    }
    eprintln!(
        "perfbench: digest={:016x} virtual_cycles={} passes={} ops_per_pass={} op_samples={} profiled_samples={} trace_mismatches={mismatches}",
        first.digest,
        first.cycles,
        run.bare_pass_s.len() + 1,
        run.ops_per_pass,
        tally.op_ms.len(),
        tally.profiled_cpu_ms.len(),
    );
    let correct = tally.failed == 0 && pinned_ok && mismatches == 0;
    println!(
        "{}",
        report::result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}
