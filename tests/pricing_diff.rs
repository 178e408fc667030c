//! The `pricing_diff` differential family: scalar vs batched pricing.
//!
//! The device cost models carry two implementations of every trace
//! reduction — the element-by-element scalar reference and the chunked
//! fixed-width-lane fast path (`dysel-device/src/cycles/lanes.rs`),
//! selected at runtime via [`set_pricing_path`]. Their contract
//! (DESIGN.md §4.15) is **bit-identity**: timelines, launch reports,
//! selection digests, output buffers and observability exports must match
//! byte for byte, at any worker-thread count. This suite runs the full
//! 18-workload × both-target matrix through both paths at 1, 2 and 8
//! threads and diffs everything, then replays the `tests/faults.rs`
//! fault-class matrix (including deadline/preemption watermarks, which
//! are priced-cycle-accurate) under both paths.
//!
//! Sizes are scaled down from the paper inputs so the matrix stays quick
//! in debug builds; `scripts/bench.sh` covers the paper-scale suite.

use std::sync::{Arc, Mutex, MutexGuard};

mod common;

use common::{device, suite};
use dysel::core::{DyselError, LaunchOptions, LaunchReport, Runtime, RuntimeConfig, Timeline};
use dysel::device::{
    set_pricing_path, CpuConfig, CpuDevice, Device, FaultKind, FaultPlan, FaultRule, PricingPath,
};
use dysel::kernel::{
    Args, Buffer, KernelIr, Orchestration, ProfilingMode, Space, Variant, VariantId, VariantMeta,
};
use dysel::obs::{chrome_trace, jsonl, EventSink};
use dysel::workloads::{Target, Workload};

/// The pricing path is a process-wide switch and the device reads it when
/// it prices a launch, so every differential run holds this lock from
/// "set the path" through "launch finished".
static PATH_LOCK: Mutex<()> = Mutex::new(());

fn path_lock() -> MutexGuard<'static, ()> {
    PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Everything one observed DySel launch produces, byte-comparable.
struct RunArtifacts {
    report: LaunchReport,
    timeline: Timeline,
    args: Args,
    trace: String,
    jsonl: String,
    metrics: String,
}

/// One full DySel launch of `w` under the given path/thread setting, with
/// the observability tap on. Holds the path lock for the whole launch so
/// concurrent tests cannot flip the path mid-run.
fn run_one(w: &Workload, target: Target, threads: usize, path: PricingPath) -> RunArtifacts {
    let _guard = path_lock();
    set_pricing_path(Some(path));
    let sink = Arc::new(EventSink::new());
    let mut rt = Runtime::with_config(
        device(target, threads),
        RuntimeConfig {
            profile_threshold_groups: 16,
            observe: Some(sink.clone()),
            ..RuntimeConfig::default()
        },
    );
    rt.add_kernels(&w.signature, w.variants(target).to_vec());
    let mut args = w.fresh_args();
    let report = rt
        .launch(
            &w.signature,
            &mut args,
            w.total_units,
            &LaunchOptions::new(),
        )
        .unwrap_or_else(|e| panic!("{} [{target}]: {e}", w.name));
    w.verify(&args)
        .unwrap_or_else(|e| panic!("{} [{target}] output: {e}", w.name));
    set_pricing_path(None);
    let events = sink.events();
    RunArtifacts {
        report,
        timeline: rt.last_timeline().clone(),
        args,
        trace: chrome_trace(&events),
        jsonl: jsonl(&events),
        metrics: sink.metrics_snapshot().render(),
    }
}

fn assert_identical(label: &str, got: &RunArtifacts, want: &RunArtifacts) {
    assert_eq!(got.report, want.report, "{label}: launch report diverged");
    assert_eq!(got.timeline, want.timeline, "{label}: timeline diverged");
    assert_eq!(got.args.len(), want.args.len(), "{label}: arg count");
    for i in 0..want.args.len() {
        let (a, b) = (got.args.buffer(i).unwrap(), want.args.buffer(i).unwrap());
        assert!(
            !a.bits_differ(b).unwrap(),
            "{label}: buffer {i} ({}) diverged bit-wise",
            a.name()
        );
    }
    assert_eq!(got.trace, want.trace, "{label}: chrome trace diverged");
    assert_eq!(got.jsonl, want.jsonl, "{label}: jsonl export diverged");
    assert_eq!(got.metrics, want.metrics, "{label}: metrics diverged");
}

/// FNV-1a over the `(signature, selected name)` sequence — the same digest
/// the experiment harness prints as `selections=`.
fn fold_selection(digest: &mut u64, report: &LaunchReport) {
    for bytes in [report.signature.as_bytes(), report.selected_name.as_bytes()] {
        for b in bytes.iter().chain(&[0u8]) {
            *digest ^= u64::from(*b);
            *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The differential matrix for a set of workloads: batched at 1 thread is
/// the baseline; scalar and batched at 1, 2 and 8 threads must all
/// reproduce it bit-for-bit, and the accumulated selection digests of the
/// scalar and batched sweeps must agree.
fn diff_workloads(workloads: &[Workload]) {
    let mut digest_scalar = 0xcbf2_9ce4_8422_2325u64;
    let mut digest_batched = digest_scalar;
    for w in workloads {
        for target in [Target::Cpu, Target::Gpu] {
            if w.variants(target).is_empty() {
                continue;
            }
            let baseline = run_one(w, target, 1, PricingPath::Batched);
            fold_selection(&mut digest_batched, &baseline.report);
            let scalar = run_one(w, target, 1, PricingPath::Scalar);
            fold_selection(&mut digest_scalar, &scalar.report);
            assert_identical(
                &format!("{} [{target}] scalar@1", w.name),
                &scalar,
                &baseline,
            );
            for threads in [2usize, 8] {
                for path in [PricingPath::Scalar, PricingPath::Batched] {
                    let got = run_one(w, target, threads, path);
                    let label = format!("{} [{target}] {path:?}@{threads}", w.name);
                    assert_identical(&label, &got, &baseline);
                }
            }
        }
    }
    assert_eq!(
        digest_scalar, digest_batched,
        "scalar and batched selection digests diverged"
    );
}

#[test]
fn pricing_diff_sgemm_and_stencil() {
    let s = suite();
    diff_workloads(&[s[0].clone(), s[1].clone(), s[2].clone(), s[11].clone()]);
}

#[test]
fn pricing_diff_spmv_formats() {
    let s = suite();
    diff_workloads(&s[3..11]);
}

#[test]
fn pricing_diff_cutcp() {
    let s = suite();
    diff_workloads(&s[12..14]);
}

#[test]
fn pricing_diff_kmeans_particlefilter_histogram() {
    let s = suite();
    diff_workloads(&s[14..18]);
}

// ---- fault-path differential --------------------------------------------
//
// The graceful-degradation ladder is driven entirely by priced cycles:
// retry budgets, quarantine decisions, deadline discards and cooperative
// preemption watermarks all compare priced virtual time. A pricing path
// that drifted by even one cycle could flip a budget boundary, so the
// `tests/faults.rs` fault-class matrix is replayed here under both paths
// and every report (including `faults.preempted_cycles`) must agree.

const N: u64 = 4096;

fn writer(name: &str, cost: u64) -> Variant {
    Variant::from_fn(
        VariantMeta::new(name, KernelIr::regular(vec![0])),
        move |ctx, args| {
            for u in ctx.units().iter() {
                let x = args.f32(1).unwrap()[u as usize];
                args.f32_mut(0).unwrap()[u as usize] = 2.0 * x + 1.0;
                ctx.vector_compute(cost, 8, 8, 1);
            }
        },
    )
}

fn fault_args() -> Args {
    let mut a = Args::new();
    a.push(Buffer::f32("out", vec![0.0; N as usize], Space::Global));
    a.push(Buffer::f32(
        "in",
        (0..N).map(|i| i as f32).collect(),
        Space::Global,
    ));
    a
}

fn fault_runtime(plan: Option<FaultPlan>) -> Runtime {
    let mut dev = CpuDevice::new(CpuConfig::noiseless());
    dev.set_fault_plan(plan);
    let mut rt = Runtime::with_config(
        Box::new(dev),
        RuntimeConfig {
            profile_threshold_groups: 16,
            validate_outputs: true,
            profile_deadline_factor: Some(8.0),
            ..RuntimeConfig::default()
        },
    );
    rt.add_kernels(
        "triple",
        [
            writer("a-slow", 12),
            writer("b-mid", 8),
            writer("c-fast", 4),
        ],
    );
    rt
}

type FaultOutcome = (
    Result<LaunchReport, String>,
    Vec<u32>,
    Vec<(VariantId, dysel::core::QuarantineReason)>,
);

fn fault_launch(
    plan: Option<FaultPlan>,
    mode: ProfilingMode,
    orch: Orchestration,
    path: PricingPath,
) -> FaultOutcome {
    let _guard = path_lock();
    set_pricing_path(Some(path));
    let mut rt = fault_runtime(plan);
    let mut args = fault_args();
    let opts = LaunchOptions::new()
        .with_mode(mode)
        .with_orchestration(orch);
    let result = rt
        .launch("triple", &mut args, N, &opts)
        .map_err(|e: DyselError| e.to_string());
    set_pricing_path(None);
    let bits = args.f32(0).unwrap().iter().map(|v| v.to_bits()).collect();
    (result, bits, rt.quarantined("triple").to_vec())
}

#[test]
fn pricing_diff_fault_matrix() {
    let cases: &[(&str, FaultKind)] = &[
        ("c-fast", FaultKind::LaunchError),
        ("a-slow", FaultKind::LaunchError),
        ("b-mid", FaultKind::LaunchError),
        ("c-fast", FaultKind::WrongOutput),
        ("a-slow", FaultKind::WrongOutput),
        ("b-mid", FaultKind::WrongOutput),
        ("c-fast", FaultKind::Poison),
        // The hang blows the x8 profiling deadline: the discard point (and
        // the preempted-cycle watermark in the report) is priced-cycle
        // accurate, so this is the case a pricing drift would flip first.
        ("b-mid", FaultKind::Hang(64)),
        ("c-fast", FaultKind::Hang(64)),
    ];
    for mode in [
        ProfilingMode::FullyProductive,
        ProfilingMode::HybridPartial,
        ProfilingMode::SwapPartial,
    ] {
        for orch in [Orchestration::Sync, Orchestration::Async] {
            // Healthy run first, then every fault class.
            let scalar = fault_launch(None, mode, orch, PricingPath::Scalar);
            let batched = fault_launch(None, mode, orch, PricingPath::Batched);
            assert_eq!(scalar, batched, "{mode} {orch} healthy: paths diverged");
            for &(victim, kind) in cases {
                let plan = || Some(FaultPlan::new(7).with(FaultRule::new(victim, kind)));
                let scalar = fault_launch(plan(), mode, orch, PricingPath::Scalar);
                let batched = fault_launch(plan(), mode, orch, PricingPath::Batched);
                assert_eq!(
                    scalar, batched,
                    "{mode} {orch} {victim}={kind}: paths diverged"
                );
                assert!(
                    !scalar.2.is_empty(),
                    "{mode} {orch} {victim}={kind}: plan inert, diff proves nothing"
                );
            }
        }
    }
}
