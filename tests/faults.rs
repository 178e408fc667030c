//! Failure-mode matrix: every fault class, under every profiling mode and
//! orchestration, must leave the runtime with (a) a final output that is
//! bit-identical to the all-healthy run, (b) the misbehaving variant
//! quarantined and never selected, and (c) report counters that match the
//! plan's injection log.
//!
//! The three candidates compute the SAME function (`out[u] = 2*in[u] + 1`)
//! at different priced costs, so any selection produces the same bits and
//! repairs are exact by construction:
//!
//! * variant 0 `a-slow` — slowest (and the hybrid live-slice writer),
//! * variant 1 `b-mid`  — middle,
//! * variant 2 `c-fast` — fastest (the healthy winner).

use std::sync::Arc;

use dysel::core::{
    DyselError, LaunchOptions, LaunchReport, QuarantineReason, Runtime, RuntimeConfig,
};
use dysel::device::{CpuConfig, CpuDevice, Device, FaultKind, FaultPlan, FaultRule};
use dysel::kernel::{
    Args, Buffer, KernelIr, Orchestration, ProfilingMode, Space, Variant, VariantId, VariantMeta,
};
use dysel::obs::{EventSink, Stage};

const N: u64 = 4096;

/// `out[u] = 2*in[u] + 1`, priced at `cost` vector iterations per unit.
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

fn fresh_args() -> Args {
    let mut a = Args::new();
    a.push(Buffer::f32("out", vec![0.0; N as usize], Space::Global));
    a.push(Buffer::f32(
        "in",
        (0..N).map(|i| i as f32).collect(),
        Space::Global,
    ));
    a
}

fn runtime(plan: Option<FaultPlan>) -> Runtime {
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

fn launch(
    rt: &mut Runtime,
    mode: ProfilingMode,
    orch: Orchestration,
) -> (Result<LaunchReport, DyselError>, Vec<u32>) {
    let mut args = fresh_args();
    let opts = LaunchOptions::new()
        .with_mode(mode)
        .with_orchestration(orch);
    let result = rt.launch("triple", &mut args, N, &opts);
    let bits = args.f32(0).unwrap().iter().map(|v| v.to_bits()).collect();
    (result, bits)
}

const MODES: [ProfilingMode; 3] = [
    ProfilingMode::FullyProductive,
    ProfilingMode::HybridPartial,
    ProfilingMode::SwapPartial,
];
const ORCHS: [Orchestration; 2] = [Orchestration::Sync, Orchestration::Async];

/// Fault class x victim x mode x orchestration: output exact, victim
/// quarantined with the right reason, victim never selected.
#[test]
fn every_fault_class_degrades_gracefully_in_every_mode() {
    let cases: &[(&str, usize, FaultKind, QuarantineReason)] = &[
        // A permanently failing launch (retries exhausted) on the healthy
        // winner, on the hybrid live-slice writer, and on a loser.
        (
            "c-fast",
            2,
            FaultKind::LaunchError,
            QuarantineReason::LaunchFailed,
        ),
        (
            "a-slow",
            0,
            FaultKind::LaunchError,
            QuarantineReason::LaunchFailed,
        ),
        (
            "b-mid",
            1,
            FaultKind::LaunchError,
            QuarantineReason::LaunchFailed,
        ),
        // Silent corruption on the same three victims.
        (
            "c-fast",
            2,
            FaultKind::WrongOutput,
            QuarantineReason::WrongOutput,
        ),
        (
            "a-slow",
            0,
            FaultKind::WrongOutput,
            QuarantineReason::WrongOutput,
        ),
        (
            "b-mid",
            1,
            FaultKind::WrongOutput,
            QuarantineReason::WrongOutput,
        ),
        // NaN poisoning is caught by the same validation machinery.
        (
            "c-fast",
            2,
            FaultKind::Poison,
            QuarantineReason::WrongOutput,
        ),
        // A hang blows the x8 profiling deadline (x64 cost vs x3 spread).
        (
            "b-mid",
            1,
            FaultKind::Hang(64),
            QuarantineReason::DeadlineExceeded,
        ),
        (
            "c-fast",
            2,
            FaultKind::Hang(64),
            QuarantineReason::DeadlineExceeded,
        ),
    ];
    for mode in MODES {
        for orch in ORCHS {
            let (healthy, healthy_bits) = launch(&mut runtime(None), mode, orch);
            let healthy = healthy.expect("healthy launch succeeds");
            assert!(
                healthy.faults.is_clean(),
                "{mode} {orch}: healthy run degraded"
            );
            assert_eq!(
                healthy.selected,
                VariantId(2),
                "{mode} {orch}: healthy winner"
            );
            for &(victim, vi, kind, reason) in cases {
                let ctx = format!("{mode} {orch} {victim}={kind}");
                let plan = FaultPlan::new(7).with(FaultRule::new(victim, kind));
                let mut rt = runtime(Some(plan));
                let (report, bits) = launch(&mut rt, mode, orch);
                let report = report.unwrap_or_else(|e| panic!("{ctx}: launch failed: {e}"));
                // (a) the final output is bit-identical to the healthy run.
                assert_eq!(bits, healthy_bits, "{ctx}: output diverged");
                // (b) the victim is quarantined with the right reason and
                // was not selected.
                assert_ne!(report.selected.0, vi, "{ctx}: selected the victim");
                assert!(
                    rt.quarantined("triple").contains(&(VariantId(vi), reason)),
                    "{ctx}: expected ({vi}, {reason}) in {:?}",
                    rt.quarantined("triple")
                );
                assert_eq!(
                    report.faults.quarantined,
                    vec![(VariantId(vi), reason)],
                    "{ctx}: report quarantine list"
                );
                // (c) report counters agree with the plan's injection log.
                let plan = rt.device().fault_plan().expect("plan installed");
                match kind {
                    FaultKind::LaunchError => {
                        assert_eq!(
                            report.faults.launch_errors,
                            plan.injected_count(kind),
                            "{ctx}: launch errors vs injected"
                        );
                        assert!(report.faults.retries > 0, "{ctx}: no retry issued");
                    }
                    FaultKind::WrongOutput | FaultKind::Poison => {
                        assert!(plan.injected_count(kind) > 0, "{ctx}: nothing injected");
                        assert_eq!(
                            report.faults.validation_failures, 1,
                            "{ctx}: validation failures"
                        );
                    }
                    FaultKind::Hang(_) => {
                        assert!(plan.injected_count(kind) > 0, "{ctx}: nothing injected");
                        assert_eq!(
                            report.faults.deadline_discards, 1,
                            "{ctx}: deadline discards"
                        );
                    }
                }
                // A quarantined variant stays excluded: the follow-up
                // launch selects among the survivors without re-tripping.
                let (again, bits2) = launch(&mut rt, mode, orch);
                let again = again.unwrap_or_else(|e| panic!("{ctx}: relaunch failed: {e}"));
                assert_ne!(again.selected.0, vi, "{ctx}: relaunch selected the victim");
                assert_eq!(bits2, healthy_bits, "{ctx}: relaunch output diverged");
            }
        }
    }
}

/// Exact ledger for a permanent launch failure in fully-productive mode:
/// 1 initial failure + `max_launch_retries` retries, the victim's slice
/// repaired by the winner, and the fault report mirrored into the
/// runtime-wide statistics.
#[test]
fn launch_error_ledger_is_exact() {
    let plan = FaultPlan::new(7).with(FaultRule::new("b-mid", FaultKind::LaunchError));
    let mut rt = runtime(Some(plan));
    let (report, _) = launch(&mut rt, ProfilingMode::FullyProductive, Orchestration::Sync);
    let report = report.unwrap();
    let retries = RuntimeConfig::default().max_launch_retries as u64;
    assert_eq!(report.faults.launch_errors, 1 + retries);
    assert_eq!(report.faults.retries, retries);
    assert_eq!(report.faults.repaired_slices, 1);
    assert!(report.faults.repaired_units > 0);
    // 3 equal profiling slices: the victim's was repaired (so it counts
    // as wasted, not productive), the other two stayed productive.
    assert_eq!(report.wasted_units, report.faults.repaired_units);
    assert_eq!(report.productive_units, 2 * report.faults.repaired_units);
    let plan = rt.device().fault_plan().unwrap();
    assert_eq!(plan.injected_count(FaultKind::LaunchError), 1 + retries);
    assert_eq!(rt.stats().launch_errors(), 1 + retries);
    assert_eq!(rt.stats().retries(), retries);
    assert_eq!(rt.stats().quarantined_variants(), 1);
}

/// Corruption on the provisional winner: its own validation launches are
/// corrupt too, so every runner-up looks suspect — the referee pass must
/// still dethrone the winner and repair its slices with the runner-up.
#[test]
fn corrupt_winner_is_dethroned_and_repaired() {
    let plan = FaultPlan::new(7).with(FaultRule::new("c-fast", FaultKind::WrongOutput));
    let mut rt = runtime(Some(plan));
    let (report, bits) = launch(&mut rt, ProfilingMode::FullyProductive, Orchestration::Sync);
    let report = report.unwrap();
    assert_eq!(report.selected, VariantId(1), "next-fastest survivor wins");
    assert_eq!(
        rt.quarantined("triple"),
        &[(VariantId(2), QuarantineReason::WrongOutput)]
    );
    assert_eq!(report.faults.repaired_slices, 1);
    assert!(report.faults.validation_launches > 0);
    let expect: Vec<f32> = (0..N).map(|i| 2.0 * i as f32 + 1.0).collect();
    let got: Vec<f32> = bits.iter().map(|b| f32::from_bits(*b)).collect();
    assert_eq!(got, expect);
}

/// Fault injection is off by default and adds nothing to the healthy
/// path: a run on a device without a plan produces the same report and
/// bits as a run on a device with an installed-but-empty plan.
#[test]
fn empty_plan_is_free_and_identical() {
    let (r1, b1) = launch(
        &mut runtime(None),
        ProfilingMode::FullyProductive,
        Orchestration::Async,
    );
    let (r2, b2) = launch(
        &mut runtime(Some(FaultPlan::new(123))),
        ProfilingMode::FullyProductive,
        Orchestration::Async,
    );
    assert_eq!(r1.unwrap(), r2.unwrap());
    assert_eq!(b1, b2);
}

/// A runtime over the three writers with observation on and output
/// validation off, so a launch's device-launch count is exactly its
/// profiling slices, its final batch and its retries.
fn observed_runtime(plan: FaultPlan, sink: &Arc<EventSink>) -> Runtime {
    let mut dev = CpuDevice::new(CpuConfig::noiseless());
    dev.set_fault_plan(Some(plan));
    let mut rt = Runtime::with_config(
        Box::new(dev),
        RuntimeConfig {
            profile_threshold_groups: 16,
            observe: Some(sink.clone()),
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

/// Retry accounting at both retry sites: one transient launch error on the
/// winner's profiling batch entry (its launch 0, on profiling stream 3),
/// then on the winner's final batch launch (its launch 1, on the compute
/// stream 0). Either way the failed launch is retried once and succeeds:
/// one extra device launch, one retry, one launch error, and one
/// `Stage::Retry` event stamped with the retry's issue time.
#[test]
fn one_transient_error_is_retried_once_at_each_retry_site() {
    // (c-fast launch index that fails, retry stream, retry issue time).
    // The host sees a failure one 3,000-cycle launch overhead after the
    // issue and retries after the 2,000-cycle base backoff: at 0 + 3,000 +
    // 2,000 for the profiling entry, at selection time + 5,000 for the
    // final batch.
    for (index, stream, at) in [(0u64, 3u32, 5_000u64), (1, 0, 8_126)] {
        let sink = Arc::new(EventSink::new());
        let plan = FaultPlan::new(7)
            .with(FaultRule::new("c-fast", FaultKind::LaunchError).window(index, 1));
        let mut rt = observed_runtime(plan, &sink);
        let (report, bits) = launch(&mut rt, ProfilingMode::FullyProductive, Orchestration::Sync);
        let report = report.unwrap();
        assert_eq!(report.selected, VariantId(2), "index {index}");
        assert!(report.faults.quarantined.is_empty(), "index {index}");
        // 3 profiling slices + 1 final batch + 1 retry.
        assert_eq!(report.launches, 5, "index {index}");
        assert_eq!(report.faults.retries, 1, "index {index}");
        assert_eq!(report.faults.launch_errors, 1, "index {index}");
        let retries: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.stage == Stage::Retry)
            .collect();
        assert_eq!(retries.len(), 1, "index {index}");
        let retry = &retries[0];
        assert_eq!(retry.variant, "c-fast");
        assert_eq!(retry.stream, Some(stream), "index {index}");
        assert_eq!((retry.start, retry.end), (at, at), "index {index}");
        assert_eq!(retry.detail, "attempt=1", "index {index}");
        let expect: Vec<u32> = (0..N).map(|i| (2.0 * i as f32 + 1.0).to_bits()).collect();
        assert_eq!(bits, expect, "index {index}");
    }
}
