//! Determinism guarantees: identical seeds reproduce identical virtual
//! schedules, measurements and selections — the property that makes every
//! figure in EXPERIMENTS.md regenerate bit-identically.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use dysel::core::{LaunchOptions, LaunchReport, Runtime, RuntimeConfig};
use dysel::device::{
    CpuConfig, CpuDevice, Cycles, Device, FaultKind, FaultPlan, FaultRule, GpuConfig, GpuDevice,
};
use dysel::kernel::{Buffer, Space};
use dysel::workloads::{spmv_csr, CsrMatrix, Target, Workload};

fn workload() -> Workload {
    spmv_csr::case4_workload("spmv", &CsrMatrix::random(4096, 4096, 0.01, 99), 99)
}

fn run(device: Box<dyn Device>, target: Target) -> (LaunchReport, Vec<u32>) {
    let w = workload();
    let mut rt = Runtime::with_config(
        device,
        RuntimeConfig {
            profile_threshold_groups: 16,
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
        .unwrap();
    let bits = args
        .f32(spmv_csr::arg::Y)
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (report, bits)
}

#[test]
fn cpu_runs_are_bit_identical() {
    let (r1, o1) = run(Box::new(CpuDevice::new(CpuConfig::default())), Target::Cpu);
    let (r2, o2) = run(Box::new(CpuDevice::new(CpuConfig::default())), Target::Cpu);
    assert_eq!(r1, r2);
    assert_eq!(o1, o2);
}

#[test]
fn gpu_runs_are_bit_identical() {
    let (r1, o1) = run(
        Box::new(GpuDevice::new(GpuConfig::kepler_k20c())),
        Target::Gpu,
    );
    let (r2, o2) = run(
        Box::new(GpuDevice::new(GpuConfig::kepler_k20c())),
        Target::Gpu,
    );
    assert_eq!(r1, r2);
    assert_eq!(o1, o2);
}

#[test]
fn different_noise_seeds_change_measurements_but_not_output() {
    let seeded = |seed: u64| {
        run(
            Box::new(CpuDevice::new(CpuConfig {
                seed,
                ..CpuConfig::default()
            })),
            Target::Cpu,
        )
    };
    let (r1, o1) = seeded(1);
    let (r2, o2) = seeded(2);
    // Noise changed the measured values...
    assert_ne!(
        r1.measurements
            .iter()
            .map(|m| m.measured)
            .collect::<Vec<_>>(),
        r2.measurements
            .iter()
            .map(|m| m.measured)
            .collect::<Vec<_>>()
    );
    // ...but outputs stay exact regardless of what was selected.
    assert_eq!(o1, o2);
}

/// The degradation machinery preserves output exactness: with a fault plan
/// active (a hang, a transient launch error and silent corruption on three
/// different variants), the plan fires, retries happen, and the repaired
/// output equals a healthy run's bit for bit.
#[test]
fn fault_plan_degrades_to_the_healthy_output() {
    let w = workload();
    let names: Vec<String> = w
        .variants(Target::Cpu)
        .iter()
        .map(|v| v.name().to_owned())
        .collect();
    assert!(names.len() >= 3, "case IV grid has at least 3 CPU variants");
    let plan = || {
        FaultPlan::new(2026)
            .with(FaultRule::new(&names[0], FaultKind::Hang(16)))
            .with(FaultRule::new(&names[1], FaultKind::LaunchError).window(0, 1))
            .with(FaultRule::new(&names[2], FaultKind::WrongOutput))
    };
    let faulted = || {
        let mut dev = CpuDevice::new(CpuConfig::default());
        dev.set_fault_plan(Some(plan()));
        let mut rt = Runtime::with_config(
            Box::new(dev),
            RuntimeConfig {
                profile_threshold_groups: 16,
                validate_outputs: true,
                profile_deadline_factor: Some(8.0),
                ..RuntimeConfig::default()
            },
        );
        rt.add_kernels(&w.signature, w.variants(Target::Cpu).to_vec());
        let mut args = w.fresh_args();
        let report = rt
            .launch(
                &w.signature,
                &mut args,
                w.total_units,
                &LaunchOptions::new(),
            )
            .unwrap();
        let bits: Vec<u32> = args
            .f32(spmv_csr::arg::Y)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        // The plan must actually have fired, or this test proves nothing.
        assert!(!report.faults.is_clean(), "plan inert");
        assert!(report.faults.retries >= 1, "no retry");
        bits
    };
    // A healthy run of the same workload produces the same bits: the
    // degradation ladder preserved output exactness.
    let healthy = run(Box::new(CpuDevice::new(CpuConfig::default())), Target::Cpu);
    assert_eq!(faulted(), healthy.1, "degraded output diverged");
}

/// Cooperative preemption under the budget subsystem
/// (`profile_deadline_factor`), with a hang on a *later* variant so that
/// earlier healthy measurements have already set the budget baseline when
/// the hung variant profiles: the hang costs at most `factor` times that
/// baseline, and the degraded output equals the healthy run bit for bit.
#[test]
fn budget_preemption_is_bounded_and_exact() {
    let (report, bits) = preempted_run();
    // Acceptance bound: the hang cost at most `factor` times the best
    // measurement available when its budget was derived (a variant
    // profiled before it).
    let baseline = report
        .measurements
        .iter()
        .filter(|m| m.variant.0 < 2)
        .map(|m| m.measured)
        .min()
        .expect("earlier variants measured");
    let bound = Cycles::from_f64(baseline.as_f64() * DEADLINE_FACTOR);
    assert!(
        report.faults.preempted_cycles <= bound,
        "preempted {} > bound {bound}",
        report.faults.preempted_cycles
    );
    let healthy = run(Box::new(CpuDevice::new(CpuConfig::default())), Target::Cpu);
    assert_eq!(bits, healthy.1, "preempted run's output diverged");
}

/// Profile-budget multiple of [`preempted_run`].
const DEADLINE_FACTOR: f64 = 8.0;

/// A launch whose third CPU variant hangs 64x under a profile budget of
/// [`DEADLINE_FACTOR`]: report and output bits. The budget must fire.
fn preempted_run() -> (LaunchReport, Vec<u32>) {
    let w = workload();
    let hung = w.variants(Target::Cpu)[2].name().to_owned();
    let mut dev = CpuDevice::new(CpuConfig::default());
    dev.set_fault_plan(Some(
        FaultPlan::new(7).with(FaultRule::new(&hung, FaultKind::Hang(64))),
    ));
    let mut rt = Runtime::with_config(
        Box::new(dev),
        RuntimeConfig {
            profile_threshold_groups: 16,
            profile_deadline_factor: Some(DEADLINE_FACTOR),
            ..RuntimeConfig::default()
        },
    );
    rt.add_kernels(&w.signature, w.variants(Target::Cpu).to_vec());
    let mut args = w.fresh_args();
    let report = rt
        .launch(
            &w.signature,
            &mut args,
            w.total_units,
            &LaunchOptions::new(),
        )
        .unwrap();
    assert!(report.faults.preemptions >= 1, "plan inert");
    let bits = args
        .f32(spmv_csr::arg::Y)
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (report, bits)
}

/// Buffer addresses come from a region owned by the allocating thread, so
/// a runtime's priced timeline cannot move when other threads allocate at
/// the same time. The preempted run goes on a fresh thread (an empty
/// allocation history) twice: once alone, once while two other threads
/// allocate buffers in a tight loop, bounded by a stop flag and a cap.
#[test]
fn concurrent_allocations_never_change_a_report() {
    const NOISE_THREADS: usize = 2;
    const NOISE_CAP: usize = 50_000_000;
    let alone = std::thread::spawn(preempted_run).join().unwrap();
    let started = Barrier::new(NOISE_THREADS + 1);
    let stop = AtomicBool::new(false);
    let contended = std::thread::scope(|scope| {
        for _ in 0..NOISE_THREADS {
            scope.spawn(|| {
                started.wait();
                for i in 0..NOISE_CAP {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::hint::black_box(Buffer::u32("noise", vec![0; i % 64], Space::Global));
                }
            });
        }
        started.wait();
        let run = std::thread::spawn(preempted_run).join();
        stop.store(true, Ordering::Relaxed);
        run.unwrap()
    });
    assert_eq!(
        contended.0, alone.0,
        "concurrent allocations moved the report"
    );
    assert_eq!(
        contended.1, alone.1,
        "concurrent allocations moved the output"
    );
}

/// `Device::reset` replays budgeted runs too: the same preemption at the
/// same priced cycle, the same report.
#[test]
fn reset_replays_the_same_preemption() {
    let w = workload();
    let names: Vec<String> = w
        .variants(Target::Cpu)
        .iter()
        .map(|v| v.name().to_owned())
        .collect();
    let mut dev = CpuDevice::new(CpuConfig::default());
    dev.set_fault_plan(Some(
        FaultPlan::new(7).with(FaultRule::new(&names[2], FaultKind::Hang(64))),
    ));
    let mut rt = Runtime::with_config(
        Box::new(dev),
        RuntimeConfig {
            profile_threshold_groups: 16,
            profile_deadline_factor: Some(8.0),
            ..RuntimeConfig::default()
        },
    );
    rt.add_kernels(&w.signature, w.variants(Target::Cpu).to_vec());
    let mut args = w.fresh_args();
    let r1 = rt
        .launch(
            &w.signature,
            &mut args,
            w.total_units,
            &LaunchOptions::new(),
        )
        .unwrap();
    assert!(r1.faults.preemptions >= 1, "plan inert");
    rt.reset();
    let mut args = w.fresh_args();
    let r2 = rt
        .launch(
            &w.signature,
            &mut args,
            w.total_units,
            &LaunchOptions::new(),
        )
        .unwrap();
    assert_eq!(r1, r2);
}

#[test]
fn device_reset_replays_the_same_schedule() {
    let w = workload();
    let mut rt = Runtime::with_config(
        Box::new(CpuDevice::new(CpuConfig::default())),
        RuntimeConfig {
            profile_threshold_groups: 16,
            ..RuntimeConfig::default()
        },
    );
    rt.add_kernels(&w.signature, w.variants(Target::Cpu).to_vec());
    let mut args = w.fresh_args();
    let r1 = rt
        .launch(
            &w.signature,
            &mut args,
            w.total_units,
            &LaunchOptions::new(),
        )
        .unwrap();
    rt.reset();
    let mut args = w.fresh_args();
    let r2 = rt
        .launch(
            &w.signature,
            &mut args,
            w.total_units,
            &LaunchOptions::new(),
        )
        .unwrap();
    assert_eq!(r1, r2);
}
