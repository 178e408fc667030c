//! Device-level fault-injection contract: what each fault class does to a
//! single launch, independent of the runtime's degradation machinery.
//!
//! * `error`  — the launch fails, executes nothing, advances no stream;
//! * `wrong`  — the launch completes but every element it wrote is tampered;
//! * `poison` — like `wrong`, with NaN sentinels;
//! * `hang`   — the launch completes functionally but costs ×N cycles;
//! * a reset device replays the exact same fault sequence.

use dysel_device::{
    BatchEntry, CpuConfig, CpuDevice, Cycles, Device, FaultKind, FaultPlan, FaultRule, LaunchSpec,
    StreamId,
};
use dysel_kernel::{Args, Buffer, KernelIr, Space, UnitRange, Variant, VariantMeta};

const N: u64 = 1024;

/// `out[u] = 2*in[u] + 1` per unit — every launched unit writes exactly one
/// element of arg 0, so corruption is observable per element.
fn writer(name: &str) -> Variant {
    Variant::from_fn(
        VariantMeta::new(name, KernelIr::regular(vec![0])),
        |ctx, args| {
            for u in ctx.units().iter() {
                let x = args.f32(1).unwrap()[u as usize];
                args.f32_mut(0).unwrap()[u as usize] = 2.0 * x + 1.0;
                ctx.vector_compute(1, 8, 8, 1);
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

fn device(plan: Option<FaultPlan>) -> CpuDevice {
    let mut dev = CpuDevice::new(CpuConfig::noiseless());
    dev.set_fault_plan(plan);
    dev
}

fn launch(
    dev: &mut CpuDevice,
    v: &Variant,
    args: &mut Args,
    units: UnitRange,
) -> dysel_device::LaunchOutcome {
    dev.launch(LaunchSpec {
        kernel: v.kernel.as_ref(),
        meta: &v.meta,
        units,
        args,
        stream: StreamId(0),
        not_before: Cycles::ZERO,
        measured: true,
        budget: None,
    })
}

/// The all-healthy reference output of one full launch.
fn healthy_run() -> (dysel_device::LaunchRecord, Vec<f32>) {
    let mut dev = device(None);
    let v = writer("w");
    let mut a = fresh_args();
    let rec = launch(&mut dev, &v, &mut a, UnitRange::new(0, N)).unwrap_done();
    (rec, a.f32(0).unwrap().to_vec())
}

#[test]
fn no_plan_injects_nothing() {
    let mut dev = device(None);
    assert!(dev.fault_plan().is_none());
    let (_, out) = healthy_run();
    for (i, y) in out.iter().enumerate() {
        assert_eq!(*y, 2.0 * i as f32 + 1.0);
    }
    // An installed-but-empty plan is also inert.
    dev.set_fault_plan(Some(FaultPlan::new(0)));
    let v = writer("w");
    let mut a = fresh_args();
    assert!(launch(&mut dev, &v, &mut a, UnitRange::new(0, N))
        .done()
        .is_some());
    assert_eq!(dev.fault_plan().unwrap().total_injected(), 0);
}

#[test]
fn launch_error_executes_nothing_and_advances_no_stream() {
    let plan = FaultPlan::new(0).with(FaultRule::new("w", FaultKind::LaunchError));
    let mut dev = device(Some(plan));
    let v = writer("w");
    let mut a = fresh_args();
    let out = launch(&mut dev, &v, &mut a, UnitRange::new(0, N));
    assert!(out.is_failed());
    let failure = match out {
        dysel_device::LaunchOutcome::Failed(f) => f,
        _ => unreachable!(),
    };
    assert!(failure.transient);
    // The host observes the failure after paying the launch overhead.
    assert_eq!(failure.at, dev.launch_overhead());
    // Nothing executed: buffers untouched, stream never advanced.
    assert!(a.f32(0).unwrap().iter().all(|y| *y == 0.0));
    assert_eq!(dev.stream_end(StreamId(0)), Cycles::ZERO);
    let plan = dev.fault_plan().unwrap();
    assert_eq!(plan.launches_of("w"), 1);
    assert_eq!(plan.injected_count(FaultKind::LaunchError), 1);
}

#[test]
fn wrong_output_tampers_exactly_the_written_elements() {
    let (_, healthy) = healthy_run();
    let plan = FaultPlan::new(0).with(FaultRule::new("w", FaultKind::WrongOutput));
    let mut dev = device(Some(plan));
    let v = writer("w");
    let mut a = fresh_args();
    let half = N / 2;
    let rec = launch(&mut dev, &v, &mut a, UnitRange::new(0, half));
    assert!(rec.done().is_some(), "wrong-output launches still complete");
    let out = a.f32(0).unwrap();
    let written = half as usize;
    for (i, (&o, &h)) in out[..written].iter().zip(&healthy[..written]).enumerate() {
        assert_ne!(
            o.to_bits(),
            h.to_bits(),
            "written element {i} must be tampered"
        );
        assert_ne!(o, 0.0, "tampering must not silently erase the write");
    }
    for (i, &o) in out[..N as usize].iter().enumerate().skip(written) {
        assert_eq!(o, 0.0, "unwritten element {i} must stay pristine");
    }
    // Non-output arguments are never touched.
    for (i, x) in a.f32(1).unwrap().iter().enumerate() {
        assert_eq!(*x, i as f32);
    }
}

#[test]
fn poison_writes_nan_sentinels() {
    let plan = FaultPlan::new(0).with(FaultRule::new("w", FaultKind::Poison));
    let mut dev = device(Some(plan));
    let v = writer("w");
    let mut a = fresh_args();
    launch(&mut dev, &v, &mut a, UnitRange::new(0, N))
        .done()
        .expect("poisoned launches still complete");
    assert!(a.f32(0).unwrap().iter().all(|y| y.is_nan()));
}

#[test]
fn hang_multiplies_the_priced_cost() {
    let (healthy, reference) = healthy_run();
    let plan = FaultPlan::new(0).with(FaultRule::new("w", FaultKind::Hang(8)));
    let mut dev = device(Some(plan));
    let v = writer("w");
    let mut a = fresh_args();
    let rec = launch(&mut dev, &v, &mut a, UnitRange::new(0, N)).unwrap_done();
    // Functionally correct output, ×8 busy time.
    assert_eq!(a.f32(0).unwrap(), &reference[..]);
    let ratio = rec.busy.ratio_over(healthy.busy);
    assert!(
        (7.9..=8.1).contains(&ratio),
        "hang*8 busy ratio was {ratio}"
    );
    assert!(rec.measured.unwrap() > healthy.measured.unwrap());
}

#[test]
fn windowed_rule_hits_only_its_launch_indexes_in_a_batch() {
    let plan = FaultPlan::new(0).with(FaultRule::new("w", FaultKind::LaunchError).window(1, 1));
    let mut dev = device(Some(plan));
    let v = writer("w");
    let mut a = fresh_args();
    let third = N / 4;
    let entries: Vec<BatchEntry<'_>> = (0..3)
        .map(|i| BatchEntry {
            kernel: v.kernel.as_ref(),
            meta: &v.meta,
            units: UnitRange::new(i * third, (i + 1) * third),
            target: 0,
            stream: StreamId(i as u32),
            not_before: Cycles::ZERO,
            measured: false,
            budget: None,
        })
        .collect();
    let outcomes = dev.launch_batch(&entries, &mut [&mut a]);
    assert_eq!(outcomes.len(), 3);
    assert!(outcomes[0].done().is_some());
    assert!(outcomes[1].is_failed(), "launch index 1 is the faulted one");
    assert!(outcomes[2].done().is_some());
    let out = a.f32(0).unwrap();
    let third = third as usize;
    for &x in &out[..third] {
        assert_ne!(x, 0.0, "entry 0's slice executed");
    }
    for &x in &out[third..2 * third] {
        assert_eq!(x, 0.0, "the failed entry's slice stayed unwritten");
    }
    for &x in &out[2 * third..3 * third] {
        assert_ne!(x, 0.0, "entry 2's slice executed");
    }
    // The failed entry never occupied its stream.
    assert_eq!(dev.stream_end(StreamId(1)), Cycles::ZERO);
}

#[test]
fn device_reset_replays_the_same_fault_sequence() {
    let plan: FaultPlan = "seed=11;w=error?0.4".parse().unwrap();
    let mut dev = device(Some(plan));
    let v = writer("w");
    let run = |dev: &mut CpuDevice| -> Vec<bool> {
        (0..16)
            .map(|_| {
                let mut a = fresh_args();
                launch(dev, &v, &mut a, UnitRange::new(0, N)).is_failed()
            })
            .collect()
    };
    let first = run(&mut dev);
    let log = dev.fault_plan().unwrap().injected().to_vec();
    assert!(first.iter().any(|f| *f), "probability 0.4 over 16 launches");
    assert!(!first.iter().all(|f| *f));
    dev.reset();
    assert_eq!(dev.fault_plan().unwrap().total_injected(), 0);
    let second = run(&mut dev);
    assert_eq!(first, second);
    assert_eq!(dev.fault_plan().unwrap().injected(), &log[..]);
}
