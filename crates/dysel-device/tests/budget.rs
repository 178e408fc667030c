//! Device-level budget/preemption contract, independent of the runtime's
//! degradation machinery:
//!
//! * a budgeted launch that would overrun is cooperatively preempted: it
//!   stops executing work-groups, spends at most `budget` priced cycles,
//!   leaves the target buffers untouched and advances no stream;
//! * a budget generous enough to finish changes nothing — the outcome is
//!   bit-identical to the unbudgeted launch.
//!
//! Every contract holds on both device models.

use dysel_device::{
    CpuConfig, CpuDevice, Cycles, Device, DeviceKind, FaultKind, FaultPlan, FaultRule, GpuConfig,
    GpuDevice, LaunchOutcome, LaunchRecord, LaunchSpec, StreamId,
};
use dysel_kernel::{Args, Buffer, KernelIr, Space, UnitRange, Variant, VariantMeta};

const N: u64 = 1024;

/// `out[u] = 2*in[u] + 1` per unit — one written element per unit, so any
/// rolled-back write is observable.
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

const TARGETS: [DeviceKind; 2] = [DeviceKind::Cpu, DeviceKind::Gpu];

/// A noiseless device of `target` with `plan` installed.
fn device(target: DeviceKind, plan: Option<FaultPlan>) -> Box<dyn Device> {
    let mut dev: Box<dyn Device> = match target {
        DeviceKind::Cpu => Box::new(CpuDevice::new(CpuConfig::noiseless())),
        DeviceKind::Gpu => Box::new(GpuDevice::new(GpuConfig::kepler_k20c().noiseless())),
    };
    dev.set_fault_plan(plan);
    dev
}

fn launch(
    dev: &mut dyn Device,
    v: &Variant,
    args: &mut Args,
    budget: Option<Cycles>,
) -> LaunchOutcome {
    dev.launch(LaunchSpec {
        kernel: v.kernel.as_ref(),
        meta: &v.meta,
        units: UnitRange::new(0, N),
        args,
        stream: StreamId(0),
        not_before: Cycles::ZERO,
        measured: true,
        budget,
    })
}

/// The unbudgeted healthy reference: record plus output bits.
fn healthy_run(target: DeviceKind) -> (LaunchRecord, Vec<u32>) {
    let mut dev = device(target, None);
    let v = writer("w");
    let mut a = fresh_args();
    let rec = launch(dev.as_mut(), &v, &mut a, None).unwrap_done();
    let bits = a.f32(0).unwrap().iter().map(|y| y.to_bits()).collect();
    (rec, bits)
}

#[test]
fn budget_preempts_a_hung_launch_and_rolls_everything_back() {
    for target in TARGETS {
        let (healthy, _) = healthy_run(target);
        assert!(healthy.groups > 1, "need multiple work-groups to preempt");
        // A hang*64 launch under an 8x-healthy budget must stop early: each
        // hung group costs 64x its healthy price, so the budget affords well
        // under an eighth of the groups.
        let budget = Cycles::from_f64(healthy.busy.as_f64() * 8.0);
        let plan = FaultPlan::new(0).with(FaultRule::new("w", FaultKind::Hang(64)));
        let mut dev = device(target, Some(plan));
        let v = writer("w");
        let mut a = fresh_args();
        let p = launch(dev.as_mut(), &v, &mut a, Some(budget))
            .preempted()
            .expect("hang*64 under an 8x budget must preempt");
        // The watermark is strict: at most `budget` priced cycles were spent,
        // and the launch stopped executing groups the moment it would overrun.
        assert!(
            p.cycles_spent <= budget,
            "spent {} > budget {budget}",
            p.cycles_spent
        );
        assert!(p.groups_done > 0, "the first groups fit under the budget");
        assert!(
            p.groups_done < healthy.groups,
            "preemption must cut the launch short ({} groups)",
            healthy.groups
        );
        // Rollback: no write reached the target, no stream advanced, and the
        // fault ledger still records the (interrupted) hang injection.
        assert!(a.f32(0).unwrap().iter().all(|y| *y == 0.0));
        assert_eq!(dev.stream_end(StreamId(0)), Cycles::ZERO);
        assert_eq!(
            dev.fault_plan()
                .unwrap()
                .injected_count(FaultKind::Hang(64)),
            1
        );
    }
}

#[test]
fn zero_budget_preempts_before_the_first_group() {
    for target in TARGETS {
        let plan = FaultPlan::new(0).with(FaultRule::new("w", FaultKind::Hang(64)));
        let mut dev = device(target, Some(plan));
        let v = writer("w");
        let mut a = fresh_args();
        let p = launch(dev.as_mut(), &v, &mut a, Some(Cycles::ZERO))
            .preempted()
            .expect("a zero budget affords no group at all");
        assert_eq!(p.groups_done, 0);
        assert_eq!(p.cycles_spent, Cycles::ZERO);
        assert!(a.f32(0).unwrap().iter().all(|y| *y == 0.0));
    }
}

#[test]
fn generous_budget_is_bit_identical_to_unbudgeted() {
    for target in TARGETS {
        let (healthy, bits) = healthy_run(target);
        let budget = Cycles::from_f64(healthy.busy.as_f64() * 1000.0);
        let mut dev = device(target, None);
        let v = writer("w");
        let mut a = fresh_args();
        let rec = launch(dev.as_mut(), &v, &mut a, Some(budget)).unwrap_done();
        assert_eq!(rec, healthy, "a budget that never fires must be invisible");
        let budgeted: Vec<u32> = a.f32(0).unwrap().iter().map(|y| y.to_bits()).collect();
        assert_eq!(budgeted, bits);
        assert_eq!(dev.stream_end(StreamId(0)), rec.end);
    }
}
