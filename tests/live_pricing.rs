//! The `live_pricing` differential family: live vs recorded span pricing.
//!
//! A device whose executor does not run ahead (one worker) executes each
//! span's work-groups inside the serial pricing pass, and every group
//! emits its cost trace straight into the cost model. With more workers,
//! spans run ahead, record their traces, and the pricing pass replays them
//! (`dysel-device/src/exec.rs`). The two must be indistinguishable: this
//! suite drives every workload of the differential suite on both targets
//! through a 1-worker (live) and a 2-worker (recorded) device and requires
//! equal [`LaunchOutcome`]s and equal output bits for
//!
//! * a whole-workload launch;
//! * a profiling batch with one measured entry per variant;
//! * a launch followed by a budget-preempted relaunch;
//! * the profiling batch again under `wrong` and `hang` fault rules.
//!
//! Both runs start from clones of one [`Args`], so buffer addresses (and
//! with them every priced cache access) match even while other tests
//! allocate concurrently.

mod common;

use common::{device, suite};
use dysel::device::{
    BatchEntry, Cycles, Device, FaultKind, FaultPlan, FaultRule, LaunchOutcome, LaunchSpec,
    StreamId,
};
use dysel::kernel::{Args, UnitRange, Variant};
use dysel::workloads::{Target, Workload};

/// A measured (or budgeted) entry of `v` over `units` into target `target`.
fn entry(v: &Variant, units: UnitRange, target: usize, budget: Option<Cycles>) -> BatchEntry<'_> {
    BatchEntry {
        kernel: v.kernel.as_ref(),
        meta: &v.meta,
        units,
        target,
        stream: StreamId(0),
        not_before: Cycles::ZERO,
        measured: true,
        budget,
    }
}

/// One entry per variant, each on its own disjoint slice of the units of
/// one shared target — the shape of a fully productive profiling batch.
fn profiling_batch(
    dev: &mut dyn Device,
    variants: &[Variant],
    w: &Workload,
    args: &mut Args,
) -> Vec<LaunchOutcome> {
    let k = variants.len() as u64;
    let slice = (w.total_units / k).max(1);
    let entries: Vec<_> = variants
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let start = (i as u64 * slice).min(w.total_units);
            let end = (start + slice).min(w.total_units);
            entry(v, UnitRange::new(start, end), 0, None)
        })
        .collect();
    dev.launch_batch(&entries, &mut [args])
}

/// Every scenario on one device with `threads` workers, in order: the
/// launch outcomes and the argument sets they wrote.
fn drive(
    w: &Workload,
    target: Target,
    threads: usize,
    args: &Args,
) -> (Vec<LaunchOutcome>, Vec<Args>) {
    let variants = w.variants(target);
    let mut dev = device(target, threads);
    let mut outcomes = Vec::new();
    let mut written = Vec::new();

    // A whole-workload launch of the first variant.
    let mut whole = args.clone();
    let full = dev.launch(LaunchSpec {
        kernel: variants[0].kernel.as_ref(),
        meta: &variants[0].meta,
        units: UnitRange::new(0, w.total_units),
        args: &mut whole,
        stream: StreamId(0),
        not_before: Cycles::ZERO,
        measured: false,
        budget: None,
    });
    outcomes.push(full);
    written.push(whole);

    // A K-entry profiling batch, every entry measured.
    let mut profiled = args.clone();
    outcomes.extend(profiling_batch(dev.as_mut(), variants, w, &mut profiled));
    written.push(profiled);

    // A span launch, then the same launch under an eighth of the cold
    // launch's busy time (warm caches cost less): the second must be
    // preempted.
    let budget = Cycles(full.unwrap_done().busy.0 / 8);
    let (mut first, mut second) = (args.clone(), args.clone());
    let whole_units = UnitRange::new(0, w.total_units);
    let batch = [
        entry(&variants[0], whole_units, 0, None),
        entry(&variants[0], whole_units, 1, Some(budget)),
    ];
    let got = dev.launch_batch(&batch, &mut [&mut first, &mut second]);
    assert!(
        matches!(got[1], LaunchOutcome::Preempted(_)),
        "{} [{target}] @{threads}: budget {budget:?} did not preempt: {:?}",
        w.name,
        got[1]
    );
    outcomes.extend(got);
    written.extend([first, second]);

    // The profiling batch under fault rules: the first variant's output is
    // corrupted, the last one hangs.
    let mut plan =
        FaultPlan::new(7).with(FaultRule::new(variants[0].name(), FaultKind::WrongOutput));
    if variants.len() > 1 {
        plan.push(FaultRule::new(
            variants[variants.len() - 1].name(),
            FaultKind::Hang(8),
        ));
    }
    dev.set_fault_plan(Some(plan));
    let mut faulted = args.clone();
    outcomes.extend(profiling_batch(dev.as_mut(), variants, w, &mut faulted));
    written.push(faulted);
    (outcomes, written)
}

/// Live (1 worker) vs recorded (2 workers) for each workload and target.
fn diff_workloads(workloads: &[Workload]) {
    for w in workloads {
        for target in [Target::Cpu, Target::Gpu] {
            if w.variants(target).is_empty() {
                continue;
            }
            let args = w.fresh_args();
            let (live, live_args) = drive(w, target, 1, &args);
            let (recorded, recorded_args) = drive(w, target, 2, &args);
            let label = format!("{} [{target}]", w.name);
            assert_eq!(live, recorded, "{label}: launch outcomes diverged");
            for (run, (a, b)) in live_args.iter().zip(&recorded_args).enumerate() {
                for i in 0..a.len() {
                    let (x, y) = (a.buffer(i).unwrap(), b.buffer(i).unwrap());
                    assert!(
                        !x.bits_differ(y).unwrap(),
                        "{label}: scenario {run} buffer {i} ({}) diverged bit-wise",
                        x.name()
                    );
                }
            }
        }
    }
}

#[test]
fn live_pricing_sgemm_and_stencil() {
    let s = suite();
    diff_workloads(&[s[0].clone(), s[1].clone(), s[2].clone(), s[11].clone()]);
}

#[test]
fn live_pricing_spmv_formats() {
    let s = suite();
    diff_workloads(&s[3..11]);
}

#[test]
fn live_pricing_cutcp() {
    let s = suite();
    diff_workloads(&s[12..14]);
}

#[test]
fn live_pricing_kmeans_particlefilter_histogram() {
    let s = suite();
    diff_workloads(&s[14..18]);
}
