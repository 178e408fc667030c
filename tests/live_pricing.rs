//! The `live_pricing` golden family: what the batch engine reports and
//! writes, pinned.
//!
//! Every work-group of a batch entry runs inside the serial pricing pass
//! and emits its cost trace straight into the cost model of the unit it is
//! placed on (`dysel-device/src/exec.rs`). This suite drives every
//! workload of the differential suite on both targets through
//!
//! * a whole-workload launch;
//! * a profiling batch with one measured entry per variant;
//! * a launch followed by a budget-preempted relaunch;
//! * the profiling batch again under `wrong` and `hang` fault rules;
//!
//! and folds every [`LaunchOutcome`] and every output bit into one FNV-1a
//! digest per workload and target. Any change to how the engine runs,
//! prices or merges a group moves a digest.
//!
//! The arguments are rebased into a private address space, so buffer
//! addresses (and with them every priced cache access) do not depend on
//! what this thread allocated before.

mod common;

use common::{device, suite};
use dysel::device::{
    BatchEntry, Cycles, Device, FaultKind, FaultPlan, FaultRule, LaunchOutcome, LaunchSpec,
    StreamId,
};
use dysel::kernel::{fnv1a_step, AddrSpace, Args, BufferData, UnitRange, Variant, FNV_OFFSET};
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

/// Every scenario on `dev`, in order: the launch outcomes and the
/// argument sets they wrote.
fn drive(
    w: &Workload,
    target: Target,
    mut dev: Box<dyn Device>,
    args: &Args,
) -> (Vec<LaunchOutcome>, Vec<Args>) {
    let variants = w.variants(target);
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

    // A whole launch, then the same launch under an eighth of the cold
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
        "{} [{target}]: budget {budget:?} did not preempt: {:?}",
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

/// Folds every outcome field and every element's bits into one FNV-1a
/// hash.
fn digest(outcomes: &[LaunchOutcome], written: &[Args]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut fold = |words: &[u64]| {
        for &w in words {
            h = fnv1a_step(h, w);
        }
    };
    for outcome in outcomes {
        match *outcome {
            LaunchOutcome::Done(r) => fold(&[
                1,
                r.start.0,
                r.end.0,
                r.groups,
                r.busy.0,
                r.measured.map_or(u64::MAX, |m| m.0),
            ]),
            LaunchOutcome::Failed(f) => fold(&[2, f.at.0, u64::from(f.transient)]),
            LaunchOutcome::Preempted(p) => fold(&[3, p.at.0, p.cycles_spent.0, p.groups_done]),
        }
    }
    for args in written {
        for buf in args.iter() {
            fold(&[buf.len() as u64]);
            match buf.data() {
                BufferData::F32(v) => v.iter().for_each(|x| fold(&[u64::from(x.to_bits())])),
                BufferData::F64(v) => v.iter().for_each(|x| fold(&[x.to_bits()])),
                BufferData::U32(v) => v.iter().for_each(|&x| fold(&[u64::from(x)])),
                BufferData::I32(v) => v.iter().for_each(|&x| fold(&[x as u32 as u64])),
            }
        }
    }
    h
}

/// Checks each workload's digests against `golden`, whose rows are
/// `(workload, CPU digest, GPU digest)` in order; a target without
/// variants pins 0.
fn check(workloads: &[Workload], golden: &[(&str, u64, u64)]) {
    assert_eq!(workloads.len(), golden.len());
    let mut failures = Vec::new();
    for (w, &(name, cpu, gpu)) in workloads.iter().zip(golden) {
        if w.name != name {
            failures.push(format!("row {name} holds workload {}", w.name));
        }
        let mut args = w.fresh_args();
        args.rebase_in(&mut AddrSpace::new());
        for (target, want) in [(Target::Cpu, cpu), (Target::Gpu, gpu)] {
            let got = if w.variants(target).is_empty() {
                0
            } else {
                let (outcomes, written) = drive(w, target, device(target), &args);
                digest(&outcomes, &written)
            };
            if got != want {
                failures.push(format!(
                    "{name} [{target}]: {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "digests moved:\n{}",
        failures.join("\n")
    );
}

#[test]
fn live_pricing_sgemm_and_stencil() {
    let s = suite();
    check(
        &[s[0].clone(), s[1].clone(), s[2].clone(), s[11].clone()],
        &[
            ("sgemm", 0xc641_a5df_af03_5c06, 0xff0c_b29a_b2d8_1383),
            ("sgemm", 0x3690_d16b_c264_79a3, 0xff0c_b29a_b2d8_1383),
            ("sgemm", 0x0602_f83c_d16b_4967, 0xff0c_b29a_b2d8_1383),
            ("stencil", 0xec50_3369_1691_6310, 0xf92d_7dd1_a573_dd73),
        ],
    );
}

#[test]
fn live_pricing_spmv_formats() {
    let s = suite();
    check(
        &s[3..11],
        &[
            (
                "spmv-csr(random)",
                0x7ccc_088c_29c2_1914,
                0x91df_9f6e_40db_a88b,
            ),
            (
                "spmv-csr(diagonal)",
                0xf7d1_1872_c56e_7fbf,
                0x87c9_bee1_8a7c_7bff,
            ),
            (
                "spmv-csr(sched-random)",
                0x9962_9c48_a2c2_6912,
                0x91df_9f6e_40db_a88b,
            ),
            (
                "spmv-csr(sched-diagonal)",
                0x15a5_cc24_7b3b_46d2,
                0x87c9_bee1_8a7c_7bff,
            ),
            (
                "spmv-csr(placements)",
                0x9962_9c48_a2c2_6912,
                0xdb26_58bb_dd88_d79f,
            ),
            ("spmv-ell", 0x4d17_e78c_b653_6b57, 0x09d1_31f7_aa27_8629),
            ("spmv-jds", 0x3f0e_021b_a876_a98c, 0xc405_09b6_e07c_506f),
            ("spmv-jds", 0x9ea4_d998_6bca_295f, 0xc405_09b6_e07c_506f),
        ],
    );
}

#[test]
fn live_pricing_cutcp() {
    let s = suite();
    check(
        &s[12..14],
        &[
            ("cutcp", 0xd4fc_aaa5_81f4_fed1, 0xedcb_19e1_566a_44d6),
            ("cutcp", 0xcfcc_1ea3_11c6_25ae, 0xedcb_19e1_566a_44d6),
        ],
    );
}

#[test]
fn live_pricing_kmeans_particlefilter_histogram() {
    let s = suite();
    check(
        &s[14..18],
        &[
            ("kmeans", 0xd8fa_ff58_1e81_9ac2, 0xce3f_9cd7_e363_4e89),
            (
                "particlefilter",
                0x7933_ccb9_a35b_667e,
                0x48ca_cb78_b2b7_1281,
            ),
            (
                "histogram(uniform)",
                0x1177_1941_c5b6_00c2,
                0xe602_ba2e_6390_8706,
            ),
            (
                "histogram(skewed)",
                0x6584_254f_9378_6758,
                0x8229_5dab_3048_5912,
            ),
        ],
    );
}
