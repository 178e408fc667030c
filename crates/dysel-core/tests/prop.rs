//! Randomized tests of the runtime's end-to-end invariants, using randomly
//! generated variant sets over a checkable workload.
//!
//! Gated behind the dep-less `proptest` cargo feature and driven by the
//! in-tree [`XorShiftRng`]: `cargo test -p dysel-core --features proptest`.
#![cfg(feature = "proptest")]

use dysel_core::{LaunchOptions, Runtime};
use dysel_device::{CpuConfig, CpuDevice};
use dysel_kernel::{
    Args, Buffer, KernelIr, Orchestration, ProfilingMode, Space, Variant, VariantMeta, XorShiftRng,
};

const N: u64 = 2048;

/// A verifiable kernel: out[i] = i * 3 + 1, with a per-variant synthetic
/// cost and work-assignment factor.
fn variant(idx: usize, cost: u64, wa: u32) -> Variant {
    Variant::from_fn(
        VariantMeta::new(format!("v{idx}-c{cost}-w{wa}"), KernelIr::regular(vec![0]))
            .with_wa_factor(wa),
        move |ctx, args| {
            for i in ctx.units().iter() {
                args.f32_mut(0).unwrap()[i as usize] = (i * 3 + 1) as f32;
            }
            ctx.compute(ctx.units().len() * cost);
        },
    )
}

fn fresh_args() -> Args {
    let mut a = Args::new();
    a.push(Buffer::f32("out", vec![0.0; N as usize], Space::Global));
    a
}

fn check_output(args: &Args) {
    let out = args.f32(0).unwrap();
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, (i * 3 + 1) as f32, "at {i}");
    }
}

/// For ANY set of variants (random costs, work-assignment factors), ANY
/// mode and orchestration: the output is complete and correct, and with
/// zero noise the selected variant has the minimum true cost.
#[test]
fn output_complete_and_selection_optimal() {
    for case in 0..24 {
        let mut rng = XorShiftRng::seed_from_u64(0xC04E_0000 + case);
        let k = rng.gen_range_usize(2, 6);
        let costs: Vec<u64> = (0..k).map(|_| rng.gen_range_u64(100, 50_000)).collect();
        let wa_table = [1u32, 2, 4, 8];
        let variants: Vec<Variant> = (0..k)
            .map(|i| variant(i, costs[i], wa_table[rng.gen_range_usize(0, 4)]))
            .collect();
        let mode = [
            ProfilingMode::FullyProductive,
            ProfilingMode::HybridPartial,
            ProfilingMode::SwapPartial,
        ][rng.gen_range_usize(0, 3)];
        let orch = if rng.next_u64() & 1 == 0 {
            Orchestration::Sync
        } else {
            Orchestration::Async
        };

        let mut rt = Runtime::new(Box::new(CpuDevice::new(CpuConfig::noiseless())));
        rt.add_kernels("k", variants);
        let mut args = fresh_args();
        let opts = LaunchOptions::new()
            .with_mode(mode)
            .with_orchestration(orch);
        let report = rt.launch("k", &mut args, N, &opts).unwrap();

        // 1. The output is complete and correct in every configuration.
        check_output(&args);

        // 2. Under zero noise, profiling picks the cheapest per-unit cost.
        if report.profiled() {
            let min_cost = *costs.iter().min().unwrap();
            assert_eq!(
                costs[report.selected.0], min_cost,
                "selected {} from {costs:?}",
                report.selected_name
            );
            // 3. Report accounting invariants (Table 1).
            match mode {
                ProfilingMode::FullyProductive => {
                    assert_eq!(report.wasted_units, 0);
                    assert_eq!(report.extra_space_bytes, 0);
                }
                ProfilingMode::HybridPartial => {
                    assert_eq!(
                        report.wasted_units,
                        report.productive_units * (k as u64 - 1)
                    );
                }
                ProfilingMode::SwapPartial => {
                    assert_eq!(report.orchestration, Orchestration::Sync);
                    assert_eq!(report.eager_chunks, 0);
                }
            }
            assert!(report.measurements.len() == k);
        }
    }
}

/// Launch reports are internally consistent: profile time never exceeds
/// total time, launches cover profiling + work, and cached re-launches
/// reuse the same selection.
#[test]
fn report_consistency() {
    for case in 0..24 {
        let mut rng = XorShiftRng::seed_from_u64(0xC04E_1000 + case);
        let k = rng.gen_range_usize(2, 5);
        let costs: Vec<u64> = (0..k).map(|_| rng.gen_range_u64(100, 20_000)).collect();
        let variants: Vec<Variant> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| variant(i, c, 1))
            .collect();
        let k = variants.len() as u64;
        let mut rt = Runtime::new(Box::new(CpuDevice::new(CpuConfig::noiseless())));
        rt.add_kernels("k", variants);
        let mut args = fresh_args();
        let r1 = rt.launch("k", &mut args, N, &LaunchOptions::new()).unwrap();
        assert!(r1.profile_time <= r1.total_time);
        // k profiles + at least one batch.
        assert!(r1.launches > k);
        // Second launch without profiling: cached selection.
        let mut args2 = fresh_args();
        let r2 = rt
            .launch(
                "k",
                &mut args2,
                N,
                &LaunchOptions::new().without_profiling(),
            )
            .unwrap();
        assert_eq!(r2.selected, r1.selected);
        assert_eq!(r2.launches, 1);
        check_output(&args2);
    }
}

/// Mixed-version execution preserves output completeness for any cut set.
#[test]
fn mixed_regions_cover_everything() {
    for case in 0..24 {
        let mut rng = XorShiftRng::seed_from_u64(0xC04E_2000 + case);
        let mut cuts: Vec<u64> = (0..rng.gen_range_usize(0, 5))
            .map(|_| rng.gen_range_u64(1, N))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut rt = Runtime::new(Box::new(CpuDevice::new(CpuConfig::noiseless())));
        rt.add_kernels("k", vec![variant(0, 2_000, 1), variant(1, 300, 2)]);
        let mut args = fresh_args();
        let mixed = rt
            .launch_mixed_at("k", &mut args, N, &cuts, &LaunchOptions::new())
            .unwrap();
        assert_eq!(mixed.regions.len(), cuts.len() + 1);
        check_output(&args);
    }
}
