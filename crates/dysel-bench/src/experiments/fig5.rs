//! Fig. 5 — "Illustration of timing difference between synchronous and
//! asynchronous DySel" — regenerated from *actual* recorded schedules
//! instead of an illustration: the synchronous flow idles execution units
//! until the slowest profiling launch ends; the asynchronous flow fills
//! the gap with eager chunks.

use dysel_core::{InitialSelection, LaunchOptions, Runtime};
use dysel_device::{CpuConfig, CpuDevice, Device};
use dysel_kernel::{Buffer, KernelIr, Orchestration, Space, Variant, VariantMeta};

use crate::harness::{CaseError, Harness};
use crate::{Bar, Figure};

const N: u64 = 4096;

/// Two variants with a deliberately large speed disparity, like the
/// paper's darker/lighter kernels.
fn variants() -> Vec<Variant> {
    let make = |name: &str, cost: u64| {
        Variant::from_fn(
            VariantMeta::new(name, KernelIr::regular(vec![0])).with_wa_factor(8),
            move |ctx, args| {
                for i in ctx.units().iter() {
                    args.f32_mut(0).unwrap()[i as usize] = i as f32;
                }
                ctx.compute(ctx.units().len() * cost);
            },
        )
    };
    vec![make("slow-variant", 30_000), make("fast-variant", 3_000)]
}

fn run(orch: Orchestration) -> (dysel_core::LaunchReport, String, u64) {
    let mut rt = Runtime::new(Box::new(CpuDevice::new(CpuConfig::default())) as Box<dyn Device>);
    rt.add_kernels("k", variants());
    let mut args = dysel_kernel::Args::new();
    args.push(Buffer::f32("out", vec![0.0; N as usize], Space::Global));
    let opts = LaunchOptions::new()
        .with_orchestration(orch)
        .with_initial(InitialSelection::Index(1));
    let report = rt.launch("k", &mut args, N, &opts).expect("launch");
    let gantt = rt.last_timeline().render(64);
    let overlapped = rt.last_timeline().eagerly_overlapped_units();
    (report, gantt, overlapped)
}

/// Regenerates Fig. 5 from recorded schedules.
pub fn fig5(_: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "fig5",
        "sync vs async timing (recorded schedules, Fig. 5)",
        "total virtual time / units overlapped with profiling",
    );
    let (sync_report, sync_gantt, _) = run(Orchestration::Sync);
    let (async_report, async_gantt, overlapped) = run(Orchestration::Async);
    fig.push_row(
        "sync",
        vec![
            Bar::new("total", sync_report.total_time.as_f64()),
            Bar::new("profile", sync_report.profile_time.as_f64()),
            Bar::new("eager-units", 0.0),
        ],
    );
    fig.push_row(
        "async",
        vec![
            Bar::new("total", async_report.total_time.as_f64()),
            Bar::new("profile", async_report.profile_time.as_f64()),
            Bar::new("eager-units", overlapped as f64),
        ],
    );
    fig.note(format!("sync schedule:\n{sync_gantt}"));
    fig.note(format!("async schedule:\n{async_gantt}"));
    fig.note("async eager chunks run during the slow variant's profiling tail, so async total <= sync total (Fig. 5(b)/(c))");
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysel_core::LaunchKind;

    #[test]
    fn async_overlaps_and_does_not_lose() {
        let (sync_report, _, _) = run(Orchestration::Sync);
        let (async_report, _, overlapped) = run(Orchestration::Async);
        assert!(overlapped > 0, "eager chunks should overlap profiling");
        assert!(
            async_report.total_time.as_f64() <= sync_report.total_time.as_f64() * 1.01,
            "async {} vs sync {}",
            async_report.total_time,
            sync_report.total_time
        );
        // Both flows selected the fast variant.
        assert_eq!(sync_report.selected_name, "fast-variant");
        assert_eq!(async_report.selected_name, "fast-variant");
    }

    #[test]
    fn timeline_contains_all_three_kinds_in_async() {
        let mut rt =
            Runtime::new(Box::new(CpuDevice::new(CpuConfig::default())) as Box<dyn Device>);
        rt.add_kernels("k", variants());
        let mut args = dysel_kernel::Args::new();
        args.push(Buffer::f32("out", vec![0.0; N as usize], Space::Global));
        rt.launch("k", &mut args, N, &LaunchOptions::new()).unwrap();
        let kinds: Vec<LaunchKind> = rt
            .last_timeline()
            .entries()
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(kinds.contains(&LaunchKind::Profile));
        assert!(kinds.contains(&LaunchKind::Batch));
    }
}
