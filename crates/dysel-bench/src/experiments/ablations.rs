//! Ablations of the engineering knobs §2.4/§5 discusses qualitatively:
//! eager chunk size, host query latency, and noise/repetition tradeoffs.

use dysel_core::{LaunchOptions, Runtime};
use dysel_device::{Device, GpuConfig, GpuDevice};
use dysel_workloads::Target;

use crate::harness::{suite, CaseError, Harness};
use crate::{Bar, Figure};

/// Eager-chunk-size sweep: too-small chunks pay launch overhead per chunk
/// ("imposing associated kernel launch overhead", §2.4); too-large chunks
/// commit more work to a possibly-suboptimal best-so-far variant.
pub fn abl_chunk(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "abl_chunk",
        "ablation: eager chunk size (async CPU, sgemm)",
        "relative execution time over oracle / eager chunks",
    );
    let w = suite::sgemm_schedules();
    let oracle = h.sweep(&w, Target::Cpu).best().1;
    for chunk in [1u64, 2, 4, 8, 16] {
        let report = h.run_dysel(
            &w,
            Target::Cpu,
            &LaunchOptions::new().with_chunk_groups_per_unit(chunk),
        )?;
        fig.push_row(
            format!("chunk={chunk} groups/unit"),
            vec![
                Bar::new("rel", report.total_time.ratio_over(oracle)),
                Bar::new("eager", report.eager_chunks as f64),
                Bar::new("launches", report.launches as f64),
            ],
        );
    }
    Ok(fig)
}

/// Host query-latency sweep on the GPU: with realistic `cudaStreamQuery`
/// latencies the async flow gets few or zero eager dispatches, which is
/// why sync and async DySel only differ marginally on GPUs (§5.1).
pub fn abl_query(_: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "abl_query",
        "ablation: host stream-query latency (async GPU, sgemm)",
        "eager chunks dispatched / relative time over oracle",
    );
    // sgemm's fully-productive slices keep the GPU profiling phase busy
    // long enough for query latency to matter.
    let w = suite::sgemm_mixed_gpu();
    for scale in [0.01f64, 0.1, 1.0, 10.0] {
        let base = GpuConfig::kepler_k20c();
        let cfg = GpuConfig {
            query_latency: dysel_device::Cycles(
                ((base.query_latency.0 as f64) * scale).max(1.0) as u64
            ),
            ..base
        };
        let oracle = dysel_baselines::exhaustive_sweep(&w, Target::Gpu, || {
            Box::new(GpuDevice::new(cfg.clone())) as Box<dyn Device>
        })
        .best()
        .1;
        let mut rt = Runtime::new(Box::new(GpuDevice::new(cfg)));
        rt.add_kernels(&w.signature, w.variants(Target::Gpu).to_vec());
        let mut args = w.fresh_args();
        let report = rt
            .launch(
                &w.signature,
                &mut args,
                w.total_units,
                &LaunchOptions::new(),
            )
            .expect("launch");
        fig.push_row(
            format!("query x{scale}"),
            vec![
                Bar::new("eager", report.eager_chunks as f64),
                Bar::new("rel", report.total_time.ratio_over(oracle)),
            ],
        );
    }
    fig.note("paper §5.1: querying often takes longer than micro-profiling itself, so GPUs see few or zero eager dispatches");
    Ok(fig)
}

/// Noise-vs-repetition grid (extends §5.2): per-launch DySel overhead as
/// profiling repetitions grow.
pub fn abl_noise(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "abl_noise",
        "ablation: profiling repetitions vs overhead (CPU, kmeans)",
        "relative execution time over oracle",
    );
    let w = suite::kmeans_std();
    let oracle = h.sweep(&w, Target::Cpu).best().1;
    for reps in [1u32, 2, 4, 8] {
        let report = h.run_dysel(
            &w,
            Target::Cpu,
            &LaunchOptions::new().with_profile_reps(reps),
        )?;
        fig.push_row(
            format!("reps={reps}"),
            vec![
                Bar::new("rel", report.total_time.ratio_over(oracle)),
                Bar::new("launches", report.launches as f64),
            ],
        );
    }
    fig.note("repetitions buy accuracy under noise (see sec52) at extra profiling cost — the §5.2 tradeoff");
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_reps_cost_more() {
        let fig = abl_noise(&Harness::default()).unwrap();
        let rel = |i: usize| fig.rows[i].bars[0].value;
        // Overhead grows (weakly) with repetitions.
        assert!(rel(3) >= rel(0) * 0.99, "{} vs {}", rel(3), rel(0));
    }
}
