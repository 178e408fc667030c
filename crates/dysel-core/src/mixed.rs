//! Mixed-version execution — the paper's stated future work.
//!
//! §4.1: "a mixed version that applies different pure versions on
//! different partitions of computation could potentially outperform the
//! 'oracle'. ... we consider it as the future work." This module
//! implements that extension: the workload is split into regions, each
//! region is micro-profiled and executed with its own winner, so
//! heterogeneous inputs (e.g. a sparse matrix whose upper half is dense-ish
//! and lower half diagonal) get per-region optimal variants.

use dysel_device::Cycles;
use dysel_kernel::Args;

use crate::{DyselError, LaunchOptions, LaunchReport, Runtime, SkipReason};

/// Outcome of a mixed-version launch.
#[derive(Debug, Clone)]
pub struct MixedReport {
    /// Per-region launch reports, in region order.
    pub regions: Vec<LaunchReport>,
    /// Total virtual time across all regions (regions run back-to-back).
    pub total_time: Cycles,
}

impl MixedReport {
    /// Names of the selected variants per region.
    pub fn selections(&self) -> Vec<&str> {
        self.regions
            .iter()
            .map(|r| r.selected_name.as_str())
            .collect()
    }

    /// Whether at least two regions chose different variants — the
    /// situation where mixing can beat every pure version.
    pub fn is_heterogeneous(&self) -> bool {
        self.regions
            .windows(2)
            .any(|w| w[0].selected != w[1].selected)
    }

    /// Number of regions whose profiling actually ran.
    pub fn profiled_regions(&self) -> usize {
        self.regions.iter().filter(|r| r.profiled()).count()
    }

    /// Regions that skipped profiling, with reasons.
    pub fn skips(&self) -> Vec<(usize, SkipReason)> {
        self.regions
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.skipped.map(|s| (i, s)))
            .collect()
    }
}

impl Runtime {
    /// Launches `signature` over `total_units`, split into `regions`
    /// equal partitions, micro-profiling and selecting *per region*.
    ///
    /// Kernels see the same absolute unit indices as a plain launch (the
    /// runtime offsets each region), so outputs land exactly where a
    /// single launch would put them.
    ///
    /// # Errors
    ///
    /// Fails like [`Runtime::launch`]; `regions` must be positive.
    ///
    /// # Panics
    ///
    /// Panics if `regions == 0`.
    pub fn launch_mixed(
        &mut self,
        signature: &str,
        args: &mut Args,
        total_units: u64,
        regions: u64,
        opts: &LaunchOptions,
    ) -> Result<MixedReport, DyselError> {
        assert!(regions > 0, "at least one region is required");
        let regions = regions.min(total_units.max(1));
        let per = total_units / regions;
        let cuts: Vec<u64> = (1..regions).map(|r| r * per).collect();
        self.launch_mixed_at(signature, args, total_units, &cuts, opts)
    }

    /// Like [`Runtime::launch_mixed`], but with explicit region boundaries
    /// (`cuts`, strictly increasing, inside `(0, total_units)`). Use this
    /// when the data structure reveals where the workload changes
    /// character — e.g. a CSR matrix's row-pointer profile shows exactly
    /// where dense-ish rows give way to diagonal ones.
    ///
    /// # Errors
    ///
    /// Fails like [`Runtime::launch`].
    ///
    /// # Panics
    ///
    /// Panics if `cuts` is not strictly increasing inside
    /// `(0, total_units)`.
    pub fn launch_mixed_at(
        &mut self,
        signature: &str,
        args: &mut Args,
        total_units: u64,
        cuts: &[u64],
        opts: &LaunchOptions,
    ) -> Result<MixedReport, DyselError> {
        let mut edges = Vec::with_capacity(cuts.len() + 2);
        edges.push(0);
        edges.extend_from_slice(cuts);
        edges.push(total_units);
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "cuts must be strictly increasing inside (0, total_units)"
        );
        let mut reports = Vec::with_capacity(edges.len() - 1);
        let mut total = Cycles::ZERO;
        for w in edges.windows(2) {
            let report = self.launch_region(signature, args, w[0], w[1], opts)?;
            total += report.total_time;
            reports.push(report);
        }
        Ok(MixedReport {
            regions: reports,
            total_time: total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysel_device::{CpuConfig, CpuDevice};
    use dysel_kernel::{Buffer, KernelIr, Space, Variant, VariantMeta};

    /// Two variants whose relative speed flips halfway through the
    /// workload (cost depends on the data region) — pure versions are both
    /// half-bad; mixing wins.
    fn region_sensitive_variants(n: u64) -> Vec<Variant> {
        let make = |name: &str, fast_low: bool| {
            Variant::from_fn(
                VariantMeta::new(name, KernelIr::regular(vec![0])),
                move |ctx, args| {
                    for i in ctx.units().iter() {
                        args.f32_mut(0).unwrap()[i as usize] = i as f32;
                        let low = i < n / 2;
                        let cheap = low == fast_low;
                        ctx.compute(if cheap { 50 } else { 5_000 });
                    }
                },
            )
        };
        vec![make("fast-low-half", true), make("fast-high-half", false)]
    }

    fn runtime() -> Runtime {
        Runtime::new(Box::new(CpuDevice::new(CpuConfig::noiseless())))
    }

    fn fresh(n: u64) -> Args {
        let mut a = Args::new();
        a.push(Buffer::f32("out", vec![0.0; n as usize], Space::Global));
        a
    }

    const N: u64 = 8192;

    #[test]
    fn mixed_beats_both_pure_versions_on_heterogeneous_input() {
        // Pure runs.
        let mut pure_times = Vec::new();
        for keep in 0..2 {
            let mut rt = runtime();
            let v = region_sensitive_variants(N).remove(keep);
            rt.add_kernel("k", v);
            let mut args = fresh(N);
            let t = rt
                .launch("k", &mut args, N, &LaunchOptions::new())
                .unwrap()
                .total_time;
            pure_times.push(t);
        }
        // Mixed run: 2 regions, per-region profiling.
        let mut rt = runtime();
        rt.add_kernels("k", region_sensitive_variants(N));
        let mut args = fresh(N);
        let mixed = rt
            .launch_mixed("k", &mut args, N, 2, &LaunchOptions::new())
            .unwrap();
        assert!(mixed.is_heterogeneous(), "{:?}", mixed.selections());
        assert_eq!(mixed.selections(), vec!["fast-low-half", "fast-high-half"]);
        let best_pure = pure_times.iter().min().unwrap();
        assert!(
            mixed.total_time.as_f64() < 0.7 * best_pure.as_f64(),
            "mixed {} vs best pure {best_pure}",
            mixed.total_time
        );
        // Output still complete and correct.
        let out = args.f32(0).unwrap();
        for (i, &x) in out[..N as usize].iter().enumerate() {
            assert_eq!(x, i as f32);
        }
    }

    #[test]
    fn single_region_equals_plain_launch_selection() {
        let mut rt = runtime();
        rt.add_kernels("k", region_sensitive_variants(N));
        let mut args = fresh(N);
        let mixed = rt
            .launch_mixed("k", &mut args, N, 1, &LaunchOptions::new())
            .unwrap();
        assert_eq!(mixed.regions.len(), 1);
        assert!(!mixed.is_heterogeneous());
    }

    #[test]
    fn tiny_regions_skip_profiling_gracefully() {
        let mut rt = runtime();
        rt.add_kernels("k", region_sensitive_variants(N));
        let mut args = fresh(N);
        // 256 regions of 32 units each: below the profiling threshold.
        let mixed = rt
            .launch_mixed("k", &mut args, N, 256, &LaunchOptions::new())
            .unwrap();
        assert_eq!(mixed.profiled_regions(), 0);
        assert!(mixed
            .skips()
            .iter()
            .all(|&(_, s)| s == SkipReason::SmallWorkload || s == SkipReason::CachedSelection));
        let out = args.f32(0).unwrap();
        assert_eq!(out[N as usize - 1], (N - 1) as f32);
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn zero_regions_panics() {
        let mut rt = runtime();
        rt.add_kernels("k", region_sensitive_variants(N));
        let mut args = fresh(N);
        let _ = rt.launch_mixed("k", &mut args, N, 0, &LaunchOptions::new());
    }
}
