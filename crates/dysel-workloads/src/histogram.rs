//! Histogram (output binning with atomics).
//!
//! This workload exists to exercise the corner of DySel's applicability
//! table that the paper's four case studies only describe (§2.3):
//! work-groups with **overlapping output ranges** updated through global
//! atomics. Side effect analysis detects the atomics and forces swap-based
//! partial-productive profiling — the only mode that stays correct here.
//!
//! Variants: a straight global-atomic kernel vs a privatized kernel
//! (per-group scratchpad histogram merged once at the end), the exact
//! optimization pair §2.3 lists ("privatization, ... output binning, ...
//! optimizations using atomic operations"). The winner is input-dependent:
//! privatization wins under contention (skewed data), while low-contention
//! uniform data narrows the gap.
//!
//! The workload unit is a block of [`ELEMS_PER_UNIT`] input elements.

use std::sync::Arc;

use dysel_kernel::{
    AccessIr, Args, Buffer, KernelIr, LoopBound, LoopIr, LoopKind, Space, Variant, VariantMeta,
};

use crate::{check_close, RefMemo, Workload};

/// Input elements per workload unit.
pub const ELEMS_PER_UNIT: usize = 1024;

/// Number of histogram bins.
pub const BINS: usize = 256;

/// Argument indices of the histogram signature.
pub mod arg {
    /// Output histogram (`u32`, [`super::BINS`] entries). Work-groups
    /// overlap on it: every group may touch every bin.
    pub const HIST: usize = 0;
    /// Input data (`u32` values in `0..BINS`).
    pub const DATA: usize = 1;
}

/// How the input values are distributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Uniform over all bins: little atomic contention.
    Uniform,
    /// Heavily skewed towards a few bins: pathological contention for the
    /// global-atomic kernel.
    Skewed,
}

fn ir() -> KernelIr {
    let mut ir = KernelIr::regular(vec![arg::HIST])
        .with_loops(vec![
            LoopIr::new(LoopKind::WorkItem(0), LoopBound::UniformRuntime),
            LoopIr::new(LoopKind::Kernel, LoopBound::Const(ELEMS_PER_UNIT as u64)),
        ])
        .with_accesses(vec![
            AccessIr::affine_load(arg::DATA, vec![0, 1]),
            // Data-dependent read-modify-write of the bins: the histogram
            // *stores* through an indirect pattern. The declared index
            // window [0, BINS) lets the verifier prove the writes Overlap
            // (any two work items can pick the same bin) instead of
            // abstaining — honest, and safe here because the declared
            // atomics force swap-based profiling anyway.
            AccessIr::indirect_store(arg::HIST).with_index_range(0, BINS as i64 - 1),
        ])
        .with_atomics()
        .with_overlapping_outputs();
    ir.output_args = vec![arg::HIST];
    ir
}

fn accumulate(args: &mut Args, unit: u64, n: usize) {
    let lo = unit as usize * ELEMS_PER_UNIT;
    let hi = (lo + ELEMS_PER_UNIT).min(n);
    let mut local = [0u32; BINS];
    {
        let data = args.u32(arg::DATA).expect("data");
        for &v in &data[lo..hi] {
            local[v as usize % BINS] += 1;
        }
    }
    let hist = args.u32_mut(arg::HIST).expect("hist");
    for (b, &c) in local.iter().enumerate() {
        if c > 0 {
            hist[b] += c;
        }
    }
}

/// Distinct bins among a warp's 32 consecutive elements (contention probe
/// used by the trace emission).
fn warp_distinct(data: &[u32], lo: usize, hi: usize) -> (u32, u32) {
    let mut seen = [false; BINS];
    let mut distinct = 0u32;
    let lanes = (hi - lo) as u32;
    for &v in &data[lo..hi] {
        let b = v as usize % BINS;
        if !seen[b] {
            seen[b] = true;
            distinct += 1;
        }
    }
    (lanes, distinct.max(1))
}

/// The straight global-atomic kernel.
pub fn atomic_variant(n: usize) -> Variant {
    let meta = VariantMeta::new("atomic-global", ir()).with_group_size(256);
    Variant::from_fn(meta, move |ctx, args| {
        // Functional phase first: `data` is never written, so the emission
        // loop borrows it once for the whole span instead of cloning per unit.
        for u in ctx.units().iter() {
            accumulate(args, u, n);
        }
        let data = args.u32(arg::DATA).expect("data");
        for u in ctx.units().iter() {
            let lo = u as usize * ELEMS_PER_UNIT;
            let hi = (lo + ELEMS_PER_UNIT).min(n);
            for w in (lo..hi).step_by(32) {
                let we = (w + 32).min(hi);
                ctx.warp_load(arg::DATA, w as u64, 1, (we - w) as u32);
                let (lanes, distinct) = warp_distinct(data, w, we);
                // Contended lanes serialize on the same bin.
                ctx.atomic(arg::HIST, 0, lanes, distinct);
                ctx.vector_compute(1, 32, lanes, 2);
            }
        }
    })
}

/// The privatized kernel: per-group scratchpad histogram, merged once.
pub fn privatized_variant(n: usize) -> Variant {
    let meta =
        VariantMeta::new("privatized", ir().with_scratchpad(BINS as u32 * 4)).with_group_size(256);
    Variant::from_fn(meta, move |ctx, args| {
        // Same hoist as `atomic_variant`: compute first, then borrow `data`.
        for u in ctx.units().iter() {
            accumulate(args, u, n);
        }
        let data = args.u32(arg::DATA).expect("data");
        for u in ctx.units().iter() {
            let lo = u as usize * ELEMS_PER_UNIT;
            let hi = (lo + ELEMS_PER_UNIT).min(n);
            for w in (lo..hi).step_by(32) {
                let we = (w + 32).min(hi);
                ctx.warp_load(arg::DATA, w as u64, 1, (we - w) as u32);
                let (lanes, distinct) = warp_distinct(data, w, we);
                // Scratchpad atomics: bank conflicts instead of global
                // serialization.
                let conflict = (lanes / distinct).max(1);
                ctx.scratchpad(lanes, conflict, true);
                ctx.vector_compute(1, 32, lanes, 2);
            }
            ctx.barrier();
            // Merge the private histogram: BINS global atomics per group.
            for b in (0..BINS).step_by(32) {
                ctx.atomic(arg::HIST, b as u64, 32, 32);
            }
        }
    })
}

/// Both candidates.
pub fn variants(n: usize) -> Vec<Variant> {
    vec![atomic_variant(n), privatized_variant(n)]
}

/// Builds the argument set.
pub fn build_args(n: usize, dist: Distribution, seed: u64) -> Args {
    use dysel_kernel::XorShiftRng;
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let data: Vec<u32> = (0..n)
        .map(|_| match dist {
            Distribution::Uniform => rng.gen_range_u32(0, BINS as u32),
            Distribution::Skewed => {
                // 90% of values land in 4 bins.
                if rng.next_f64() < 0.9 {
                    rng.gen_range_u32(0, 4)
                } else {
                    rng.gen_range_u32(0, BINS as u32)
                }
            }
        })
        .collect();
    let mut args = Args::new();
    args.push(Buffer::u32("hist", vec![0; BINS], Space::Global));
    args.push(Buffer::u32("data", data, Space::Global));
    args
}

/// Assembles the histogram workload.
pub fn workload(n: usize, dist: Distribution, seed: u64) -> Workload {
    let memo = RefMemo::new(&[arg::DATA]);
    let verify: crate::VerifyFn = Arc::new(move |args: &Args| {
        let want = memo.get(args, || {
            let data = args.u32(arg::DATA).map_err(|e| e.to_string())?;
            let mut want = vec![0u32; BINS];
            for &v in data {
                want[v as usize % BINS] += 1;
            }
            Ok(want.iter().map(|&v| v as f32).collect())
        })?;
        let got = args.u32(arg::HIST).map_err(|e| e.to_string())?;
        let gotf: Vec<f32> = got.iter().map(|&v| v as f32).collect();
        check_close("hist", &gotf, &want, 0.0)
    });
    let name = match dist {
        Distribution::Uniform => "histogram(uniform)",
        Distribution::Skewed => "histogram(skewed)",
    };
    Workload::new(
        name,
        build_args(n, dist, seed),
        (n / ELEMS_PER_UNIT) as u64,
        variants(n),
        variants(n),
        verify,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Target;
    use dysel_analysis::infer_mode;
    use dysel_kernel::{GroupCtx, ProfilingMode};

    #[test]
    fn variants_match_reference() {
        for dist in [Distribution::Uniform, Distribution::Skewed] {
            let w = workload(256 * ELEMS_PER_UNIT, dist, 3);
            for v in w.variants(Target::Gpu) {
                let mut args = w.fresh_args();
                let mut ctx = GroupCtx::for_test(0, 0, w.total_units, &args);
                v.kernel.run_group(&mut ctx, &mut args);
                w.verify(&args)
                    .unwrap_or_else(|e| panic!("{} ({dist:?}): {e}", v.name()));
            }
        }
    }

    #[test]
    fn side_effects_force_swap_mode() {
        let w = workload(256 * ELEMS_PER_UNIT, Distribution::Uniform, 3);
        let metas: Vec<_> = w
            .variants(Target::Gpu)
            .iter()
            .map(|v| v.meta.clone())
            .collect();
        assert_eq!(infer_mode(&metas), ProfilingMode::SwapPartial);
    }

    #[test]
    fn accumulation_across_split_ranges_is_exact() {
        // Histogram output accumulates: partial unit ranges must compose.
        let w = workload(64 * ELEMS_PER_UNIT, Distribution::Skewed, 5);
        let v = &w.variants(Target::Gpu)[1];
        let mut args = w.fresh_args();
        for (a, b) in [(0, 10), (10, 37), (37, w.total_units)] {
            let mut ctx = GroupCtx::for_test(0, a, b, &args);
            v.kernel.run_group(&mut ctx, &mut args);
        }
        w.verify(&args).unwrap();
    }
}
