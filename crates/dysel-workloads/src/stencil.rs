//! 3D 7-point Jacobi stencil (Parboil's `stencil`).
//!
//! The grid is `n x n x n`; one sweep computes `out` from `in` on interior
//! points. The workload unit is one *pencil block*: 8 consecutive `y`
//! values at one `z`, across the whole `x` extent. Units are ordered
//! `y-block`-major (`u = yb * n + z`), so consecutive units share a
//! `y`-block and step in `z` — which is what makes `z`-coarsening a pure
//! work-assignment change.
//!
//! Variants: six CPU loop schedules (Case I), and three GPU versions —
//! base, `z`-coarsened, and `z`-coarsened + scratchpad `x`-tiling, with
//! work-assignment factors 1 / 8 / 16 (Case III).

use std::sync::Arc;

use dysel_kernel::{
    AccessIr, AccessPattern, Args, Buffer, GroupCtx, KernelIr, LoopBound, LoopIr, LoopKind, Space,
    Variant, VariantMeta,
};

use crate::{check_close, RefMemo, Workload};

/// `y` values per unit.
pub const YB: usize = 8;

/// Argument indices of the stencil signature.
pub mod arg {
    /// Output grid.
    pub const OUT: usize = 0;
    /// Input grid.
    pub const IN: usize = 1;
}

const C0: f32 = 0.5;
const C1: f32 = 0.1;

#[inline]
fn at(n: usize, x: usize, y: usize, z: usize) -> usize {
    (z * n + y) * n + x
}

/// Decodes a unit into `(y0, z)`.
fn unit_coords(n: usize, unit: u64) -> (usize, usize) {
    let yb = unit as usize / n;
    let z = unit as usize % n;
    (yb * YB, z)
}

/// Functional sweep of one unit (boundary points copy the input).
fn compute_unit(args: &mut Args, n: usize, unit: u64) {
    let (y0, z) = unit_coords(n, unit);
    let mut rows = vec![0.0f32; YB * n];
    {
        let g = args.f32(arg::IN).expect("in");
        for dy in 0..YB {
            let y = y0 + dy;
            for x in 0..n {
                let v = if x == 0 || x == n - 1 || y == 0 || y == n - 1 || z == 0 || z == n - 1 {
                    g[at(n, x, y, z)]
                } else {
                    C0 * g[at(n, x, y, z)]
                        + C1 * (g[at(n, x - 1, y, z)]
                            + g[at(n, x + 1, y, z)]
                            + g[at(n, x, y - 1, z)]
                            + g[at(n, x, y + 1, z)]
                            + g[at(n, x, y, z - 1)]
                            + g[at(n, x, y, z + 1)])
                };
                rows[dy * n + x] = v;
            }
        }
    }
    let out = args.f32_mut(arg::OUT).expect("out");
    for dy in 0..YB {
        out[at(n, 0, y0 + dy, z)..at(n, 0, y0 + dy, z) + n]
            .copy_from_slice(&rows[dy * n..(dy + 1) * n]);
    }
}

/// Loop orders for the CPU schedules: permutations of (x, y, u) where `u`
/// walks the group's unit list (the z-ish direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuOrder {
    /// u, y outer; x inner (unit stride — the friendly schedule).
    Uyx,
    /// u, x outer; y inner.
    Uxy,
    /// y, u outer; x inner.
    Yux,
    /// y, x outer; u inner.
    Yxu,
    /// x, u outer; y inner.
    Xuy,
    /// x, y outer; u inner.
    Xyu,
}

impl CpuOrder {
    /// All six schedules.
    pub fn all() -> [CpuOrder; 6] {
        [
            CpuOrder::Uyx,
            CpuOrder::Uxy,
            CpuOrder::Yux,
            CpuOrder::Yxu,
            CpuOrder::Xuy,
            CpuOrder::Xyu,
        ]
    }

    /// Lowercase name, outer to inner.
    pub fn name(self) -> &'static str {
        match self {
            CpuOrder::Uyx => "uyx",
            CpuOrder::Uxy => "uxy",
            CpuOrder::Yux => "yux",
            CpuOrder::Yxu => "yxu",
            CpuOrder::Xuy => "xuy",
            CpuOrder::Xyu => "xyu",
        }
    }

    fn innermost(self) -> char {
        match self {
            CpuOrder::Uyx | CpuOrder::Yux => 'x',
            CpuOrder::Uxy | CpuOrder::Xuy => 'y',
            CpuOrder::Yxu | CpuOrder::Xyu => 'u',
        }
    }
}

/// Emits the trace of the group's units under a schedule. Only the
/// innermost dimension is batched; its stride determines locality.
fn emit_cpu(ctx: &mut GroupCtx<'_>, n: usize, units: &[u64], order: CpuOrder) {
    let n64 = n as u64;
    let pencil = |u: u64| {
        let (y0, z) = unit_coords(n, u);
        (y0 as u64, z as u64)
    };
    match order.innermost() {
        'x' => {
            // For each (u, y): stream the 7 neighbour rows and the output.
            for &u in units {
                let (y0, z) = pencil(u);
                for dy in 0..YB as u64 {
                    let y = y0 + dy;
                    let base = (z * n64 + y) * n64;
                    for row in [
                        base,
                        base.saturating_sub(n64),
                        base + n64,
                        base.saturating_sub(n64 * n64),
                        base + n64 * n64,
                    ] {
                        ctx.stream_load(arg::IN, row, n64, 1);
                    }
                    ctx.stream_store(arg::OUT, base, n64, 1);
                    // The unit-stride inner loop vectorizes.
                    ctx.vector_compute(n64 / 8, 8, 8, 8);
                }
            }
        }
        'y' => {
            // Innermost walks y (stride n elements): 8-long strided bursts.
            for &u in units {
                let (y0, z) = pencil(u);
                for x in 0..n64 {
                    let base = (z * n64 + y0) * n64 + x;
                    for off in [0i64, -1, 1, -((n as i64) * n as i64), (n as i64) * n as i64] {
                        // Clamp at the grid boundary (z = 0 has no z-1
                        // plane; boundary points copy their input).
                        let addr = (base as i64 + off).max(0) as u64;
                        ctx.stream_load(arg::IN, addr, YB as u64, n as i64);
                    }
                    ctx.stream_store(arg::OUT, base, YB as u64, n as i64);
                    ctx.compute(8 * YB as u64);
                }
            }
        }
        _ => {
            // Innermost walks the unit list (z direction, stride n^2).
            let (y0_first, _) = pencil(units[0]);
            for dy in 0..YB as u64 {
                let y = y0_first + dy;
                for x in 0..n64 {
                    let mut addrs = Vec::with_capacity(units.len());
                    let mut in_addrs = Vec::with_capacity(units.len() * 5);
                    for &u in units {
                        let (_, z) = pencil(u);
                        let c = (z * n64 + y) * n64 + x;
                        addrs.push(c);
                        // centre (x+-1 shares its line), y+-1 and z+-1.
                        in_addrs.extend([
                            c,
                            c.saturating_sub(n64),
                            c + n64,
                            c.saturating_sub(n64 * n64),
                            c + n64 * n64,
                        ]);
                    }
                    ctx.gather(arg::IN, &in_addrs);
                    ctx.scatter(arg::OUT, &addrs);
                    ctx.compute(8 * units.len() as u64);
                }
            }
        }
    }
}

fn cpu_ir(n: usize, order: CpuOrder) -> KernelIr {
    let n = n as i64;
    let stride = |v: char| match v {
        'x' => 1i64,
        'y' => n,
        _ => n * n,
    };
    let (o1, o2, o3) = match order {
        CpuOrder::Uyx => ('u', 'y', 'x'),
        CpuOrder::Uxy => ('u', 'x', 'y'),
        CpuOrder::Yux => ('y', 'u', 'x'),
        CpuOrder::Yxu => ('y', 'x', 'u'),
        CpuOrder::Xuy => ('x', 'u', 'y'),
        CpuOrder::Xyu => ('x', 'y', 'u'),
    };
    let coeffs = vec![stride(o1), stride(o2), stride(o3)];
    // Constant bounds (the grid edge) let the verifier prove the output
    // store disjoint by stride dominance: n*n > n*(n-1) + (n-1).
    KernelIr::regular(vec![arg::OUT])
        .with_loops(vec![
            LoopIr::new(LoopKind::WorkItem(2), LoopBound::Const(n as u64)),
            LoopIr::new(LoopKind::WorkItem(1), LoopBound::Const(n as u64)),
            LoopIr::new(LoopKind::WorkItem(0), LoopBound::Const(n as u64)),
        ])
        .with_accesses(vec![
            AccessIr::affine_load(arg::IN, coeffs.clone()),
            AccessIr {
                arg: arg::OUT,
                space: Space::Global,
                pattern: AccessPattern::Affine(coeffs),
                store: true,
                lane_uniform: false,
                reuse_window_bytes: None,
                index_range: None,
            },
        ])
}

/// The six CPU schedule variants (Case I).
pub fn cpu_variants(n: usize) -> Vec<Variant> {
    CpuOrder::all()
        .into_iter()
        .map(|order| {
            let meta = VariantMeta::new(format!("lc-{}", order.name()), cpu_ir(n, order))
                .with_group_size(256)
                .with_wa_factor(4);
            Variant::from_fn(meta, move |ctx, args| {
                let units: Vec<u64> = ctx.units().iter().collect();
                for &u in &units {
                    compute_unit(args, n, u);
                }
                emit_cpu(ctx, n, &units, order);
            })
        })
        .collect()
}

/// GPU variant flavours (Case III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuFlavor {
    /// One thread per point, one unit per group.
    Base,
    /// Each thread produces 8 z-levels, reusing planes in registers.
    ZCoarsen,
    /// Z-coarsening plus scratchpad x-y tiling (no win over registers on
    /// Kepler-class hardware, §4.3).
    ZCoarsenSmem,
}

/// One GPU variant.
pub fn gpu_variant(n: usize, flavor: GpuFlavor) -> Variant {
    let (name, wa, smem) = match flavor {
        GpuFlavor::Base => ("gpu-base", 1u32, 0u32),
        GpuFlavor::ZCoarsen => ("gpu-zcoarsen8", 8, 0),
        GpuFlavor::ZCoarsenSmem => ("gpu-zcoarsen-smem", 16, (YB + 2) as u32 * 34 * 4),
    };
    // In (unit, z-step) space each work-group owns its own pencil blocks:
    // unit stride in the unit loop, invariant in the coarsening loop.
    let ir = KernelIr::regular(vec![arg::OUT])
        .with_loops(vec![
            LoopIr::new(LoopKind::WorkItem(0), LoopBound::UniformRuntime),
            LoopIr::new(LoopKind::Kernel, LoopBound::UniformRuntime),
        ])
        .with_accesses(vec![
            AccessIr::affine_load(arg::IN, vec![1, 0]),
            AccessIr::affine_store(arg::OUT, vec![1, 0]),
        ])
        .with_scratchpad(smem);
    let meta = VariantMeta::new(name, ir)
        .with_group_size(256)
        .with_wa_factor(wa);
    Variant::from_fn(meta, move |ctx, args| {
        let n64 = n as u64;
        let units: Vec<u64> = ctx.units().iter().collect();
        for &u in &units {
            compute_unit(args, n, u);
        }
        // Consecutive units share a y-block and advance in z: count the
        // loads a register/smem pipeline would actually issue.
        let mut prev: Option<u64> = None;
        for &u in &units {
            let (y0, z) = unit_coords(n, u);
            let contiguous_z = prev == Some(u.wrapping_sub(1)) && z > 0;
            prev = Some(u);
            for dy in 0..YB as u64 {
                let y = y0 as u64 + dy;
                let base = (z as u64 * n64 + y) * n64;
                for w in 0..n64.div_ceil(32) {
                    let off = w * 32;
                    match flavor {
                        GpuFlavor::Base => {
                            // center(+x halo), y+-1, z+-1: 5 row loads.
                            for row in [
                                base,
                                base.saturating_sub(n64),
                                base + n64,
                                base.saturating_sub(n64 * n64),
                                base + n64 * n64,
                            ] {
                                ctx.warp_load(arg::IN, row + off, 1, 32);
                            }
                        }
                        GpuFlavor::ZCoarsen => {
                            // Marching in z: z-1 and center planes live in
                            // registers; only z+1 and the y halo are loaded.
                            let rows: &[u64] = if contiguous_z {
                                &[base + n64 * n64, base.saturating_sub(n64), base + n64]
                            } else {
                                &[
                                    base,
                                    base.saturating_sub(n64),
                                    base + n64,
                                    base.saturating_sub(n64 * n64),
                                    base + n64 * n64,
                                ]
                            };
                            for &row in rows {
                                ctx.warp_load(arg::IN, row + off, 1, 32);
                            }
                        }
                        GpuFlavor::ZCoarsenSmem => {
                            // Same traffic as z-coarsening, plus staging the
                            // plane through scratchpad and a barrier.
                            let rows: &[u64] = if contiguous_z {
                                &[base + n64 * n64]
                            } else {
                                &[base, base.saturating_sub(n64 * n64), base + n64 * n64]
                            };
                            for &row in rows {
                                ctx.warp_load(arg::IN, row + off, 1, 32);
                            }
                            ctx.scratchpad(32, 1, true);
                            ctx.scratchpad(32, 2, false);
                            ctx.barrier();
                        }
                    }
                    ctx.warp_store(arg::OUT, base + off, 1, 32);
                    ctx.vector_compute(1, 32, 32, 8);
                }
            }
        }
    })
}

/// The three GPU candidates of Case III.
pub fn gpu_variants(n: usize) -> Vec<Variant> {
    vec![
        gpu_variant(n, GpuFlavor::Base),
        gpu_variant(n, GpuFlavor::ZCoarsen),
        gpu_variant(n, GpuFlavor::ZCoarsenSmem),
    ]
}

/// Builds the argument set: a seeded input grid and a zero output grid.
pub fn build_args(n: usize, seed: u64) -> Args {
    use dysel_kernel::XorShiftRng;
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let grid: Vec<f32> = (0..n * n * n)
        .map(|_| rng.gen_range_f32(0.0, 1.0))
        .collect();
    let mut args = Args::new();
    args.push(Buffer::f32("out", vec![0.0; n * n * n], Space::Global));
    args.push(Buffer::f32("in", grid, Space::Global));
    args
}

fn reference(n: usize, g: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; n * n * n];
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                out[at(n, x, y, z)] =
                    if x == 0 || x == n - 1 || y == 0 || y == n - 1 || z == 0 || z == n - 1 {
                        g[at(n, x, y, z)]
                    } else {
                        C0 * g[at(n, x, y, z)]
                            + C1 * (g[at(n, x - 1, y, z)]
                                + g[at(n, x + 1, y, z)]
                                + g[at(n, x, y - 1, z)]
                                + g[at(n, x, y + 1, z)]
                                + g[at(n, x, y, z - 1)]
                                + g[at(n, x, y, z + 1)])
                    };
            }
        }
    }
    out
}

/// Assembles the stencil workload.
///
/// # Panics
///
/// Panics unless `n` is a multiple of [`YB`].
pub fn workload(n: usize, seed: u64) -> Workload {
    assert!(n.is_multiple_of(YB), "grid edge must be a multiple of {YB}");
    let memo = RefMemo::new(&[arg::IN]);
    let verify: crate::VerifyFn = Arc::new(move |args: &Args| {
        let want = memo.get(args, || {
            let g = args.f32(arg::IN).map_err(|e| e.to_string())?;
            Ok(reference(n, g))
        })?;
        check_close(
            "out",
            args.f32(arg::OUT).map_err(|e| e.to_string())?,
            &want,
            1e-4,
        )
    });
    Workload::new(
        "stencil",
        build_args(n, seed),
        ((n / YB) * n) as u64,
        cpu_variants(n),
        gpu_variants(n),
        verify,
    )
    .iterative()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Target;

    #[test]
    fn all_variants_match_reference() {
        let w = workload(32, 9);
        for target in [Target::Cpu, Target::Gpu] {
            for v in w.variants(target) {
                let mut args = w.fresh_args();
                let mut ctx = GroupCtx::for_test(0, 0, w.total_units, &args);
                v.kernel.run_group(&mut ctx, &mut args);
                w.verify(&args)
                    .unwrap_or_else(|e| panic!("{} ({target}): {e}", v.name()));
            }
        }
    }

    #[test]
    fn unit_count_and_coords() {
        let w = workload(32, 9);
        assert_eq!(w.total_units, 4 * 32);
        assert_eq!(unit_coords(32, 0), (0, 0));
        assert_eq!(unit_coords(32, 31), (0, 31)); // same y-block, last z
        assert_eq!(unit_coords(32, 32), (8, 0)); // next y-block
    }

    #[test]
    fn wa_factors_cover_the_case3_lcm() {
        let vs = gpu_variants(32);
        let was: Vec<u32> = vs.iter().map(|v| v.meta.wa_factor).collect();
        assert_eq!(was, vec![1, 8, 16]);
    }

    #[test]
    fn partial_unit_ranges_still_verify() {
        let w = workload(32, 9);
        let v = &w.variants(Target::Gpu)[1]; // z-coarsen, wa 8
        let mut args = w.fresh_args();
        for (a, b) in [(0, 37), (37, 100), (100, w.total_units)] {
            let mut ctx = GroupCtx::for_test(0, a, b, &args);
            v.kernel.run_group(&mut ctx, &mut args);
        }
        w.verify(&args).unwrap();
    }
}
