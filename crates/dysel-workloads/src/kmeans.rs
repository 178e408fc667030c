//! K-means assignment step (Rodinia's `kmeans`).
//!
//! Each point is assigned to its nearest of `k` centers. The workload unit
//! is a block of 32 points. Case I uses three CPU work-item schedules —
//! the loop orders of (point, cluster, dimension).

use std::sync::Arc;

use dysel_kernel::{
    AccessIr, Args, Buffer, KernelIr, LoopBound, LoopIr, LoopKind, Variant, VariantMeta,
};

use crate::{check_close, RefMemo, Workload};

/// Points per workload unit.
pub const POINT_BLOCK: usize = 32;

/// Argument indices of the kmeans signature.
pub mod arg {
    /// Output assignment (`i32`, one per point).
    pub const ASSIGN: usize = 0;
    /// Points (`n x d`, row-major).
    pub const POINTS: usize = 1;
    /// Centers (`k x d`, row-major).
    pub const CENTERS: usize = 2;
}

/// Problem shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Number of points.
    pub n: usize,
    /// Feature dimensions.
    pub d: usize,
    /// Number of clusters.
    pub k: usize,
}

/// The three CPU schedules of Case I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuOrder {
    /// point outer, cluster middle, dim inner (streams both rows).
    Pcd,
    /// cluster outer, point middle, dim inner (re-walks the point array
    /// once per cluster).
    Cpd,
    /// point outer, dim middle, cluster inner (strides the centers).
    Pdc,
}

impl CpuOrder {
    /// All three schedules.
    pub fn all() -> [CpuOrder; 3] {
        [CpuOrder::Pcd, CpuOrder::Cpd, CpuOrder::Pdc]
    }

    /// Lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CpuOrder::Pcd => "pcd",
            CpuOrder::Cpd => "cpd",
            CpuOrder::Pdc => "pdc",
        }
    }
}

fn compute_block(args: &mut Args, shape: Shape, unit: u64) {
    let lo = unit as usize * POINT_BLOCK;
    let hi = (lo + POINT_BLOCK).min(shape.n);
    let mut assign = [0i32; POINT_BLOCK];
    {
        let pts = args.f32(arg::POINTS).expect("points");
        let ctr = args.f32(arg::CENTERS).expect("centers");
        for (slot, p) in (lo..hi).enumerate() {
            let row = &pts[p * shape.d..(p + 1) * shape.d];
            let mut best = (f32::MAX, 0i32);
            for c in 0..shape.k {
                let crow = &ctr[c * shape.d..(c + 1) * shape.d];
                let dist: f32 = row.iter().zip(crow).map(|(a, b)| (a - b) * (a - b)).sum();
                if dist < best.0 {
                    best = (dist, c as i32);
                }
            }
            assign[slot] = best.1;
        }
    }
    let out = args.i32_mut(arg::ASSIGN).expect("assign");
    out[lo..hi].copy_from_slice(&assign[..hi - lo]);
}

fn ir(shape: Shape, order: CpuOrder) -> KernelIr {
    let d = shape.d as i64;
    let blk = POINT_BLOCK as i64;
    // Loop vars: p (work-item, one *block* of POINT_BLOCK points), c
    // (kernel), d (kernel). Within a block the point slot `s ∈ [0, 31]` is
    // a data-dependent offset: points[(blk·p + s)·d + dim] and
    // assign[blk·p + s], declared through `index_range` so the
    // interval/congruence tier can prove the 32-wide blocks disjoint.
    let (order_chars, _) = match order {
        CpuOrder::Pcd => (['p', 'c', 'd'], ()),
        CpuOrder::Cpd => (['c', 'p', 'd'], ()),
        CpuOrder::Pdc => (['p', 'd', 'c'], ()),
    };
    let coeff = |v: char| -> (i64, i64) {
        match v {
            'p' => (blk * d, 0),
            'c' => (0, d),
            _ => (1, 1),
        }
    };
    let loops = order_chars
        .iter()
        .map(|&v| {
            let kind = if v == 'p' {
                LoopKind::WorkItem(0)
            } else {
                LoopKind::Kernel
            };
            LoopIr::new(kind, LoopBound::UniformRuntime)
        })
        .collect();
    let (mut cp, mut cc, mut ca) = (vec![], vec![], vec![]);
    for &v in &order_chars {
        let (a, b) = coeff(v);
        cp.push(a);
        cc.push(b);
        // assign[blk·p + s]: block stride in the work-item loop, invariant
        // in c/d.
        ca.push(blk * i64::from(v == 'p'));
    }
    KernelIr::regular(vec![arg::ASSIGN])
        .with_loops(loops)
        .with_accesses(vec![
            AccessIr::affine_load(arg::POINTS, cp).with_index_range(0, (blk - 1) * d),
            AccessIr::affine_load(arg::CENTERS, cc),
            AccessIr::affine_store(arg::ASSIGN, ca).with_index_range(0, blk - 1),
        ])
}

/// One CPU schedule variant.
pub fn cpu_variant(shape: Shape, order: CpuOrder) -> Variant {
    let meta = VariantMeta::new(format!("lc-{}", order.name()), ir(shape, order))
        .with_group_size(POINT_BLOCK as u32);
    Variant::from_fn(meta, move |ctx, args| {
        let d = shape.d as u64;
        for u in ctx.units().iter() {
            compute_block(args, shape, u);
            let lo = u as usize * POINT_BLOCK;
            let hi = (lo + POINT_BLOCK).min(shape.n);
            match order {
                CpuOrder::Pcd => {
                    for p in lo..hi {
                        // The point row is loaded once and stays in
                        // registers across the cluster loop.
                        ctx.stream_load(arg::POINTS, p as u64 * d, d, 1);
                        for c in 0..shape.k as u64 {
                            ctx.stream_load(arg::CENTERS, c * d, d, 1);
                            ctx.compute(3 * d + 4);
                        }
                        ctx.stream_store(arg::ASSIGN, p as u64, 1, 1);
                    }
                }
                CpuOrder::Cpd => {
                    for c in 0..shape.k as u64 {
                        for p in lo..hi {
                            ctx.stream_load(arg::POINTS, p as u64 * d, d, 1);
                            ctx.stream_load(arg::CENTERS, c * d, d, 1);
                            ctx.compute(3 * d + 4);
                        }
                    }
                    ctx.stream_store(arg::ASSIGN, lo as u64, (hi - lo) as u64, 1);
                }
                CpuOrder::Pdc => {
                    for p in lo..hi {
                        for dim in 0..d {
                            // Innermost cluster loop strides the centers
                            // matrix column-wise.
                            ctx.stream_load(arg::POINTS, p as u64 * d + dim, 1, 1);
                            ctx.stream_load(arg::CENTERS, dim, shape.k as u64, shape.d as i64);
                            // The innermost cluster loop carries a branchy
                            // running-minimum update: no tight FMA chain.
                            ctx.compute(5 * shape.k as u64 + 4);
                        }
                        ctx.stream_store(arg::ASSIGN, p as u64, 1, 1);
                    }
                }
            }
        }
    })
}

/// The Case I CPU candidates.
pub fn cpu_variants(shape: Shape) -> Vec<Variant> {
    CpuOrder::all()
        .into_iter()
        .map(|o| cpu_variant(shape, o))
        .collect()
}

/// A single straightforward GPU variant (kmeans is CPU-focused in the
/// paper's case studies; the GPU set is provided for completeness).
pub fn gpu_variants(shape: Shape) -> Vec<Variant> {
    let meta = VariantMeta::new("gpu-base", ir(shape, CpuOrder::Pcd)).with_group_size(32);
    vec![Variant::from_fn(meta, move |ctx, args| {
        let d = shape.d as u64;
        for u in ctx.units().iter() {
            compute_block(args, shape, u);
            let lo = (u as usize * POINT_BLOCK) as u64;
            for c in 0..shape.k as u64 {
                for dim in 0..d {
                    ctx.warp_load(arg::POINTS, lo * d + dim, d as i64, 32);
                    ctx.warp_load(arg::CENTERS, c * d + dim, 0, 32);
                    ctx.vector_compute(1, 32, 32, 3);
                }
            }
            ctx.warp_store(arg::ASSIGN, lo, 1, 32);
        }
    })]
}

/// Builds the argument set with seeded clustered points.
pub fn build_args(shape: Shape, seed: u64) -> Args {
    use dysel_kernel::XorShiftRng;
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let centers: Vec<f32> = (0..shape.k * shape.d)
        .map(|_| rng.gen_range_f32(-4.0, 4.0))
        .collect();
    let mut pts = Vec::with_capacity(shape.n * shape.d);
    for _ in 0..shape.n {
        let c = rng.gen_range_usize(0, shape.k);
        for dim in 0..shape.d {
            pts.push(centers[c * shape.d + dim] + rng.gen_range_f32(-0.6, 0.6));
        }
    }
    let mut args = Args::new();
    args.push(Buffer::i32(
        "assign",
        vec![-1; shape.n],
        dysel_kernel::Space::Global,
    ));
    args.push(Buffer::f32("points", pts, dysel_kernel::Space::Global));
    args.push(Buffer::f32("centers", centers, dysel_kernel::Space::Global));
    args
}

fn reference(shape: Shape, pts: &[f32], ctr: &[f32]) -> Vec<i32> {
    (0..shape.n)
        .map(|p| {
            let row = &pts[p * shape.d..(p + 1) * shape.d];
            (0..shape.k)
                .min_by(|&a, &b| {
                    let da: f32 = row
                        .iter()
                        .zip(&ctr[a * shape.d..(a + 1) * shape.d])
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum();
                    let db: f32 = row
                        .iter()
                        .zip(&ctr[b * shape.d..(b + 1) * shape.d])
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum();
                    da.partial_cmp(&db).expect("finite distances")
                })
                .unwrap_or(0) as i32
        })
        .collect()
}

/// Assembles the kmeans workload.
pub fn workload(shape: Shape, seed: u64) -> Workload {
    let memo = RefMemo::new(&[arg::POINTS, arg::CENTERS]);
    let verify: crate::VerifyFn = Arc::new(move |args: &Args| {
        let want = memo.get(args, || {
            let pts = args.f32(arg::POINTS).map_err(|e| e.to_string())?;
            let ctr = args.f32(arg::CENTERS).map_err(|e| e.to_string())?;
            Ok(reference(shape, pts, ctr)
                .iter()
                .map(|&v| v as f32)
                .collect())
        })?;
        let got = args.i32(arg::ASSIGN).map_err(|e| e.to_string())?;
        let gotf: Vec<f32> = got.iter().map(|&v| v as f32).collect();
        check_close("assign", &gotf, &want, 0.0)
    });
    Workload::new(
        "kmeans",
        build_args(shape, seed),
        shape.n.div_ceil(POINT_BLOCK) as u64,
        cpu_variants(shape),
        gpu_variants(shape),
        verify,
    )
    .iterative()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Target;
    use dysel_kernel::GroupCtx;

    fn shape() -> Shape {
        Shape {
            n: 512,
            d: 16,
            k: 5,
        }
    }

    #[test]
    fn all_schedules_agree_with_reference() {
        let w = workload(shape(), 17);
        for target in [Target::Cpu, Target::Gpu] {
            for v in w.variants(target) {
                let mut args = w.fresh_args();
                let mut ctx = GroupCtx::for_test(0, 0, w.total_units, &args);
                v.kernel.run_group(&mut ctx, &mut args);
                w.verify(&args)
                    .unwrap_or_else(|e| panic!("{}: {e}", v.name()));
            }
        }
    }

    #[test]
    fn three_cpu_schedules() {
        assert_eq!(cpu_variants(shape()).len(), 3);
    }

    #[test]
    fn points_cluster_near_centers() {
        // Sanity on the generator: most points sit near their center.
        let w = workload(shape(), 17);
        let mut args = w.fresh_args();
        let v = &w.variants(Target::Cpu)[0];
        let mut ctx = GroupCtx::for_test(0, 0, w.total_units, &args);
        v.kernel.run_group(&mut ctx, &mut args);
        let assign = args.i32(arg::ASSIGN).unwrap();
        assert!(assign.iter().all(|&a| (0..5).contains(&a)));
    }
}
