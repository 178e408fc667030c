//! Particle filter likelihood kernel (Rodinia's `particlefilter`).
//!
//! Each particle evaluates a likelihood by gathering a window of
//! data-dependent pixels from a video frame and comparing against the
//! object template offsets. The workload unit is a block of 32 particles.
//!
//! Case II explores **data placement** candidates: where to bind the frame
//! (`image`) and the template offsets (`objxy`) — global, texture, or
//! constant memory — including the original Rodinia placement, a
//! rule-based heuristic, and PORPLE-style policies.

use std::sync::Arc;

use dysel_kernel::{
    AccessIr, Args, Buffer, KernelIr, LoopBound, LoopIr, LoopKind, Space, Variant, VariantMeta,
};

use crate::{check_close, RefMemo, Workload};

/// Particles per workload unit.
pub const PARTICLE_BLOCK: usize = 32;

/// Argument indices of the particlefilter signature.
pub mod arg {
    /// Output weights (one per particle).
    pub const WEIGHTS: usize = 0;
    /// Particle positions (one pixel index per particle, `u32`).
    pub const POS: usize = 1;
    /// Object template offsets (`u32`, reused by every particle).
    pub const OBJXY: usize = 2;
    /// The video frame (`f32` pixels).
    pub const IMAGE: usize = 3;
}

/// Problem shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Number of particles (paper: 32,000).
    pub particles: usize,
    /// Template window size (offsets per particle).
    pub window: usize,
    /// Frame size in pixels.
    pub frame: usize,
}

fn likelihood(pixel: f32) -> f32 {
    // Rodinia compares against foreground/background intensities.
    let fg = (pixel - 0.4) * (pixel - 0.4);
    let bg = (pixel - 0.9) * (pixel - 0.9);
    (bg - fg) * 0.5
}

fn compute_block(args: &mut Args, shape: Shape, unit: u64) {
    let lo = unit as usize * PARTICLE_BLOCK;
    let hi = (lo + PARTICLE_BLOCK).min(shape.particles);
    let mut out = [0.0f32; PARTICLE_BLOCK];
    {
        let pos = args.u32(arg::POS).expect("pos");
        let objxy = args.u32(arg::OBJXY).expect("objxy");
        let image = args.f32(arg::IMAGE).expect("image");
        for (slot, p) in (lo..hi).enumerate() {
            let mut acc = 0.0f32;
            for &off in objxy.iter().take(shape.window) {
                let idx = (pos[p] as usize + off as usize) % shape.frame;
                acc += likelihood(image[idx]);
            }
            out[slot] = acc / shape.window as f32;
        }
    }
    let w = args.f32_mut(arg::WEIGHTS).expect("weights");
    w[lo..hi].copy_from_slice(&out[..hi - lo]);
}

fn ir(_shape: Shape) -> KernelIr {
    KernelIr::regular(vec![arg::WEIGHTS])
        .with_loops(vec![
            LoopIr::new(LoopKind::WorkItem(0), LoopBound::UniformRuntime),
            LoopIr::new(LoopKind::Kernel, LoopBound::UniformRuntime),
        ])
        .with_accesses(vec![
            // Every lane reads the same template entry per step.
            AccessIr::affine_load(arg::OBJXY, vec![0, 1]).uniform(),
            // Gathered pixels fall in a bounded window around each
            // particle's position: the compiler can see `pos + objxy[f]`
            // with `objxy < 4096`.
            AccessIr::indirect_load(arg::IMAGE).with_reuse_window(4096 * 4),
            AccessIr::affine_store(arg::WEIGHTS, vec![1, 0]),
        ])
}

/// One GPU placement variant: where `image` and `objxy` live.
pub fn gpu_variant(shape: Shape, name: &str, image: Space, objxy: Space) -> Variant {
    let mut placements = vec![None; 4];
    placements[arg::IMAGE] = Some(image);
    placements[arg::OBJXY] = Some(objxy);
    let meta = VariantMeta::new(name, ir(shape))
        .with_group_size(PARTICLE_BLOCK as u32)
        .with_placements(placements);
    Variant::from_fn(meta, move |ctx, args| {
        // Functional phase first: `pos`/`objxy` are read-only, so the
        // emission loop borrows them once for the whole span instead of
        // cloning `pos` per block.
        for u in ctx.units().iter() {
            compute_block(args, shape, u);
        }
        let pos = args.u32(arg::POS).expect("pos");
        let objxy = args.u32(arg::OBJXY).expect("objxy");
        for u in ctx.units().iter() {
            let lo = u as usize * PARTICLE_BLOCK;
            let hi = (lo + PARTICLE_BLOCK).min(shape.particles);
            let n = (hi - lo) as u32;
            ctx.warp_load(arg::POS, lo as u64, 1, n);
            let mut addrs = [0u64; 32];
            for (f, &off) in objxy.iter().take(shape.window).enumerate() {
                // All lanes read the same template offset (broadcast) ...
                ctx.warp_load(arg::OBJXY, f as u64, 0, n);
                // ... then gather their own pixel.
                for (slot, p) in (lo..hi).enumerate() {
                    addrs[slot] = (u64::from(pos[p]) + u64::from(off)) % shape.frame as u64;
                }
                ctx.gather(arg::IMAGE, &addrs[..n as usize]);
                ctx.vector_compute(1, 32, n, 6);
            }
            ctx.warp_store(arg::WEIGHTS, lo as u64, 1, n);
        }
    })
}

/// The four placement candidates of Case II.
pub fn gpu_variants(shape: Shape) -> Vec<Variant> {
    vec![
        // Original Rodinia placement: everything in global memory.
        gpu_variant(shape, "rodinia-global", Space::Global, Space::Global),
        // Rule-based heuristic: small reused read-only array => constant;
        // big gathered array => texture.
        gpu_variant(shape, "heuristic", Space::Texture, Space::Constant),
        // PORPLE policy under Fermi parameters.
        gpu_variant(shape, "porple-fermi", Space::Texture, Space::Global),
        // PORPLE policy under Kepler parameters.
        gpu_variant(shape, "porple-kepler", Space::Texture, Space::Constant),
    ]
}

/// A minimal CPU set (placements are indistinguishable on the CPU).
pub fn cpu_variants(shape: Shape) -> Vec<Variant> {
    vec![
        gpu_variant(shape, "cpu-base", Space::Global, Space::Global),
        gpu_variant(shape, "cpu-alt", Space::Texture, Space::Constant),
    ]
}

/// Builds the argument set: seeded frame, particle positions and template.
pub fn build_args(shape: Shape, seed: u64) -> Args {
    use dysel_kernel::XorShiftRng;
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let image: Vec<f32> = (0..shape.frame)
        .map(|_| rng.gen_range_f32(0.0, 1.0))
        .collect();
    let pos: Vec<u32> = (0..shape.particles)
        .map(|_| rng.gen_range_u32(0, shape.frame as u32))
        .collect();
    let objxy: Vec<u32> = (0..shape.window)
        .map(|_| rng.gen_range_u32(0, 4096))
        .collect();
    let mut args = Args::new();
    args.push(Buffer::f32(
        "weights",
        vec![0.0; shape.particles],
        Space::Global,
    ));
    args.push(Buffer::u32("pos", pos, Space::Global));
    args.push(Buffer::u32("objxy", objxy, Space::Global));
    args.push(Buffer::f32("image", image, Space::Global));
    args
}

/// Assembles the particle filter workload.
pub fn workload(shape: Shape, seed: u64) -> Workload {
    let memo = RefMemo::new(&[arg::POS, arg::OBJXY, arg::IMAGE]);
    let verify: crate::VerifyFn = Arc::new(move |args: &Args| {
        let want = memo.get(args, || {
            let pos = args.u32(arg::POS).map_err(|e| e.to_string())?;
            let objxy = args.u32(arg::OBJXY).map_err(|e| e.to_string())?;
            let image = args.f32(arg::IMAGE).map_err(|e| e.to_string())?;
            Ok((0..shape.particles)
                .map(|p| {
                    let acc: f32 = objxy
                        .iter()
                        .take(shape.window)
                        .map(|&off| {
                            likelihood(image[(pos[p] as usize + off as usize) % shape.frame])
                        })
                        .sum();
                    acc / shape.window as f32
                })
                .collect())
        })?;
        check_close(
            "weights",
            args.f32(arg::WEIGHTS).map_err(|e| e.to_string())?,
            &want,
            1e-4,
        )
    });
    Workload::new(
        "particlefilter",
        build_args(shape, seed),
        shape.particles.div_ceil(PARTICLE_BLOCK) as u64,
        cpu_variants(shape),
        gpu_variants(shape),
        verify,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Target;
    use dysel_kernel::GroupCtx;

    fn shape() -> Shape {
        Shape {
            particles: 512,
            window: 16,
            frame: 1 << 14,
        }
    }

    #[test]
    fn all_placements_match_reference() {
        let w = workload(shape(), 31);
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
    fn four_placement_candidates() {
        let vs = gpu_variants(shape());
        assert_eq!(vs.len(), 4);
        assert_eq!(vs[0].meta.placements[arg::IMAGE], Some(Space::Global));
        assert_eq!(vs[2].meta.placements[arg::IMAGE], Some(Space::Texture));
    }

    #[test]
    fn workload_is_irregular_by_ir() {
        // The image gather is data-dependent: hybrid profiling territory.
        let w = workload(shape(), 31);
        let v = &w.variants(Target::Gpu)[0];
        assert!(v
            .meta
            .ir
            .accesses
            .iter()
            .any(|a| matches!(a.pattern, dysel_kernel::AccessPattern::Indirect)));
    }
}
