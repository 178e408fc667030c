//! Kernel-based data-parallel programming-model substrate for DySel.
//!
//! This crate provides the vocabulary that the rest of the DySel stack is
//! built on, mirroring the kernel-based data-parallel models (OpenCL, CUDA,
//! OpenACC, C++AMP) targeted by the paper:
//!
//! * [`Buffer`] / [`Args`] — typed device buffers with virtual addresses and
//!   memory-[`Space`] bindings, supporting cheap copy-on-write sandboxing
//!   (the storage backbone of hybrid- and swap-based productive profiling).
//! * [`Kernel`] — a kernel implementation executed one *work-group* at a
//!   time. Work-groups are the micro-profiling granularity of the paper
//!   (§2.1): each work-group covers a contiguous [`UnitRange`] of *workload
//!   units* determined by the variant's work-assignment factor.
//! * [`GroupCtx`] — the execution context handed to a work-group. Kernels
//!   compute real results through [`Args`] *and* emit a cost trace
//!   ([`MemOp`], compute ops) through the context so that device timing
//!   models can price the execution.
//! * [`KernelIr`] — a compact intermediate representation of the kernel's
//!   loop nest and access patterns, consumed by the compiler analyses
//!   (safe point, uniform workload, side effect) of §3.4.
//! * [`Variant`] / [`VariantMeta`] — one candidate implementation deposited
//!   in the kernel pool, carrying its work-assignment factor, work-group
//!   size, sandbox argument list and IR (the `DySelAddKernel` payload of
//!   Fig. 6(a)).
//!
//! # Example
//!
//! ```
//! use dysel_kernel::{Args, Buffer, GroupCtx, Kernel, Space};
//!
//! /// A kernel that doubles every element of arg 1 into arg 0.
//! struct Double;
//! impl Kernel for Double {
//!     fn run_group(&self, ctx: &mut GroupCtx<'_>, args: &mut Args) {
//!         let units = ctx.units();
//!         let (start, end) = (units.start as usize, units.end as usize);
//!         let src: Vec<f32> = args.f32(1).unwrap()[start..end].to_vec();
//!         args.f32_mut(0).unwrap()[start..end]
//!             .iter_mut()
//!             .zip(&src)
//!             .for_each(|(o, s)| *o = 2.0 * s);
//!         let n = (end - start) as u64;
//!         ctx.stream_load(1, start as u64, n, 1);
//!         ctx.stream_store(0, start as u64, n, 1);
//!         ctx.compute(n);
//!     }
//! }
//!
//! let mut args = Args::new();
//! args.push(Buffer::f32("out", vec![0.0; 8], Space::Global));
//! args.push(Buffer::f32("in", (0..8).map(|i| i as f32).collect(), Space::Global));
//! let mut ctx = GroupCtx::for_test(0, 0, 8, &args);
//! Double.run_group(&mut ctx, &mut args);
//! assert_eq!(args.f32(0).unwrap()[3], 6.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod ctx;
mod error;
mod file;
mod fnv;
mod ir;
mod kernel;
mod profile;
mod range;
mod rng;
mod space;
mod trace;

pub use buffer::{
    AddrSpace, Args, Buffer, BufferData, ElemType, ADDR_REGION_BITS, ADDR_REGION_BYTES,
};
pub use ctx::GroupCtx;
pub use error::KernelError;
pub use file::write_atomic;
pub use fnv::{fnv1a, fnv1a_step, FNV_OFFSET};
pub use ir::{AccessIr, AccessPattern, KernelIr, LoopBound, LoopIr, LoopKind};
pub use kernel::{Kernel, Variant, VariantId, VariantMeta};
pub use profile::{Orchestration, ProfilingMode};
pub use range::UnitRange;
pub use rng::XorShiftRng;
pub use space::Space;
pub use trace::{CountingSink, MemOp, NullSink, TraceSink};
