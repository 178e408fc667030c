//! Deterministic device timing models for DySel.
//!
//! The paper evaluates DySel on real hardware (an Intel i7-3820 CPU and an
//! NVIDIA K20c GPU). This reproduction substitutes deterministic timing
//! models that functionally execute kernels (real outputs) while scheduling
//! them in *virtual device time*:
//!
//! * [`CpuDevice`] — cores with private L1/L2/LLC-share cache simulation
//!   driven by each work-group's memory trace, a SIMD cost model with
//!   divergence masking overhead, and greedy earliest-free-core scheduling
//!   (the deterministic analogue of TBB work stealing).
//! * [`GpuDevice`] — streaming multiprocessors executing 32-lane warps with
//!   global-memory coalescing, per-SM texture caches, constant broadcast,
//!   scratchpad banking, occupancy limits, in-order streams and in-kernel
//!   cycle counters.
//!
//! Both are one simulated device: the launch engine in `exec.rs` around a
//! timing model ([`cpu::CpuModel`], [`gpu::GpuModel`]). The engine holds
//! what the two share — the unit pool, the stream table, the noise, the
//! fault plan, the budget policy and the observer — and implements, once
//! for both, the [`Device`] trait the DySel runtime drives. A model
//! supplies only its identity, its fixed costs and the per-unit cost of a
//! work-group. All randomness (measurement noise) is seeded, so every
//! experiment in the paper's evaluation regenerates bit-identically.
//!
//! Every launch runs its work-groups on the calling thread, in canonical
//! order, each priced as it runs, so outputs, measurements and selections
//! are bit-identical on every run.
//!
//! # Example
//!
//! ```
//! use dysel_device::{CpuConfig, CpuDevice, Device, DeviceKind};
//!
//! let mut cpu = CpuDevice::new(CpuConfig::default());
//! assert_eq!(cpu.kind(), DeviceKind::Cpu);
//! cpu.reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod cycles;
mod device;
mod exec;
mod fault;
pub mod gpu;
mod noise;
mod rules;
mod sched;

pub use cpu::{CacheConfig, CacheHierarchy, CpuConfig, CpuDevice, SetAssocCache};
pub use cycles::path::{pricing_path, set_pricing_path, PricingPath};
pub use cycles::Cycles;
pub use device::{
    BatchEntry, BudgetPolicy, Device, DeviceKind, LaunchFailure, LaunchOutcome, LaunchPreemption,
    LaunchRecord, LaunchSpec, StreamId,
};
pub use fault::{FaultKind, FaultPlan, FaultRule, InjectedFault, DEFAULT_HANG_FACTOR};
pub use gpu::{GpuConfig, GpuDevice, GpuGeneration};
pub use noise::NoiseModel;
pub use rules::{PlanParseError, Rule, RuleSet};
pub use sched::{Placement, UnitPool};
