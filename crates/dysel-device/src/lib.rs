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
//! Both implement the [`Device`] trait the DySel runtime drives. All
//! randomness (measurement noise) is seeded, so every experiment in the
//! paper's evaluation regenerates bit-identically.
//!
//! Functional execution of work-groups runs on a std-only work pool (the
//! [`Executor`]), or live inside the pricing pass on a one-worker device;
//! the virtual-time pricing pass stays serial and prices work-groups in
//! canonical order, so outputs, measurements and selections are
//! bit-identical at any worker-thread count (the two-phase launch engine
//! in `exec.rs`).
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
pub use exec::Executor;
pub use fault::{FaultKind, FaultPlan, FaultRule, InjectedFault, DEFAULT_HANG_FACTOR};
pub use gpu::{GpuConfig, GpuDevice, GpuGeneration};
pub use noise::NoiseModel;
pub use rules::{PlanParseError, Rule, RuleSet};
pub use sched::{Placement, UnitPool};
