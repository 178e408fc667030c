//! Deterministic throughput-GPU timing model.
//!
//! Mirrors the paper's GPU target (an NVIDIA K20c, Kepler): streaming
//! multiprocessors executing 32-lane warps, global-memory coalescing into
//! 128-byte segments, a small per-SM read-only/texture cache, constant
//! broadcast, scratchpad banking, occupancy limits, concurrent streams and
//! an in-kernel cycle counter used for micro-profiling measurement (§3.3).

mod cost;

pub use cost::{coalesced_segments, gather_segments, smem_conflict_degree};

use std::sync::Arc;

use dysel_kernel::{Args, VariantMeta};

use crate::cycles::path::PricingPath;
use dysel_obs::EventSink;

use crate::cpu::{CacheConfig, SetAssocCache};
use crate::device::{
    BatchEntry, BudgetPolicy, Device, DeviceKind, LaunchOutcome, LaunchSpec, StreamId, StreamTable,
};
use crate::exec::{launch_batch_engine, Executor, Feed, PriceModel, Pricer};
use crate::fault::FaultPlan;
use crate::noise::NoiseModel;
use crate::sched::UnitPool;
use crate::Cycles;

/// GPU hardware generation, selecting a parameter preset.
///
/// The PORPLE-style baseline chooses placements from these presets; using a
/// preset that does not match the executing device reproduces the paper's
/// "policy generated for Fermi, run on Kepler" situation (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuGeneration {
    /// Fermi-class (GTX 480-ish): global loads L1-cached, small texture
    /// cache, narrower segments.
    Fermi,
    /// Kepler-class (K20c) — the paper's evaluation device.
    Kepler,
    /// Maxwell-class: larger unified texture/L1 path.
    Maxwell,
}

impl GpuGeneration {
    /// All generations, stable order.
    pub fn all() -> [GpuGeneration; 3] {
        [
            GpuGeneration::Fermi,
            GpuGeneration::Kepler,
            GpuGeneration::Maxwell,
        ]
    }
}

impl std::fmt::Display for GpuGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GpuGeneration::Fermi => "fermi",
            GpuGeneration::Kepler => "kepler",
            GpuGeneration::Maxwell => "maxwell",
        })
    }
}

/// GPU model parameters.
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// Generation the parameters describe.
    pub generation: GpuGeneration,
    /// Number of streaming multiprocessors.
    pub sms: u32,
    /// Lanes per warp.
    pub warp_lanes: u32,
    /// Max resident work-groups per SM.
    pub max_groups_per_sm: u32,
    /// Max resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Scratchpad bytes per SM.
    pub smem_per_sm: u32,
    /// Issue cycles per warp instruction.
    pub issue_cycles: f64,
    /// Coalescing segment size in bytes.
    pub segment_bytes: u32,
    /// Throughput cost per global-memory segment per warp access.
    pub gmem_segment_cycles: f64,
    /// Whether global loads are cached in the texture-path cache
    /// (Fermi's L1, Maxwell's unified cache).
    pub global_loads_cached: bool,
    /// Per-SM read-only/texture cache.
    pub tex_cache: CacheConfig,
    /// Texture hit cost per warp access.
    pub tex_hit_cycles: f64,
    /// Constant-broadcast cost (all lanes on one word).
    pub const_broadcast_cycles: f64,
    /// Serialization cost per extra distinct word in a constant access.
    pub const_serialize_cycles: f64,
    /// Scratchpad cost per warp access per conflict way.
    pub smem_cycles: f64,
    /// Atomic cost per distinct word plus contention serialization.
    pub atomic_cycles: f64,
    /// Fixed scheduling cost per work-group.
    pub group_overhead_cycles: f64,
    /// Per-launch driver overhead.
    pub launch_overhead: Cycles,
    /// Host stream-query latency (`cudaStreamQuery`, §5.1: typically
    /// longer than a micro-profiling run itself).
    pub query_latency: Cycles,
    /// Relative std-dev of the in-kernel clock measurement.
    pub noise_sigma: f64,
    /// Relative std-dev of per-work-group execution jitter.
    pub exec_sigma: f64,
    /// Noise seed.
    pub seed: u64,
    /// Worker threads for the functional phase of launches (0 = one per
    /// available host core). Any value yields bit-identical results; see
    /// [`crate::Executor`].
    pub threads: usize,
}

impl GpuConfig {
    /// The paper's evaluation device: a Kepler K20c.
    pub fn kepler_k20c() -> Self {
        GpuConfig {
            generation: GpuGeneration::Kepler,
            sms: 13,
            warp_lanes: 32,
            max_groups_per_sm: 16,
            max_threads_per_sm: 2048,
            smem_per_sm: 48 << 10,
            issue_cycles: 1.0,
            segment_bytes: 128,
            gmem_segment_cycles: 10.0,
            global_loads_cached: false,
            tex_cache: CacheConfig {
                capacity: 48 << 10,
                ways: 24,
                line: 32,
            },
            tex_hit_cycles: 4.0,
            const_broadcast_cycles: 4.0,
            const_serialize_cycles: 18.0,
            smem_cycles: 2.0,
            atomic_cycles: 30.0,
            group_overhead_cycles: 200.0,
            launch_overhead: Cycles(4000),
            query_latency: Cycles(6000),
            noise_sigma: 0.01,
            exec_sigma: 0.004,
            seed: 0x6B20C,
            threads: 0,
        }
    }

    /// A Fermi-class preset.
    pub fn fermi() -> Self {
        GpuConfig {
            generation: GpuGeneration::Fermi,
            sms: 14,
            max_groups_per_sm: 8,
            max_threads_per_sm: 1536,
            gmem_segment_cycles: 14.0,
            global_loads_cached: true,
            tex_cache: CacheConfig {
                capacity: 8 << 10,
                ways: 16,
                line: 32,
            },
            tex_hit_cycles: 6.0,
            const_serialize_cycles: 14.0,
            ..GpuConfig::kepler_k20c()
        }
    }

    /// A Maxwell-class preset.
    pub fn maxwell() -> Self {
        GpuConfig {
            generation: GpuGeneration::Maxwell,
            sms: 16,
            gmem_segment_cycles: 9.0,
            global_loads_cached: true,
            tex_cache: CacheConfig {
                capacity: 24 << 10,
                ways: 24,
                line: 32,
            },
            tex_hit_cycles: 4.0,
            ..GpuConfig::kepler_k20c()
        }
    }

    /// Preset for a generation.
    pub fn for_generation(g: GpuGeneration) -> Self {
        match g {
            GpuGeneration::Fermi => GpuConfig::fermi(),
            GpuGeneration::Kepler => GpuConfig::kepler_k20c(),
            GpuGeneration::Maxwell => GpuConfig::maxwell(),
        }
    }

    /// Zero-noise copy for tests.
    pub fn noiseless(mut self) -> Self {
        self.noise_sigma = 0.0;
        self.exec_sigma = 0.0;
        self
    }

    /// Resident work-groups per SM for a variant's footprint.
    pub fn occupancy(&self, group_size: u32, smem_bytes: u32) -> u32 {
        let by_groups = self.max_groups_per_sm;
        let by_threads = (self.max_threads_per_sm / group_size.max(1)).max(1);
        let by_smem = self
            .smem_per_sm
            .checked_div(smem_bytes)
            .map_or(u32::MAX, |q| q.max(1));
        by_groups.min(by_threads).min(by_smem).max(1)
    }

    /// Latency-exposure multiplier for low occupancy: with fewer than four
    /// resident groups an SM cannot hide memory latency.
    pub fn latency_factor(&self, occupancy: u32) -> f64 {
        if occupancy >= 4 {
            1.0
        } else {
            1.0 + 0.15 * f64::from(4 - occupancy)
        }
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::kepler_k20c()
    }
}

/// The GPU device model.
///
/// # Example
///
/// ```
/// use dysel_device::{Device, GpuConfig, GpuDevice};
/// let gpu = GpuDevice::new(GpuConfig::kepler_k20c());
/// assert_eq!(gpu.units(), 13);
/// ```
#[derive(Debug)]
pub struct GpuDevice {
    cfg: GpuConfig,
    pool: UnitPool,
    tex_caches: Vec<SetAssocCache>,
    streams: StreamTable,
    noise: NoiseModel,
    exec_noise: NoiseModel,
    exec: Executor,
    fault: Option<FaultPlan>,
    budget: Option<BudgetPolicy>,
    obs: Option<Arc<EventSink>>,
}

impl GpuDevice {
    /// Builds a GPU device from a configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        let tex_caches = (0..cfg.sms)
            .map(|_| SetAssocCache::new(cfg.tex_cache))
            .collect();
        GpuDevice {
            pool: UnitPool::new(cfg.sms as usize),
            tex_caches,
            streams: StreamTable::default(),
            noise: NoiseModel::new(cfg.noise_sigma, cfg.seed),
            exec_noise: NoiseModel::new(cfg.exec_sigma, cfg.seed ^ 0x9E37_79B9),
            exec: Executor::new(cfg.threads),
            fault: None,
            budget: None,
            obs: None,
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The functional-phase executor (exposes the resolved worker count).
    pub fn executor(&self) -> &Executor {
        &self.exec
    }
}

/// Prices work-groups against per-SM texture-cache state.
struct GpuPriceModel<'a> {
    cfg: &'a GpuConfig,
    tex_caches: &'a mut [SetAssocCache],
    /// Scalar reference vs batched fast path, pinned for the launch.
    path: PricingPath,
    /// Segment-id scratch lent to the cost sinks (lives for the launch, so
    /// the batched path allocates at most once per launch batch).
    scratch: Vec<u64>,
}

impl PriceModel for GpuPriceModel<'_> {
    fn price_group(&mut self, sm: usize, meta: &VariantMeta, feed: Feed<'_>) -> Cycles {
        let occ = self
            .cfg
            .occupancy(meta.group_size, meta.ir.scratchpad_bytes);
        let lat_factor = self.cfg.latency_factor(occ);
        let mut sink = cost::GpuCostSink::new(
            self.cfg,
            &mut self.tex_caches[sm],
            self.path,
            &mut self.scratch,
        );
        feed.emit(meta, &mut sink);
        sink.total(lat_factor)
    }
}

impl Default for GpuDevice {
    fn default() -> Self {
        GpuDevice::new(GpuConfig::default())
    }
}

impl Device for GpuDevice {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Gpu
    }

    fn name(&self) -> String {
        format!("gpu/{}-{}sm", self.cfg.generation, self.cfg.sms)
    }

    fn units(&self) -> u32 {
        self.cfg.sms
    }

    fn launch_overhead(&self) -> Cycles {
        self.cfg.launch_overhead
    }

    fn query_latency(&self) -> Cycles {
        self.cfg.query_latency
    }

    fn launch(&mut self, spec: LaunchSpec<'_>) -> LaunchOutcome {
        let entry = BatchEntry {
            kernel: spec.kernel,
            meta: spec.meta,
            units: spec.units,
            target: 0,
            stream: spec.stream,
            not_before: spec.not_before,
            measured: spec.measured,
            budget: spec.budget,
        };
        self.launch_batch(&[entry], &mut [spec.args])
            .pop()
            .expect("one outcome per entry")
    }

    fn launch_batch(
        &mut self,
        entries: &[BatchEntry<'_>],
        targets: &mut [&mut Args],
    ) -> Vec<LaunchOutcome> {
        // Launch overhead overlaps execution of earlier work in the same
        // stream (pipelined enqueue): only the issue side pays it. The
        // measured value is the in-kernel clock readout (Fig. 7): atomicMin
        // of first block start / atomicMax-ish of last block end, summed as
        // busy time and read back by the host.
        let pricer = Pricer {
            streams: &mut self.streams,
            pool: &mut self.pool,
            exec_noise: &mut self.exec_noise,
            meas_noise: &mut self.noise,
            launch_overhead: self.cfg.launch_overhead,
            model: GpuPriceModel {
                cfg: &self.cfg,
                tex_caches: &mut self.tex_caches,
                path: crate::cycles::path::pricing_path(),
                scratch: Vec::new(),
            },
        };
        launch_batch_engine(
            &self.exec,
            entries,
            targets,
            pricer,
            self.fault.as_mut(),
            self.budget,
            self.obs.as_deref(),
        )
    }

    fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    fn set_budget_policy(&mut self, policy: Option<BudgetPolicy>) {
        self.budget = policy;
    }

    fn budget_policy(&self) -> Option<BudgetPolicy> {
        self.budget
    }

    fn set_observer(&mut self, obs: Option<Arc<EventSink>>) {
        self.obs = obs;
    }

    fn observer(&self) -> Option<&Arc<EventSink>> {
        self.obs.as_ref()
    }

    fn stream_end(&self, stream: StreamId) -> Cycles {
        self.streams.end_of(stream)
    }

    fn earliest_unit_free(&self) -> Cycles {
        self.pool.earliest_free()
    }

    fn busy_until(&self) -> Cycles {
        self.pool.busy_until()
    }

    fn reset(&mut self) {
        self.pool.reset();
        self.streams.reset();
        self.noise.reset();
        self.exec_noise.reset();
        for c in &mut self.tex_caches {
            c.reset();
        }
        if let Some(plan) = &mut self.fault {
            plan.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysel_kernel::{Args, Buffer, KernelIr, Space, UnitRange, Variant, VariantMeta};

    fn gpu() -> GpuDevice {
        GpuDevice::new(GpuConfig::kepler_k20c().noiseless())
    }

    /// A kernel where each group's warps read one row of 1024 floats,
    /// either coalesced (stride 1) or strided.
    fn rowread(stride: i64) -> Variant {
        Variant::from_fn(
            VariantMeta::new(format!("rowread{stride}"), KernelIr::regular(vec![0]))
                .with_group_size(128),
            move |ctx, args| {
                let row = 1024u64;
                for u in ctx.units().iter() {
                    for w in 0..(row / 32) {
                        ctx.warp_load(1, u * row + w * 32, stride, 32);
                    }
                    ctx.vector_compute(row / 32, 32, 32, 1);
                }
                let _ = args;
            },
        )
    }

    fn one_buf_args(n: usize) -> Args {
        let mut a = Args::new();
        a.push(Buffer::f32("out", vec![0.0; 4], Space::Global));
        a.push(Buffer::f32("in", vec![1.0; n], Space::Global));
        a
    }

    fn span_of(v: &Variant, units: u64) -> Cycles {
        let mut dev = gpu();
        let mut a = one_buf_args(1024 * units as usize);
        dev.launch(LaunchSpec {
            kernel: v.kernel.as_ref(),
            meta: &v.meta,
            units: UnitRange::new(0, units),
            args: &mut a,
            stream: StreamId(0),
            not_before: Cycles::ZERO,
            measured: false,
            budget: None,
        })
        .unwrap_done()
        .span()
    }

    #[test]
    fn coalesced_beats_strided() {
        let fast = span_of(&rowread(1), 64);
        let slow = span_of(&rowread(64), 64);
        assert!(
            slow.as_f64() > 5.0 * fast.as_f64(),
            "strided {slow} vs coalesced {fast}"
        );
    }

    #[test]
    fn occupancy_limits() {
        let cfg = GpuConfig::kepler_k20c();
        assert_eq!(cfg.occupancy(128, 0), 16);
        assert_eq!(cfg.occupancy(1024, 0), 2);
        assert_eq!(cfg.occupancy(128, 24 << 10), 2);
        assert!(cfg.latency_factor(2) > cfg.latency_factor(8));
    }

    #[test]
    fn streams_share_sms_but_are_ordered_within() {
        let mut dev = gpu();
        let v = rowread(1);
        let mut a = one_buf_args(1024 * 26);
        let r1 = dev.launch(LaunchSpec {
            kernel: v.kernel.as_ref(),
            meta: &v.meta,
            units: UnitRange::new(0, 13),
            args: &mut a,
            stream: StreamId(1),
            not_before: Cycles::ZERO,
            measured: false,
            budget: None,
        });
        let r1 = r1.unwrap_done();
        let r2 = dev.launch(LaunchSpec {
            kernel: v.kernel.as_ref(),
            meta: &v.meta,
            units: UnitRange::new(13, 26),
            args: &mut a,
            stream: StreamId(1),
            not_before: Cycles::ZERO,
            measured: false,
            budget: None,
        });
        let r2 = r2.unwrap_done();
        // Same stream: second launch starts after the first ends.
        assert!(r2.start >= r1.end);
    }

    #[test]
    fn generations_have_distinct_cost_structure() {
        let k = GpuConfig::kepler_k20c();
        let f = GpuConfig::fermi();
        let m = GpuConfig::maxwell();
        assert_ne!(k.gmem_segment_cycles, f.gmem_segment_cycles);
        assert!(k.tex_cache.capacity > f.tex_cache.capacity);
        assert!(f.global_loads_cached && !k.global_loads_cached);
        assert!(m.global_loads_cached);
    }

    #[test]
    fn measured_span_reported() {
        let mut dev = gpu();
        let v = rowread(1);
        let mut a = one_buf_args(1024 * 13);
        let rec = dev.launch(LaunchSpec {
            kernel: v.kernel.as_ref(),
            meta: &v.meta,
            units: UnitRange::new(0, 13),
            args: &mut a,
            stream: StreamId(0),
            not_before: Cycles::ZERO,
            measured: true,
            budget: None,
        });
        let rec = rec.unwrap_done();
        // Throughput-normalized measurement: the busy-time sum, which for
        // 13 equal groups on 13 SMs is ~13x the wall span.
        assert_eq!(rec.measured, Some(rec.busy));
        assert!(rec.busy >= rec.span());
    }
}
