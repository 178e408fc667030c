//! Deterministic throughput-GPU timing model.
//!
//! Mirrors the paper's GPU target (an NVIDIA K20c, Kepler): streaming
//! multiprocessors executing 32-lane warps, global-memory coalescing into
//! 128-byte segments, a small per-SM read-only/texture cache, constant
//! broadcast, scratchpad banking, occupancy limits, concurrent streams and
//! an in-kernel cycle counter used for micro-profiling measurement (§3.3).

mod cost;

pub use cost::{coalesced_segments, gather_segments, smem_conflict_degree};

use dysel_kernel::{Args, Kernel, UnitRange, VariantMeta, ADDR_REGION_BYTES};

use crate::cpu::{CacheConfig, SetAssocCache};
use crate::cycles::path::PricingPath;
use crate::device::DeviceKind;
use crate::exec::{run_group, DeviceModel, Engine};
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
    /// Coalescing segment size in bytes (a power of two).
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
    /// Ignored. Every launch runs its work-groups on the calling thread,
    /// priced as they run; the field remains only so that existing
    /// configurations still build, and is slated for removal.
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

/// The GPU device model: the shared launch engine around [`GpuModel`].
///
/// # Example
///
/// ```
/// use dysel_device::{Device, GpuConfig, GpuDevice};
/// let gpu = GpuDevice::new(GpuConfig::kepler_k20c());
/// assert_eq!(gpu.units(), 13);
/// ```
pub type GpuDevice = Engine<GpuModel>;

/// The GPU timing model: coalescing and texture pricing against one
/// texture cache per SM.
#[derive(Debug)]
pub struct GpuModel {
    cfg: GpuConfig,
    tex_caches: Vec<SetAssocCache>,
    /// Distinct-id scratch lent to the cost sinks, so the batched path
    /// allocates it once per device.
    scratch: Vec<u64>,
}

impl GpuDevice {
    /// Builds a GPU device from a configuration.
    ///
    /// # Panics
    ///
    /// If `cfg.segment_bytes` is not a power of two, or exceeds one
    /// thread's address region (segment bounds would then depend on which
    /// region holds a buffer, not only on its offset there). The texture
    /// caches check their own set index in [`SetAssocCache::new`].
    pub fn new(cfg: GpuConfig) -> Self {
        assert!(
            cfg.segment_bytes.is_power_of_two(),
            "segment size must be a power of 2"
        );
        assert!(
            u64::from(cfg.segment_bytes) <= ADDR_REGION_BYTES,
            "segment size exceeds an address region"
        );
        let tex_caches = (0..cfg.sms)
            .map(|_| SetAssocCache::new(cfg.tex_cache))
            .collect();
        Engine::with_model(
            cfg.noise_sigma,
            cfg.exec_sigma,
            cfg.seed,
            GpuModel {
                cfg,
                tex_caches,
                scratch: Vec::new(),
            },
        )
    }

    /// The active configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.model.cfg
    }
}

impl Default for GpuDevice {
    fn default() -> Self {
        GpuDevice::new(GpuConfig::default())
    }
}

impl DeviceModel for GpuModel {
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

    /// The measured value is the in-kernel clock readout (Fig. 7): each
    /// group's priced cost, summed as busy time and read back by the host.
    fn price_group(
        &mut self,
        sm: usize,
        kernel: &dyn Kernel,
        meta: &VariantMeta,
        group: (u64, UnitRange),
        args: &mut Args,
        path: PricingPath,
    ) -> Cycles {
        let occ = self
            .cfg
            .occupancy(meta.group_size, meta.ir.scratchpad_bytes);
        let lat_factor = self.cfg.latency_factor(occ);
        let mut sink =
            cost::GpuCostSink::new(&self.cfg, &mut self.tex_caches[sm], path, &mut self.scratch);
        run_group(kernel, meta, group, args, &mut sink);
        sink.total(lat_factor)
    }

    fn reset(&mut self) {
        for c in &mut self.tex_caches {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, LaunchSpec, StreamId};
    use dysel_kernel::{Buffer, KernelIr, Space, Variant};

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
    #[should_panic(expected = "segment size must be a power of 2")]
    fn non_power_of_two_segment_is_rejected() {
        GpuDevice::new(GpuConfig {
            segment_bytes: 96,
            ..GpuConfig::kepler_k20c()
        });
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
