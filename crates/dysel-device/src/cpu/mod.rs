//! Deterministic multicore CPU timing model.
//!
//! Mirrors the paper's CPU target (an Intel i7-3820 driven through Intel's
//! OpenCL stack with TBB-style scheduling, §3.2): a handful of cores, a
//! private cache hierarchy per core, SIMD execution with
//! masking/packing/unpacking overheads under control divergence, and a
//! work-stealing scheduler where profiling tasks take priority simply by
//! being issued first.

mod cache;

pub use cache::{CacheConfig, CacheHierarchy, SetAssocCache};

use dysel_kernel::{Args, Kernel, MemOp, Space, TraceSink, UnitRange, VariantMeta};

use crate::cycles::{lanes, path::PricingPath};
use crate::device::DeviceKind;
use crate::exec::{run_group, DeviceModel, Engine};
use crate::Cycles;

/// CPU model parameters.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    /// Number of cores (execution units).
    pub cores: u32,
    /// Scalar arithmetic throughput, ops per cycle.
    pub ipc: f64,
    /// L1d configuration.
    pub l1: CacheConfig,
    /// L2 configuration.
    pub l2: CacheConfig,
    /// Per-core LLC share configuration.
    pub l3: CacheConfig,
    /// Cycles to pack/unpack one gathered lane (no hardware gather).
    pub gather_pack_cycles: f64,
    /// Masking/blending overhead per *divergent* vector iteration,
    /// multiplied by the vector width (wider SIMD ⇒ larger overhead, §1).
    pub mask_cycles_per_lane: f64,
    /// Extra cycles for an atomic RMW beyond the cache access.
    pub atomic_extra_cycles: f64,
    /// Cost of a work-group barrier: on a CPU, a barrier forces loop
    /// fission / work-item context switches across the serialized group.
    pub barrier_cycles: f64,
    /// Per-launch task-spawn overhead.
    pub launch_overhead: Cycles,
    /// Host-side status-query cost (nearly free on the CPU).
    pub query_latency: Cycles,
    /// Relative std-dev of measurement noise (CPUs are noisy, §5.2).
    pub noise_sigma: f64,
    /// Relative std-dev of per-work-group *execution* jitter (system noise;
    /// creates the profiling drain tails that asynchronous DySel fills).
    pub exec_sigma: f64,
    /// Noise seed.
    pub seed: u64,
    /// Ignored. Every launch runs its work-groups on the calling thread,
    /// priced as they run; the field remains only so that existing
    /// configurations still build, and is slated for removal.
    pub threads: usize,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            cores: 4,
            ipc: 2.0,
            l1: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            l3: CacheConfig::llc_share(),
            gather_pack_cycles: 2.0,
            mask_cycles_per_lane: 3.0,
            atomic_extra_cycles: 20.0,
            barrier_cycles: 150.0,
            launch_overhead: Cycles(3000),
            query_latency: Cycles(120),
            noise_sigma: 0.02,
            exec_sigma: 0.01,
            seed: 0xD75E1,
            threads: 0,
        }
    }
}

impl CpuConfig {
    /// A quieter configuration for tests (zero noise).
    pub fn noiseless() -> Self {
        CpuConfig {
            noise_sigma: 0.0,
            exec_sigma: 0.0,
            ..CpuConfig::default()
        }
    }
}

/// [`CpuConfig`]'s cost constants in integer half-cycles.
///
/// Every term the CPU model charges is a whole or half cycle: the cache
/// latencies, `1 / ipc` per op, and the config's per-lane and per-event
/// constants. The cost sink therefore sums exact `u64` half-cycles, and
/// the order in which it adds them cannot change a total.
#[derive(Debug, Clone, Copy)]
struct HalfCycles {
    per_op: u64,
    gather_pack: u64,
    mask_per_lane: u64,
    atomic_extra: u64,
    barrier: u64,
}

impl HalfCycles {
    /// # Panics
    ///
    /// If a cost constant is negative or not a whole number of
    /// half-cycles (`ipc: 3.0` is one: an op would cost 1/3 cycle).
    fn of(cfg: &CpuConfig) -> Self {
        let half = |field: &str, cycles: f64| {
            let h = 2.0 * cycles;
            assert!(
                h >= 0.0 && h.fract() == 0.0 && h < 2f64.powi(53),
                "CpuConfig::{field} must price a whole number of half-cycles, got {cycles} cycles"
            );
            h as u64
        };
        HalfCycles {
            per_op: half("ipc", 1.0 / cfg.ipc),
            gather_pack: half("gather_pack_cycles", cfg.gather_pack_cycles),
            mask_per_lane: half("mask_cycles_per_lane", cfg.mask_cycles_per_lane),
            atomic_extra: half("atomic_extra_cycles", cfg.atomic_extra_cycles),
            barrier: half("barrier_cycles", cfg.barrier_cycles),
        }
    }
}

/// Prices one work-group's trace against a core's cache hierarchy.
struct CpuCostSink<'a> {
    costs: HalfCycles,
    cache: &'a mut CacheHierarchy,
    /// Use the chunked fast path for lane address/line-id computation.
    /// Both paths must produce identical cost streams (DESIGN.md §4.15).
    batched: bool,
    /// Memory and compute cost so far, in half-cycles.
    half_cycles: u64,
    /// Last line touched by recent vector accesses: the hardware
    /// prefetcher tracks a few streams, so a warp/vector op that continues
    /// one of them gets its line fetches largely hidden.
    stream_tails: [i64; 4],
    next_tail: usize,
}

impl<'a> CpuCostSink<'a> {
    fn new(costs: HalfCycles, cache: &'a mut CacheHierarchy, path: PricingPath) -> Self {
        CpuCostSink {
            costs,
            cache,
            batched: path == PricingPath::Batched,
            half_cycles: 0,
            stream_tails: [i64::MIN; 4],
            next_tail: 0,
        }
    }

    /// Accesses `addr`, returning the latency in half-cycles.
    #[inline(always)]
    fn access(&mut self, addr: u64) -> u64 {
        2 * self.cache.access(addr)
    }

    /// The cost of a line fetch the prefetcher hides, in half-cycles.
    fn prefetched(&self) -> u64 {
        2 * (self.cache.l1_lat + 2)
    }

    /// One vector load/store issue: a hierarchy access per distinct
    /// consecutive line among the lanes.
    fn warp_lanes(&mut self, base: i64, stride: i64, lanes_n: u32) {
        if stride == 0 {
            self.half_cycles += self.access(base as u64);
            return;
        }
        let line = i64::from(self.cache.line());
        if self.batched {
            let shift = self.cache.line_shift();
            let last = base + i64::from(lanes_n.max(1) - 1) * stride;
            if lanes_n > 0 && stride.unsigned_abs() <= line as u64 && base >= 0 && last >= 0 {
                // Per-line form: adjacent lanes are at most one line apart,
                // so the lanes' distinct consecutive lines are exactly the
                // line ids from the first lane's to the last lane's. Walking
                // them issues the scalar form's `vector_line_access`
                // sequence, so cache state and stream tails evolve alike.
                let (first, last) = ((base >> shift) as u64, (last >> shift) as u64);
                if stride > 0 {
                    for ln in first..=last {
                        self.half_cycles += self.vector_line(ln);
                    }
                } else {
                    for ln in (last..=first).rev() {
                        self.half_cycles += self.vector_line(ln);
                    }
                }
                return;
            }
            // Chunked form: compute lane addresses and line ids a
            // fixed-width chunk at a time (vectorizable), then walk the
            // precomputed ids. Line ids truncate toward zero like the
            // scalar form's division (the bias only matters below 0).
            const W: usize = lanes::LANES;
            let bias = line - 1;
            let mut prev_line = i64::MIN;
            let n = lanes_n as usize;
            let mut l = 0usize;
            while l < n {
                let c = (n - l).min(W);
                let mut addrs = [0i64; W];
                let mut lns = [0i64; W];
                for k in 0..c {
                    addrs[k] = base + (l + k) as i64 * stride;
                    lns[k] = (addrs[k] + ((addrs[k] >> 63) & bias)) >> shift;
                }
                for k in 0..c {
                    if lns[k] != prev_line {
                        self.half_cycles += self.vector_line_access(addrs[k] as u64);
                        prev_line = lns[k];
                    }
                }
                l += c;
            }
        } else {
            // Reference form: one division and branch per lane.
            let mut prev_line = i64::MIN;
            for l in 0..lanes_n {
                let addr = base + i64::from(l) * stride;
                let ln = addr / line;
                if ln != prev_line {
                    self.half_cycles += self.vector_line_access(addr as u64);
                    prev_line = ln;
                }
            }
        }
    }

    /// Accesses `addr`'s line; see [`CpuCostSink::vector_line`].
    fn vector_line_access(&mut self, addr: u64) -> u64 {
        self.vector_line(addr >> self.cache.line_shift())
    }

    /// Accesses line `line`, charging a prefetched cost if it continues a
    /// tracked stream (and recording it as a stream tail either way).
    /// Returns half-cycles.
    fn vector_line(&mut self, line: u64) -> u64 {
        let lat = 2 * self.cache.access_line(line);
        let line = line as i64;
        let continued = self
            .stream_tails
            .iter_mut()
            .find(|t| **t != i64::MIN && (line == **t || line == **t + 1));
        match continued {
            Some(slot) => {
                *slot = line;
                lat.min(self.prefetched())
            }
            None => {
                self.stream_tails[self.next_tail] = line;
                self.next_tail = (self.next_tail + 1) % self.stream_tails.len();
                lat
            }
        }
    }

    /// Whole cycles, rounded up.
    fn total(&self) -> Cycles {
        Cycles(self.half_cycles.div_ceil(2))
    }

    /// Shared pricing for gathers, whether they arrive as an owned
    /// [`MemOp::Gather`] or through the allocation-free slice entry point.
    ///
    /// No hardware gather (AVX1-class): each lane is a scalar load plus
    /// register insert/extract traffic. Gathers wider than one 128-bit half
    /// (4 lanes) pay extra cross-lane insertion work — the masking/packing
    /// overhead that "gets larger with wider SIMD datapath width" (§1).
    fn price_gather(&mut self, addrs: &[u64]) {
        for &a in addrs {
            self.half_cycles += self.access(a);
        }
        // A single-lane "gather" is just a scalar load with a computed
        // address: no packing work.
        if addrs.len() > 1 {
            let widen = if addrs.len() > 4 { 3 } else { 1 };
            self.half_cycles += addrs.len() as u64 * self.costs.gather_pack * widen;
        }
    }

    /// Walks a strided stream through the hierarchy, in half-cycles: one
    /// cache access per chunk of elements that share a line, and an L1-hit
    /// latency for every other element.
    ///
    /// A chunk is `line / |stride|` consecutive elements when the stride
    /// is shorter than a line, one element when it is not, and the whole
    /// stream when it is 0. Constant-stride streams engage the hardware
    /// prefetcher: every chunk after the first is charged at most a small
    /// prefetched cost (the data still moves through the cache model, so
    /// capacity effects remain). Strides beyond 256 bytes defeat the
    /// streamer.
    fn stream_cost(&mut self, base: u64, count: u64, stride: i64) -> u64 {
        if count <= 1 {
            return if count == 0 { 0 } else { self.access(base) };
        }
        let l1 = 2 * self.cache.l1_lat;
        let line = u64::from(self.cache.line());
        let per_line = match stride.unsigned_abs() {
            0 => count,
            s if s < line => line / s,
            _ => 1,
        };
        let chunks = count.div_ceil(per_line);
        let prefetched = if stride.unsigned_abs() <= 256 {
            self.prefetched()
        } else {
            u64::MAX
        };
        let mut cost = (count - chunks) * l1 + self.access(base);
        let mut addr = base as i64;
        for _ in 1..chunks {
            addr += stride * per_line as i64;
            cost += self.access(addr as u64).min(prefetched);
        }
        cost
    }
}

impl TraceSink for CpuCostSink<'_> {
    fn mem(&mut self, op: &MemOp) {
        // On a CPU, GPU-specific spaces (texture/constant/scratchpad) all
        // lower to the uniform memory hierarchy — the paper's point that
        // GPU placements "make no difference for CPU" (§4.3) and that
        // scratchpad tiling only adds copy traffic.
        match op {
            MemOp::Warp {
                base,
                stride,
                lanes,
                ..
            } => {
                // A vector load/store: one hierarchy access per distinct
                // line touched by the lanes, with prefetcher coverage when
                // the op continues a tracked stream.
                self.warp_lanes(*base as i64, *stride, *lanes);
            }
            MemOp::WarpSeq {
                base,
                stride,
                lanes,
                repeat,
                step,
                ..
            } => {
                // Expand: each step is one vector access; the cache model
                // needs the real addresses.
                for k in 0..i64::from(*repeat) {
                    self.warp_lanes(*base as i64 + k * step, *stride, *lanes);
                }
            }
            MemOp::Gather { addrs, .. } => self.price_gather(addrs),
            MemOp::Stream {
                base,
                count,
                stride,
                ..
            } => {
                self.half_cycles += self.stream_cost(*base, *count, *stride);
            }
            MemOp::Atomic { base, lanes, .. } => {
                self.half_cycles +=
                    self.access(*base) + u64::from(*lanes) * self.costs.atomic_extra;
            }
            MemOp::Scratchpad { lanes, .. } => {
                // Scratchpad lowers to ordinary (hot, but real) memory:
                // roughly one L1-resident access per lane, slightly
                // amortized by vectorization: one cycle per lane.
                self.half_cycles += u64::from(*lanes) * 2;
            }
        }
    }

    fn gather(&mut self, _space: Space, addrs: &[u64], _elem: u32, _store: bool) {
        // CPU lowering ignores the space (see `mem` above); price straight
        // off the borrowed slice so the hot path never allocates.
        self.price_gather(addrs);
    }

    fn compute(&mut self, ops: u64) {
        self.half_cycles += ops * self.costs.per_op;
    }

    fn vector_compute(&mut self, iters: u64, width: u32, active: u32, ops_per_iter: u64) {
        // One vector iteration retires `ops_per_iter` vector instructions at
        // scalar-issue throughput; divergence adds masking/blending work
        // that grows with the SIMD width (§1, Fig. 1 discussion).
        let mut per_iter = ops_per_iter * self.costs.per_op;
        if active < width {
            per_iter += self.costs.mask_per_lane * u64::from(width);
        }
        self.half_cycles += iters * per_iter;
    }

    fn barrier(&mut self) {
        self.half_cycles += self.costs.barrier;
    }
}

/// The CPU device model: the shared launch engine around [`CpuModel`].
///
/// # Example
///
/// ```
/// use dysel_device::{CpuConfig, CpuDevice, Device};
/// let cpu = CpuDevice::new(CpuConfig::default());
/// assert_eq!(cpu.units(), 4);
/// ```
pub type CpuDevice = Engine<CpuModel>;

/// The CPU timing model: one cache hierarchy per core, priced in exact
/// half-cycles.
#[derive(Debug)]
pub struct CpuModel {
    cfg: CpuConfig,
    costs: HalfCycles,
    caches: Vec<CacheHierarchy>,
}

impl CpuDevice {
    /// Builds a CPU device from a configuration.
    ///
    /// # Panics
    ///
    /// If a cost constant of `cfg` (`ipc`, `gather_pack_cycles`,
    /// `mask_cycles_per_lane`, `atomic_extra_cycles`, `barrier_cycles`)
    /// does not price a whole number of half-cycles: the cost model sums
    /// exact integer half-cycles.
    pub fn new(cfg: CpuConfig) -> Self {
        let caches = (0..cfg.cores)
            .map(|_| CacheHierarchy::new(cfg.l1, cfg.l2, cfg.l3))
            .collect();
        Engine::with_model(
            cfg.noise_sigma,
            cfg.exec_sigma,
            cfg.seed,
            CpuModel {
                costs: HalfCycles::of(&cfg),
                caches,
                cfg,
            },
        )
    }

    /// The active configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.model.cfg
    }
}

impl Default for CpuDevice {
    fn default() -> Self {
        CpuDevice::new(CpuConfig::default())
    }
}

impl DeviceModel for CpuModel {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Cpu
    }

    fn name(&self) -> String {
        format!("cpu/{}-core", self.cfg.cores)
    }

    fn units(&self) -> u32 {
        self.cfg.cores
    }

    fn launch_overhead(&self) -> Cycles {
        self.cfg.launch_overhead
    }

    fn query_latency(&self) -> Cycles {
        self.cfg.query_latency
    }

    fn price_group(
        &mut self,
        unit: usize,
        kernel: &dyn Kernel,
        meta: &VariantMeta,
        group: (u64, UnitRange),
        args: &mut Args,
        path: PricingPath,
    ) -> Cycles {
        let mut sink = CpuCostSink::new(self.costs, &mut self.caches[unit], path);
        run_group(kernel, meta, group, args, &mut sink);
        sink.total()
    }

    fn reset(&mut self) {
        for c in &mut self.caches {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, LaunchSpec, StreamId};
    use dysel_kernel::{Buffer, KernelIr, Variant};

    fn copy_variant(stride: i64) -> Variant {
        Variant::from_fn(
            VariantMeta::new(format!("copy-stride{stride}"), KernelIr::regular(vec![0]))
                .with_wa_factor(256),
            move |ctx, args| {
                let u = ctx.units();
                let n = args.f32(1).unwrap().len() as u64;
                for i in u.iter() {
                    let src = (i * stride.unsigned_abs()) % n;
                    let v = args.f32(1).unwrap()[src as usize];
                    args.f32_mut(0).unwrap()[i as usize] = v;
                    ctx.stream_load(1, src, 1, 1);
                    ctx.stream_store(0, i, 1, 1);
                }
                ctx.compute(u.len());
            },
        )
    }

    fn args(n: usize) -> Args {
        let mut a = Args::new();
        a.push(Buffer::f32("out", vec![0.0; n], Space::Global));
        a.push(Buffer::f32(
            "in",
            (0..n).map(|i| i as f32).collect(),
            Space::Global,
        ));
        a
    }

    fn run(
        dev: &mut CpuDevice,
        v: &Variant,
        a: &mut Args,
        n: u64,
        measured: bool,
    ) -> crate::device::LaunchRecord {
        dev.launch(LaunchSpec {
            kernel: v.kernel.as_ref(),
            meta: &v.meta,
            units: UnitRange::new(0, n),
            args: a,
            stream: StreamId(0),
            not_before: Cycles::ZERO,
            measured,
            budget: None,
        })
        .unwrap_done()
    }

    #[test]
    fn launch_is_functional_and_scheduled() {
        let mut dev = CpuDevice::new(CpuConfig::noiseless());
        let v = copy_variant(1);
        let mut a = args(1024);
        let rec = run(&mut dev, &v, &mut a, 1024, false);
        assert_eq!(rec.groups, 4);
        assert!(rec.end > rec.start);
        assert_eq!(a.f32(0).unwrap()[100], 100.0);
        assert_eq!(dev.stream_end(StreamId(0)), rec.end);
    }

    #[test]
    fn strided_access_costs_more_than_sequential() {
        // 16 MiB working set: the strided walk misses to DRAM, the
        // sequential walk mostly hits in L1.
        let n = 1 << 22;
        let mut d1 = CpuDevice::new(CpuConfig::noiseless());
        let mut d2 = CpuDevice::new(CpuConfig::noiseless());
        let (v1, v2) = (copy_variant(1), copy_variant(4099));
        let mut a1 = args(n);
        let mut a2 = args(n);
        let seq = run(&mut d1, &v1, &mut a1, n as u64, false).span();
        let strided = run(&mut d2, &v2, &mut a2, n as u64, false).span();
        assert!(
            strided.as_f64() > 2.0 * seq.as_f64(),
            "strided {strided} vs sequential {seq}"
        );
    }

    #[test]
    fn measured_launches_report_a_span() {
        let mut dev = CpuDevice::new(CpuConfig::noiseless());
        let v = copy_variant(1);
        let mut a = args(256);
        let rec = run(&mut dev, &v, &mut a, 256, true);
        assert_eq!(rec.measured, Some(rec.busy));
        assert!(rec.busy >= rec.span());
    }

    #[test]
    fn reset_restores_time_zero_behaviour() {
        let mut dev = CpuDevice::new(CpuConfig::noiseless());
        let v = copy_variant(1);
        let mut a1 = args(512);
        let r1 = run(&mut dev, &v, &mut a1, 512, false);
        dev.reset();
        let mut a2 = args(512);
        let r2 = run(&mut dev, &v, &mut a2, 512, false);
        assert_eq!(r1.span(), r2.span());
        assert_eq!(r1.start, r2.start);
    }

    #[test]
    fn groups_spread_across_cores() {
        // Groups own disjoint 1 KiB slices (wa_factor 256), so per-core
        // locality matches the serial run and 4 cores give ~4x.
        let n = 1 << 20;
        let mut dev = CpuDevice::new(CpuConfig::noiseless());
        let v = copy_variant(1);
        let mut a = args(n);
        let parallel = run(&mut dev, &v, &mut a, n as u64, false).span();
        let mut dev1 = CpuDevice::new(CpuConfig {
            cores: 1,
            ..CpuConfig::noiseless()
        });
        let mut a1 = args(n);
        let serial = run(&mut dev1, &v, &mut a1, n as u64, false).span();
        let speedup = serial.as_f64() / parallel.as_f64();
        assert!(
            (3.0..=4.5).contains(&speedup),
            "speedup {speedup} (serial {serial}, parallel {parallel})"
        );
    }

    /// Prices `ops` through one path on a fresh hierarchy: the memory
    /// half-cycles and the per-level cache stats.
    fn price_ops(path: PricingPath, ops: &[MemOp]) -> (u64, [(u64, u64); 3]) {
        let cfg = CpuConfig::noiseless();
        let mut cache = CacheHierarchy::new(cfg.l1, cfg.l2, cfg.l3);
        let mut sink = CpuCostSink::new(HalfCycles::of(&cfg), &mut cache, path);
        for op in ops {
            sink.mem(op);
        }
        let half_cycles = sink.half_cycles;
        (half_cycles, cache.stats())
    }

    /// Prices a warp, a sequence continuing it (prefetch tails) and a
    /// re-touch of the first warp through both paths; they must agree.
    fn assert_warp_paths_agree(base: u64, stride: i64, lanes: u32) {
        let line = i64::from(CpuConfig::default().l1.line);
        let warp = MemOp::Warp {
            space: Space::Global,
            base,
            stride,
            lanes,
            elem: 4,
            store: false,
        };
        let ops = [
            warp.clone(),
            MemOp::WarpSeq {
                space: Space::Global,
                base: base + 3 * line as u64,
                stride,
                lanes,
                elem: 4,
                store: true,
                repeat: 3,
                step: line,
            },
            warp,
        ];
        assert_eq!(
            price_ops(PricingPath::Scalar, &ops),
            price_ops(PricingPath::Batched, &ops),
            "base={base} stride={stride} lanes={lanes}"
        );
    }

    #[test]
    fn warp_paths_agree_on_the_line_boundary_grid() {
        // Every stride in -2·line..=2·line (0, ±elem and ±line±1 among
        // them), lane-0 bases one byte either side of a line boundary and
        // every lane count up to 64.
        let line = i64::from(CpuConfig::default().l1.line);
        let boundary = 1000 * line as u64;
        for base in [boundary - 1, boundary, boundary + 1] {
            for stride in -2 * line..=2 * line {
                for lanes in 0..=64 {
                    assert_warp_paths_agree(base, stride, lanes);
                }
            }
        }
        // Negative strides from just above address 0: the last lanes fall
        // below 0, which keeps these warps off the per-line form.
        for stride in [-2 * line, -line - 1, -line, -line + 1, -4, -1] {
            for lanes in 0..=64 {
                assert_warp_paths_agree(line as u64, stride, lanes);
            }
        }
    }

    /// `stream_cost` as a loop over chunks in `f64` cycles, the form the
    /// closed form replaced: the reference it must match.
    fn loop_stream_cost(cache: &mut CacheHierarchy, base: u64, count: u64, stride: i64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let line = i64::from(cache.line());
        let l1 = cache.l1_lat as f64;
        let prefetched = l1 + 2.0;
        let prefetchable = stride != 0 && stride.unsigned_abs() <= 256;
        let mut lines_seen = 0u64;
        let mut cost = 0.0;
        if stride == 0 {
            cost += cache.access(base) as f64;
            cost += (count - 1) as f64 * l1;
            return cost;
        }
        let mut line_access = |cache: &mut CacheHierarchy, addr: u64| -> f64 {
            let lat = cache.access(addr) as f64;
            lines_seen += 1;
            if prefetchable && lines_seen > 1 {
                lat.min(prefetched)
            } else {
                lat
            }
        };
        if stride.unsigned_abs() < line as u64 {
            let per_line = (line / stride.abs()).max(1) as u64;
            let mut i = 0u64;
            let mut addr = base as i64;
            while i < count {
                let n = per_line.min(count - i);
                cost += line_access(cache, addr as u64);
                cost += (n - 1) as f64 * l1;
                addr += stride * n as i64;
                i += n;
            }
        } else {
            let mut addr = base as i64;
            for _ in 0..count {
                cost += line_access(cache, addr as u64);
                addr += stride;
            }
        }
        cost
    }

    #[test]
    fn closed_form_stream_cost_matches_the_loop() {
        let cfg = CpuConfig::noiseless();
        let line = u64::from(cfg.l1.line);
        let boundary = 1000 * line;
        let mut strides = vec![0i64];
        for s in [1, 4, 63, 64, 65, 256, 257, 768] {
            strides.extend([s, -s]);
        }
        for warm in [false, true] {
            for base in [boundary - 1, boundary, boundary + 1] {
                let mut fresh = CacheHierarchy::new(cfg.l1, cfg.l2, cfg.l3);
                if warm {
                    // 64 KiB of lines around the base: the later half
                    // stays in L1, the earlier half falls back to L2.
                    for k in 0..1024 {
                        fresh.access(base - 512 * line + k * line);
                    }
                }
                for &stride in &strides {
                    for count in 0..=40 {
                        let mut reference = fresh.clone();
                        let mut cache = fresh.clone();
                        let mut sink = CpuCostSink::new(
                            HalfCycles::of(&cfg),
                            &mut cache,
                            PricingPath::Batched,
                        );
                        // Twice: the second stream meets the lines the
                        // first one left behind.
                        for pass in 0..2 {
                            let want = loop_stream_cost(&mut reference, base, count, stride);
                            assert_eq!(
                                sink.stream_cost(base, count, stride) as f64,
                                2.0 * want,
                                "warm={warm} base={base} stride={stride} count={count} pass={pass}"
                            );
                        }
                        assert_eq!(
                            cache.stats(),
                            reference.stats(),
                            "warm={warm} base={base} stride={stride} count={count}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "CpuConfig::ipc must price a whole number of half-cycles")]
    fn a_cost_off_the_half_cycle_grid_is_refused() {
        CpuDevice::new(CpuConfig {
            ipc: 3.0,
            ..CpuConfig::noiseless()
        });
    }
}
