//! Typed device buffers and kernel argument sets.
//!
//! Buffers carry a virtual base address (used by the device cache models),
//! a memory-[`Space`] binding and copy-on-write storage. Copy-on-write is
//! what makes the sandbox / private-output mechanics of hybrid- and
//! swap-based partial-productive profiling cheap: a sandbox [`Args`] shares
//! every input buffer with the original and only the written output buffers
//! are actually duplicated.

use std::cell::Cell;
use std::fmt;
use std::ops::{BitOr, BitXor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::fnv::{fnv1a, fnv1a_step, FNV_OFFSET};
use crate::{KernelError, Space};

/// `log2` of the span of one thread's virtual-address region (1 TiB).
///
/// Every address the device models read for set indices or segment
/// bounds lies below this bit, so moving a buffer to another region
/// never changes its priced cost; `SetAssocCache::new` and
/// `GpuDevice::new` assert that of their geometry.
pub const ADDR_REGION_BITS: u32 = 40;

/// Bytes in one thread's virtual-address region.
pub const ADDR_REGION_BYTES: u64 = 1 << ADDR_REGION_BITS;

/// Offset of the first buffer in every region (and in every
/// [`AddrSpace`]).
const REGION_FIRST: u64 = 0x1000;

/// Regions there are: every address stays below 2^63, because the pricing
/// models do signed lane-address arithmetic on it.
const MAX_REGIONS: u64 = 1 << (63 - ADDR_REGION_BITS);

/// Index of the next unclaimed region. Only region indices are shared
/// between threads; addresses within a region are handed out by its
/// owning thread alone.
static NEXT_REGION: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's bump cursor: (next address, end of its region).
    /// `(0, 0)` until the thread first allocates.
    static CURSOR: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

// 256-byte alignment mirrors typical device allocator granularity and
// keeps distinct buffers in distinct 128-byte coalescing segments.
fn aligned_size(bytes: u64) -> u64 {
    bytes.div_ceil(256).max(1) * 256
}

/// Virtual-address bump allocator with one region per thread. Buffers
/// never share cache lines.
///
/// The device cache models hash buffer addresses into lines and sets, so
/// a launch's priced cost depends on where its buffers sit. Each thread
/// bumps a cursor inside a region of [`ADDR_REGION_BYTES`] it owns; the
/// first thread to allocate gets region 0, starting at `0x1000`, so a
/// single-threaded process sees the addresses one global counter would
/// give it. An address's offset within its region is therefore a
/// function of the calling thread's own allocation history alone: other
/// threads allocating at the same time cannot shift a runtime's timeline.
///
/// # Panics
///
/// Neither exhaustion case aliases. A thread whose region cannot fit the
/// next buffer moves on to a fresh region (its offsets restart at
/// `0x1000`, still a function of its own history). A single buffer
/// larger than a region, or a claim past the last region, panics — the
/// region index never wraps.
fn alloc_addr(bytes: u64) -> u64 {
    let size = aligned_size(bytes);
    CURSOR.with(|cursor| {
        let (mut next, mut end) = cursor.get();
        if size > end - next {
            (next, end) = claim_region(size);
        }
        cursor.set((next + size, end));
        next
    })
}

/// Claims the next unused region for the calling thread; returns its
/// (first address, end).
fn claim_region(size: u64) -> (u64, u64) {
    assert!(
        size <= ADDR_REGION_BYTES - REGION_FIRST,
        "a {size}-byte buffer does not fit one {ADDR_REGION_BYTES}-byte address region"
    );
    let region = NEXT_REGION.fetch_add(1, Ordering::Relaxed);
    assert!(
        region < MAX_REGIONS,
        "virtual address space exhausted: all {MAX_REGIONS} regions claimed"
    );
    let start = region << ADDR_REGION_BITS;
    (start + REGION_FIRST, start + ADDR_REGION_BYTES)
}

/// A private virtual-address space: the same bump allocation a thread's
/// region performs, but owned by one caller instead of a thread.
///
/// The per-thread regions already keep other threads' allocations out
/// of a runtime's timeline, but that timeline still depends on
/// everything its own thread allocated before. Re-addressing a launch's
/// buffers from a private `AddrSpace` (see [`Args::rebase_in`]) makes it
/// a pure function of that space's own allocation history, which is what
/// lets a shared launch service replay bit-identically to a serial run
/// whichever client thread built the arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrSpace {
    next: u64,
}

impl AddrSpace {
    /// A fresh address space, starting at the offset every thread's
    /// region starts at.
    pub fn new() -> Self {
        AddrSpace { next: REGION_FIRST }
    }

    /// Allocates `bytes` (256-byte aligned) and returns the base address.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let addr = self.next;
        self.next += aligned_size(bytes);
        addr
    }
}

impl Default for AddrSpace {
    fn default() -> Self {
        AddrSpace::new()
    }
}

/// Element type tag of a [`Buffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemType {
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
    /// 32-bit unsigned integer.
    U32,
    /// 32-bit signed integer.
    I32,
}

impl ElemType {
    /// Size of one element in bytes.
    pub fn size_bytes(self) -> u64 {
        match self {
            ElemType::F32 | ElemType::U32 | ElemType::I32 => 4,
            ElemType::F64 => 8,
        }
    }
}

impl fmt::Display for ElemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ElemType::F32 => "f32",
            ElemType::F64 => "f64",
            ElemType::U32 => "u32",
            ElemType::I32 => "i32",
        };
        f.write_str(s)
    }
}

/// Owned, typed storage behind a buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum BufferData {
    /// 32-bit float payload.
    F32(Vec<f32>),
    /// 64-bit float payload.
    F64(Vec<f64>),
    /// 32-bit unsigned integer payload.
    U32(Vec<u32>),
    /// 32-bit signed integer payload.
    I32(Vec<i32>),
}

impl BufferData {
    /// Element type tag.
    pub fn elem_type(&self) -> ElemType {
        match self {
            BufferData::F32(_) => ElemType::F32,
            BufferData::F64(_) => ElemType::F64,
            BufferData::U32(_) => ElemType::U32,
            BufferData::I32(_) => ElemType::I32,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            BufferData::F32(v) => v.len(),
            BufferData::F64(v) => v.len(),
            BufferData::U32(v) => v.len(),
            BufferData::I32(v) => v.len(),
        }
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.len() as u64 * self.elem_type().size_bytes()
    }
}

/// What differs between the four element types. Every per-element body
/// in this file is written once, generic over it; the trait is private
/// to the crate, so these four impls are the only ones.
pub(crate) trait Elem: Copy {
    /// Native-width bits that change detection compares: `u32` for the
    /// 4-byte types, `u64` for `f64`. Comparing bits, not values, catches
    /// NaN payloads and signed zeros that `==` would miss.
    type Bits: Copy
        + Eq
        + Default
        + Into<u64>
        + BitXor<Output = Self::Bits>
        + BitOr<Output = Self::Bits>;
    /// The element type tag.
    const TYPE: ElemType;
    /// Mask a `wrong` tamper XORs into a written element's bits.
    const WRONG: Self::Bits;
    /// Value a `poison` tamper writes.
    const POISON: Self;
    /// The element's bits.
    fn bits(self) -> Self::Bits;
    /// The element with the given bits.
    fn from_bits(bits: Self::Bits) -> Self;
    /// The additive merge step, `self + (executed - pristine)`: float
    /// arithmetic, or wrapping integer arithmetic (so deltas compose
    /// exactly).
    fn add_delta(self, executed: Self, pristine: Self) -> Self;
    /// The payload, if it holds this type.
    fn slice(data: &BufferData) -> Option<&Vec<Self>>;
    /// The payload, mutably, if it holds this type.
    fn slice_mut(data: &mut BufferData) -> Option<&mut Vec<Self>>;
}

/// Implements [`Elem`] for `$t`, whose payloads are `BufferData::$tag`.
macro_rules! impl_elem {
    ($t:ident as $tag:ident, bits: $bits:ty = |$v:ident| $to:expr,
     from_bits: |$b:ident| $from:expr, wrong: $wrong:expr, poison: $poison:expr,
     add_delta: |$x:ident, $e:ident, $p:ident| $add:expr) => {
        impl Elem for $t {
            type Bits = $bits;
            const TYPE: ElemType = ElemType::$tag;
            const WRONG: $bits = $wrong;
            const POISON: $t = $poison;
            fn bits(self) -> $bits {
                let $v = self;
                $to
            }
            fn from_bits($b: $bits) -> $t {
                $from
            }
            fn add_delta(self, $e: $t, $p: $t) -> $t {
                let $x = self;
                $add
            }
            fn slice(data: &BufferData) -> Option<&Vec<$t>> {
                match data {
                    BufferData::$tag(v) => Some(v),
                    _ => None,
                }
            }
            fn slice_mut(data: &mut BufferData) -> Option<&mut Vec<$t>> {
                match data {
                    BufferData::$tag(v) => Some(v),
                    _ => None,
                }
            }
        }
    };
}

impl_elem!(f32 as F32, bits: u32 = |v| v.to_bits(), from_bits: |b| f32::from_bits(b),
    wrong: 0x0040_0001, poison: f32::NAN, add_delta: |t, e, p| t + (e - p));
impl_elem!(f64 as F64, bits: u64 = |v| v.to_bits(), from_bits: |b| f64::from_bits(b),
    wrong: 0x0000_0000_0010_0001, poison: f64::NAN, add_delta: |t, e, p| t + (e - p));
impl_elem!(u32 as U32, bits: u32 = |v| v, from_bits: |b| b,
    wrong: 0xDEAD_BEEF, poison: u32::MAX, add_delta: |t, e, p| t.wrapping_add(e.wrapping_sub(p)));
impl_elem!(i32 as I32, bits: u32 = |v| v as u32, from_bits: |b| b as i32,
    wrong: 0x5EED_0BAD, poison: i32::MIN, add_delta: |t, e, p| t.wrapping_add(e.wrapping_sub(p)));

/// Evaluates `$body` with the type alias `$T` naming the Rust element type
/// of the tag `$ty`: the one type dispatch each buffer operation makes.
macro_rules! with_elem {
    ($ty:expr, $T:ident => $body:expr) => {
        match $ty {
            ElemType::F32 => {
                type $T = f32;
                $body
            }
            ElemType::F64 => {
                type $T = f64;
                $body
            }
            ElemType::U32 => {
                type $T = u32;
                $body
            }
            ElemType::I32 => {
                type $T = i32;
                $body
            }
        }
    };
}

/// A device buffer: named, typed storage with a virtual base address and a
/// default memory-space binding.
///
/// Cloning a `Buffer` is cheap (the payload is reference-counted); the clone
/// receives a fresh virtual address, matching what a real allocator would do
/// for a sandbox copy. Payload duplication only happens on first write to a
/// shared buffer.
///
/// # Example
///
/// ```
/// use dysel_kernel::{Buffer, Space};
/// let mut b = Buffer::f32("x", vec![1.0, 2.0], Space::Global);
/// let snapshot = b.clone();
/// b.data_mut().and_then(|_| Ok(())).unwrap();
/// assert_eq!(snapshot.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Buffer {
    name: String,
    data: Arc<BufferData>,
    space: Space,
    addr: u64,
}

impl Buffer {
    /// Creates a buffer from raw [`BufferData`].
    pub fn new(name: impl Into<String>, data: BufferData, space: Space) -> Self {
        let addr = alloc_addr(data.size_bytes());
        Buffer {
            name: name.into(),
            data: Arc::new(data),
            space,
            addr,
        }
    }

    /// Creates an `f32` buffer.
    pub fn f32(name: impl Into<String>, data: Vec<f32>, space: Space) -> Self {
        Buffer::new(name, BufferData::F32(data), space)
    }

    /// Creates an `f64` buffer.
    pub fn f64(name: impl Into<String>, data: Vec<f64>, space: Space) -> Self {
        Buffer::new(name, BufferData::F64(data), space)
    }

    /// Creates a `u32` buffer.
    pub fn u32(name: impl Into<String>, data: Vec<u32>, space: Space) -> Self {
        Buffer::new(name, BufferData::U32(data), space)
    }

    /// Creates an `i32` buffer.
    pub fn i32(name: impl Into<String>, data: Vec<i32>, space: Space) -> Self {
        Buffer::new(name, BufferData::I32(data), space)
    }

    /// Buffer name (for reports and debugging).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Virtual base address.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Default memory-space binding.
    pub fn space(&self) -> Space {
        self.space
    }

    /// Element type.
    pub fn elem_type(&self) -> ElemType {
        self.data.elem_type()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Payload size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.data.size_bytes()
    }

    /// Shared view of the payload.
    pub fn data(&self) -> &BufferData {
        &self.data
    }

    /// Mutable view of the payload (clones if shared).
    ///
    /// # Errors
    ///
    /// Never fails today; returns `Result` to keep room for write-protected
    /// spaces.
    pub fn data_mut(&mut self) -> Result<&mut BufferData, KernelError> {
        Ok(Arc::make_mut(&mut self.data))
    }

    /// Whether this buffer currently shares its payload with another.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.data) > 1
    }

    /// Makes a sandbox copy: shares the payload (copy-on-write) but takes a
    /// fresh virtual address, as a real private allocation would.
    pub fn sandbox_clone(&self) -> Buffer {
        let mut b = self.clone();
        b.addr = alloc_addr(b.size_bytes());
        b.name = format!("{}#sandbox", self.name);
        b
    }

    /// [`Buffer::sandbox_clone`], allocating from a private [`AddrSpace`]
    /// instead of the calling thread's region.
    pub fn sandbox_clone_in(&self, space: &mut AddrSpace) -> Buffer {
        let mut b = self.clone();
        b.addr = space.alloc(b.size_bytes());
        b.name = format!("{}#sandbox", self.name);
        b
    }

    /// Re-addresses this buffer from a private [`AddrSpace`]. Payload,
    /// name and space binding are untouched.
    pub fn rebase_in(&mut self, space: &mut AddrSpace) {
        self.addr = space.alloc(self.size_bytes());
    }

    /// Swaps payload and address with another buffer (swap-based profiling).
    pub fn swap_with(&mut self, other: &mut Buffer) {
        std::mem::swap(&mut self.data, &mut other.data);
        std::mem::swap(&mut self.addr, &mut other.addr);
    }

    /// Whether `self` and `other` share the same payload allocation.
    pub fn shares_payload_with(&self, other: &Buffer) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Re-points this buffer's payload at `src`'s payload (copy-on-write
    /// share). The address and name stay as they are — this is how a leased
    /// sandbox buffer is refreshed with current data without reallocating.
    pub fn share_payload_from(&mut self, src: &Buffer) {
        self.data = Arc::clone(&src.data);
    }

    /// Merges the writes of an executed copy into this buffer.
    ///
    /// `executed` is a copy that started from `pristine` (the pre-launch
    /// snapshot) and was mutated by running a launch's work-groups. With
    /// `additive = false` every element whose bits differ from the pristine
    /// value overwrites the target (disjoint-output kernels: each element
    /// is written by at most one work-group). With `additive = true` the
    /// *delta* `executed - pristine` is added onto the target (accumulating
    /// kernels such as histogram: integer deltas compose exactly under
    /// wrapping arithmetic, so the writes of earlier launches merged into
    /// the target are kept).
    ///
    /// # Errors
    ///
    /// Fails if the three buffers disagree on element type or length.
    pub fn merge_span(
        &mut self,
        executed: &Buffer,
        pristine: &Buffer,
        additive: bool,
    ) -> Result<(), KernelError> {
        // Dirty-range narrowing: locate the changed window once with the
        // chunked scan, then run the per-element merge over it alone — a
        // launch that wrote 32 rows of a megabyte buffer merges 32 rows.
        let Some(window) = executed.dirty_window(pristine)? else {
            return Ok(()); // unwritten, or written with bit-identical values
        };
        let err = type_mismatch(pristine, executed);
        let (t, e, p) = (
            Arc::make_mut(&mut self.data),
            executed.data(),
            pristine.data(),
        );
        with_elem!(p.elem_type(), T => write_changed::<T>(t, e, p, window, |t, e, p| {
            *t = if additive { t.add_delta(e, p) } else { e };
        }))
        .ok_or(err)
    }

    /// Tampers with every element whose bits differ between `executed` and
    /// `pristine` — i.e. exactly the elements a launch wrote. With
    /// `poison = false` the written value is bit-flipped (a plausible but
    /// wrong result); with `poison = true` it becomes NaN (floats) or a
    /// sentinel (integers). Returns the number of tampered elements.
    ///
    /// This is the device fault injector's `WrongOutput`/`Poison` write
    /// path; it shares [`Buffer::merge_span`]'s change detection so only
    /// genuinely-written elements are corrupted.
    ///
    /// # Errors
    ///
    /// Fails if the buffers disagree on element type.
    pub fn corrupt_changed(
        &mut self,
        executed: &Buffer,
        pristine: &Buffer,
        poison: bool,
    ) -> Result<u64, KernelError> {
        let Some(window) = executed.dirty_window(pristine)? else {
            return Ok(0);
        };
        let err = type_mismatch(pristine, executed);
        let (t, e, p) = (
            Arc::make_mut(&mut self.data),
            executed.data(),
            pristine.data(),
        );
        let mut tampered = 0u64;
        with_elem!(p.elem_type(), T => write_changed::<T>(t, e, p, window, |t, e, _| {
            *t = if poison { T::POISON } else { T::from_bits(e.bits() ^ T::WRONG) };
            tampered += 1;
        }))
        .ok_or(err)?;
        Ok(tampered)
    }

    /// FNV-1a digest over `(index, bits)` of every element whose bits
    /// differ from `pristine`. Two buffers that started from the same
    /// pristine data digest equal iff they wrote the same elements with
    /// the same bit patterns — the sandbox cross-check primitive.
    ///
    /// # Errors
    ///
    /// Fails if the buffers disagree on element type.
    pub fn changed_digest(&self, pristine: &Buffer) -> Result<u64, KernelError> {
        // Dirty-range narrowing: the fold only visits the changed window,
        // with indices kept global so the digest value is unchanged.
        let Some((w0, w1)) = self.dirty_window(pristine)? else {
            return Ok(FNV_OFFSET); // digest of the empty change set
        };
        let (a, p) = (self.data(), pristine.data());
        with_elem!(a.elem_type(), T => same_type::<T>(a, p)
            .map(|(a, p)| digest_changes(&a[w0..w1], &p[w0..w1], w0)))
        .ok_or(type_mismatch(pristine, self))
    }

    /// Whether any element's bits differ from `other`'s.
    ///
    /// # Errors
    ///
    /// Fails if the buffers disagree on element type.
    pub fn bits_differ(&self, other: &Buffer) -> Result<bool, KernelError> {
        if self.shares_payload_with(other) {
            return Ok(false);
        }
        let (a, b) = (self.data(), other.data());
        with_elem!(a.elem_type(), T => same_type::<T>(a, b)
            .map(|(a, b)| a.len() != b.len() || first_diff(a, b).is_some()))
        .ok_or(type_mismatch(other, self))
    }

    /// Half-open element window `[first, last+1)` outside which `self` and
    /// `pristine` are bit-identical, or `None` when they agree everywhere
    /// (always when they share a payload). Found by a chunked OR-of-XOR
    /// scan from both ends; the expensive per-element paths (merge, digest,
    /// corruption, restore) only walk this window — i.e. the bytes a launch
    /// actually touched.
    ///
    /// # Errors
    ///
    /// Fails if the buffers disagree on element type.
    pub fn dirty_window(&self, pristine: &Buffer) -> Result<Option<(usize, usize)>, KernelError> {
        if self.shares_payload_with(pristine) {
            return Ok(None);
        }
        let (a, p) = (self.data(), pristine.data());
        with_elem!(a.elem_type(), T => same_type::<T>(a, p).map(|(a, p)| diff_window(a, p)))
            .ok_or(type_mismatch(pristine, self))
    }

    /// Copies `src`'s elements into `self` over the half-open element
    /// window `(lo, hi)`, clamped to both payload lengths; everything
    /// outside stays untouched. Returns the number of elements copied.
    ///
    /// This is the sandbox restore primitive: instead of dropping a reused
    /// allocation and duplicating the whole payload, a restore copies only
    /// the [`Buffer::dirty_window`] where the two differ.
    ///
    /// # Errors
    ///
    /// Fails if the buffers disagree on element type.
    pub fn restore_window_from(
        &mut self,
        src: &Buffer,
        (lo, hi): (usize, usize),
    ) -> Result<u64, KernelError> {
        if self.shares_payload_with(src) || lo >= hi {
            return Ok(0);
        }
        let err = type_mismatch(src, self);
        let (t, s) = (Arc::make_mut(&mut self.data), src.data());
        with_elem!(s.elem_type(), T => T::slice_mut(t).zip(T::slice(s)).map(|(t, s)| {
            let (lo, hi) = clamp_window(lo, hi, t.len().min(s.len()));
            t[lo..hi].copy_from_slice(&s[lo..hi]);
            (hi - lo) as u64
        }))
        .ok_or(err)
    }
}

/// The error for a buffer of the wrong element type next to `expected`.
fn type_mismatch(expected: &Buffer, actual: &Buffer) -> KernelError {
    KernelError::TypeMismatch {
        index: 0,
        expected: expected.elem_type(),
        actual: actual.elem_type(),
    }
}

/// Both payloads as `T` slices, or `None` if either holds another type.
fn same_type<'a, T: Elem>(a: &'a BufferData, b: &'a BufferData) -> Option<(&'a [T], &'a [T])> {
    T::slice(a)
        .zip(T::slice(b))
        .map(|(a, b)| (a.as_slice(), b.as_slice()))
}

/// Calls `write(target, executed, pristine)` on every element of `window`
/// whose executed bits differ from pristine — exactly the elements a
/// launch wrote. `None` if any payload does not hold `T`.
fn write_changed<T: Elem>(
    target: &mut BufferData,
    executed: &BufferData,
    pristine: &BufferData,
    (w0, w1): (usize, usize),
    mut write: impl FnMut(&mut T, T, T),
) -> Option<()> {
    let t = T::slice_mut(target)?;
    let (e, p) = same_type::<T>(executed, pristine)?;
    let (lo, hi) = clamp_window(w0, w1, t.len());
    for ((t, &e), &p) in t[lo..hi].iter_mut().zip(&e[lo..hi]).zip(&p[lo..hi]) {
        if e.bits() != p.bits() {
            write(t, e, p);
        }
    }
    Some(())
}

/// FNV-1a over `(index, bits)` of every element of `a` whose bits differ
/// from `p`, indices counted from `first`.
fn digest_changes<T: Elem>(a: &[T], p: &[T], first: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for (i, (&a, &p)) in a.iter().zip(p).enumerate() {
        if a.bits() != p.bits() {
            let (i, bits): (u64, u64) = ((first + i) as u64, a.bits().into());
            h = fnv1a(fnv1a(h, &i.to_le_bytes()), &bits.to_le_bytes());
        }
    }
    h
}

/// Clamps a dirty window to a target length, keeping `lo <= hi` so empty
/// windows slice safely.
fn clamp_window(w0: usize, w1: usize, len: usize) -> (usize, usize) {
    let hi = w1.min(len);
    (w0.min(hi), hi)
}

/// Width of the chunked bit-compare used to locate dirty windows. Eight
/// 32-bit lanes fill one AVX2 register; the OR-of-XOR reduction per chunk
/// compiles to branch-free vector code.
const DIFF_LANES: usize = 8;

/// Index of the first element whose bits differ, scanning forward one
/// `DIFF_LANES` chunk at a time.
#[inline]
fn first_diff<T: Elem>(a: &[T], b: &[T]) -> Option<usize> {
    let n = a.len().min(b.len());
    let zero = T::Bits::default();
    let mut i = 0;
    while i + DIFF_LANES <= n {
        let mut acc = zero;
        for k in 0..DIFF_LANES {
            acc = acc | (a[i + k].bits() ^ b[i + k].bits());
        }
        if acc != zero {
            return (i..i + DIFF_LANES).find(|&j| a[j].bits() != b[j].bits());
        }
        i += DIFF_LANES;
    }
    (i..n).find(|&j| a[j].bits() != b[j].bits())
}

/// Index one past the last differing element, scanning backward in
/// `DIFF_LANES` chunks; `first` is a known differing index (scan floor).
#[inline]
fn after_last_diff<T: Elem>(a: &[T], b: &[T], first: usize) -> usize {
    let n = a.len().min(b.len());
    let zero = T::Bits::default();
    let mut j = n;
    // Chunks that lie entirely above `first` can be skipped when clean.
    while j > first + DIFF_LANES {
        let s = j - DIFF_LANES;
        let mut acc = zero;
        for k in 0..DIFF_LANES {
            acc = acc | (a[s + k].bits() ^ b[s + k].bits());
        }
        if acc != zero {
            let last = (s..j)
                .rev()
                .find(|&x| a[x].bits() != b[x].bits())
                .expect("chunk contains a diff");
            return last + 1;
        }
        j = s;
    }
    let last = (first..j)
        .rev()
        .find(|&x| a[x].bits() != b[x].bits())
        .unwrap_or(first);
    last + 1
}

/// Half-open window `[first, last+1)` outside which the slices are
/// bit-identical, or `None` when they agree everywhere.
fn diff_window<T: Elem>(a: &[T], b: &[T]) -> Option<(usize, usize)> {
    let first = first_diff(a, b)?;
    Some((first, after_last_diff(a, b, first)))
}

/// The argument set handed to a kernel launch: an ordered list of buffers.
///
/// Argument indices are the kernel-facing names; metadata such as
/// [`crate::VariantMeta::sandbox_args`] refers to these indices.
#[derive(Debug, Clone, Default)]
pub struct Args {
    bufs: Vec<Buffer>,
}

impl Args {
    /// Creates an empty argument set.
    pub fn new() -> Self {
        Args::default()
    }

    /// Appends a buffer, returning its argument index.
    pub fn push(&mut self, buf: Buffer) -> usize {
        self.bufs.push(buf);
        self.bufs.len() - 1
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// Whether there are no arguments.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Borrow an argument buffer.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::BadArgIndex`] if `index` is out of range.
    pub fn buffer(&self, index: usize) -> Result<&Buffer, KernelError> {
        self.bufs.get(index).ok_or(KernelError::BadArgIndex {
            index,
            len: self.bufs.len(),
        })
    }

    /// Mutably borrow an argument buffer.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::BadArgIndex`] if `index` is out of range.
    pub fn buffer_mut(&mut self, index: usize) -> Result<&mut Buffer, KernelError> {
        let len = self.bufs.len();
        self.bufs
            .get_mut(index)
            .ok_or(KernelError::BadArgIndex { index, len })
    }

    /// Iterate over the buffers.
    pub fn iter(&self) -> std::slice::Iter<'_, Buffer> {
        self.bufs.iter()
    }

    /// Typed read access to argument `index` (see [`Args::f32`]).
    fn typed<T: Elem>(&self, index: usize) -> Result<&[T], KernelError> {
        let data = self.buffer(index)?.data();
        T::slice(data)
            .map(Vec::as_slice)
            .ok_or(KernelError::TypeMismatch {
                index,
                expected: T::TYPE,
                actual: data.elem_type(),
            })
    }

    /// Typed write access to argument `index` (see [`Args::f32_mut`]).
    fn typed_mut<T: Elem>(&mut self, index: usize) -> Result<&mut Vec<T>, KernelError> {
        let data = self.buffer_mut(index)?.data_mut()?;
        let actual = data.elem_type();
        T::slice_mut(data).ok_or(KernelError::TypeMismatch {
            index,
            expected: T::TYPE,
            actual,
        })
    }

    /// Typed read access to an `f32` argument.
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `f32`.
    pub fn f32(&self, index: usize) -> Result<&[f32], KernelError> {
        self.typed(index)
    }

    /// Typed write access to an `f32` argument (copy-on-write).
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `f32`.
    pub fn f32_mut(&mut self, index: usize) -> Result<&mut Vec<f32>, KernelError> {
        self.typed_mut(index)
    }

    /// Typed read access to a `u32` argument.
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `u32`.
    pub fn u32(&self, index: usize) -> Result<&[u32], KernelError> {
        self.typed(index)
    }

    /// Typed write access to a `u32` argument (copy-on-write).
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `u32`.
    pub fn u32_mut(&mut self, index: usize) -> Result<&mut Vec<u32>, KernelError> {
        self.typed_mut(index)
    }

    /// Typed read access to an `i32` argument.
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `i32`.
    pub fn i32(&self, index: usize) -> Result<&[i32], KernelError> {
        self.typed(index)
    }

    /// Typed write access to an `i32` argument (copy-on-write).
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `i32`.
    pub fn i32_mut(&mut self, index: usize) -> Result<&mut Vec<i32>, KernelError> {
        self.typed_mut(index)
    }

    /// Typed read access to an `f64` argument.
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `f64`.
    pub fn f64(&self, index: usize) -> Result<&[f64], KernelError> {
        self.typed(index)
    }

    /// Typed write access to an `f64` argument (copy-on-write).
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `f64`.
    pub fn f64_mut(&mut self, index: usize) -> Result<&mut Vec<f64>, KernelError> {
        self.typed_mut(index)
    }

    /// Creates a sandbox view: all arguments shared, except the listed
    /// output arguments which become private sandbox copies (fresh address,
    /// copy-on-write payload).
    ///
    /// # Errors
    ///
    /// Fails if an index in `sandbox_args` is out of range.
    pub fn sandbox_view(&self, sandbox_args: &[usize]) -> Result<Args, KernelError> {
        let mut out = self.clone();
        for &i in sandbox_args {
            let fresh = out.buffer(i)?.sandbox_clone();
            out.bufs[i] = fresh;
        }
        Ok(out)
    }

    /// [`Args::sandbox_view`], drawing the sandbox copies' addresses from
    /// a private [`AddrSpace`] instead of the calling thread's region.
    ///
    /// # Errors
    ///
    /// Fails if an index in `sandbox_args` is out of range.
    pub fn sandbox_view_in(
        &self,
        sandbox_args: &[usize],
        space: &mut AddrSpace,
    ) -> Result<Args, KernelError> {
        let mut out = self.clone();
        for &i in sandbox_args {
            let fresh = out.buffer(i)?.sandbox_clone_in(space);
            out.bufs[i] = fresh;
        }
        Ok(out)
    }

    /// Re-addresses every buffer, in argument order, from a private
    /// [`AddrSpace`] (see [`AddrSpace`] for why). Payloads are untouched.
    pub fn rebase_in(&mut self, space: &mut AddrSpace) {
        for b in &mut self.bufs {
            b.rebase_in(space);
        }
    }

    /// Bytes of extra space a sandbox over `sandbox_args` would pin once
    /// fully written (worst case: full copies of each listed output).
    ///
    /// # Errors
    ///
    /// Fails if an index in `sandbox_args` is out of range.
    pub fn sandbox_bytes(&self, sandbox_args: &[usize]) -> Result<u64, KernelError> {
        sandbox_args
            .iter()
            .try_fold(0u64, |acc, &i| Ok(acc + self.buffer(i)?.size_bytes()))
    }

    /// Merges an executed copy of this argument set back into it (see
    /// [`Buffer::merge_span`]).
    ///
    /// Only the listed `output_args` are inspected; every other argument is
    /// read-only by contract (the kernel IR declares its outputs). Buffers
    /// the launch never wrote still share their payload with `pristine` and
    /// are skipped without touching a single element.
    ///
    /// # Errors
    ///
    /// Fails if an index in `output_args` is out of range.
    pub fn merge_outputs(
        &mut self,
        executed: &Args,
        pristine: &Args,
        output_args: &[usize],
        additive: bool,
    ) -> Result<(), KernelError> {
        for &i in output_args {
            let exec = executed.buffer(i)?;
            let prist = pristine.buffer(i)?;
            self.buffer_mut(i)?.merge_span(exec, prist, additive)?;
        }
        Ok(())
    }

    /// Refreshes a leased sandbox in place: every buffer re-shares `src`'s
    /// current payload (copy-on-write), while sandbox addresses and names
    /// are kept. After this call the set is indistinguishable, data-wise,
    /// from a fresh [`Args::sandbox_view`] of `src`.
    ///
    /// # Errors
    ///
    /// Fails if the two sets have different arity.
    pub fn refresh_from(&mut self, src: &Args) -> Result<(), KernelError> {
        if self.len() != src.len() {
            return Err(KernelError::BadArgIndex {
                index: src.len(),
                len: self.len(),
            });
        }
        for (dst, s) in self.bufs.iter_mut().zip(src.iter()) {
            dst.share_payload_from(s);
        }
        Ok(())
    }

    /// Adopts the listed buffers from `winner` (swap-based profiling: the
    /// winning private output becomes the final output).
    ///
    /// # Errors
    ///
    /// Fails if an index is out of range in either argument set.
    pub fn adopt_outputs(
        &mut self,
        winner: &mut Args,
        output_args: &[usize],
    ) -> Result<(), KernelError> {
        for &i in output_args {
            let src = winner.buffer_mut(i)?;
            let dst = self.buffer_mut(i).expect("same arity");
            dst.swap_with(src);
        }
        Ok(())
    }

    /// Tampers with every output element a launch wrote (see
    /// [`Buffer::corrupt_changed`]). Returns the tampered element count.
    ///
    /// # Errors
    ///
    /// Fails if an index in `output_args` is out of range or the sets
    /// disagree on types.
    pub fn corrupt_changed(
        &mut self,
        executed: &Args,
        pristine: &Args,
        output_args: &[usize],
        poison: bool,
    ) -> Result<u64, KernelError> {
        let mut tampered = 0;
        for &i in output_args {
            let exec = executed.buffer(i)?;
            let prist = pristine.buffer(i)?;
            tampered += self.buffer_mut(i)?.corrupt_changed(exec, prist, poison)?;
        }
        Ok(tampered)
    }

    /// Combined digest of the changes each listed output holds relative to
    /// `pristine` (see [`Buffer::changed_digest`]).
    ///
    /// # Errors
    ///
    /// Fails if an index in `output_args` is out of range or the sets
    /// disagree on types.
    pub fn changed_digest(
        &self,
        pristine: &Args,
        output_args: &[usize],
    ) -> Result<u64, KernelError> {
        let mut h = FNV_OFFSET;
        for &i in output_args {
            h = fnv1a_step(h, self.buffer(i)?.changed_digest(pristine.buffer(i)?)?);
        }
        Ok(h)
    }

    /// Whether any listed output's bits differ between the two sets (see
    /// [`Buffer::bits_differ`]).
    ///
    /// # Errors
    ///
    /// Fails if an index in `output_args` is out of range or the sets
    /// disagree on types.
    pub fn bits_differ(&self, other: &Args, output_args: &[usize]) -> Result<bool, KernelError> {
        for &i in output_args {
            if self.buffer(i)?.bits_differ(other.buffer(i)?)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl FromIterator<Buffer> for Args {
    fn from_iter<T: IntoIterator<Item = Buffer>>(iter: T) -> Self {
        Args {
            bufs: iter.into_iter().collect(),
        }
    }
}

impl Extend<Buffer> for Args {
    fn extend<T: IntoIterator<Item = Buffer>>(&mut self, iter: T) {
        self.bufs.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args2() -> Args {
        let mut a = Args::new();
        a.push(Buffer::f32("out", vec![0.0; 4], Space::Global));
        a.push(Buffer::u32("in", vec![1, 2, 3, 4], Space::Global));
        a
    }

    #[test]
    fn addresses_are_unique_and_aligned() {
        let a = Buffer::f32("a", vec![0.0; 100], Space::Global);
        let b = Buffer::f32("b", vec![0.0; 100], Space::Global);
        assert_ne!(a.addr(), b.addr());
        assert_eq!(a.addr() % 256, 0);
    }

    #[test]
    fn fresh_threads_get_distinct_regions_at_equal_offsets() {
        let first_addr = || {
            std::thread::spawn(|| Buffer::f32("a", vec![0.0; 100], Space::Global).addr())
                .join()
                .unwrap()
        };
        let (a, b) = (first_addr(), first_addr());
        assert_ne!(a, b);
        assert_eq!(a % ADDR_REGION_BYTES, REGION_FIRST);
        assert_eq!(b % ADDR_REGION_BYTES, REGION_FIRST);
    }

    #[test]
    fn a_full_region_moves_on_to_a_fresh_one() {
        std::thread::spawn(|| {
            let half = ADDR_REGION_BYTES / 2;
            let a = alloc_addr(half);
            let b = alloc_addr(half);
            assert_ne!(a / ADDR_REGION_BYTES, b / ADDR_REGION_BYTES);
            assert_eq!(b % ADDR_REGION_BYTES, REGION_FIRST);
        })
        .join()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "does not fit one")]
    fn a_buffer_larger_than_a_region_is_refused() {
        alloc_addr(ADDR_REGION_BYTES);
    }

    #[test]
    fn typed_access_checks_type() {
        let a = args2();
        assert!(a.f32(0).is_ok());
        assert!(matches!(
            a.f32(1),
            Err(KernelError::TypeMismatch { index: 1, .. })
        ));
        assert!(matches!(a.f32(9), Err(KernelError::BadArgIndex { .. })));
    }

    #[test]
    fn cow_write_does_not_leak_into_clone() {
        let mut a = args2();
        let snapshot = a.clone();
        a.f32_mut(0).unwrap()[0] = 7.0;
        assert_eq!(snapshot.f32(0).unwrap()[0], 0.0);
        assert_eq!(a.f32(0).unwrap()[0], 7.0);
    }

    #[test]
    fn sandbox_view_isolates_outputs_and_shares_inputs() {
        let a = args2();
        let mut sb = a.sandbox_view(&[0]).unwrap();
        // Output got a fresh address, input kept its address.
        assert_ne!(sb.buffer(0).unwrap().addr(), a.buffer(0).unwrap().addr());
        assert_eq!(sb.buffer(1).unwrap().addr(), a.buffer(1).unwrap().addr());
        // Writing the sandbox output leaves the original untouched.
        sb.f32_mut(0).unwrap()[2] = 9.0;
        assert_eq!(a.f32(0).unwrap()[2], 0.0);
    }

    #[test]
    fn sandbox_bytes_counts_output_payload() {
        let a = args2();
        assert_eq!(a.sandbox_bytes(&[0]).unwrap(), 16);
        assert_eq!(a.sandbox_bytes(&[0, 1]).unwrap(), 32);
    }

    #[test]
    fn adopt_outputs_swaps_payload() {
        let mut a = args2();
        let mut w = a.sandbox_view(&[0]).unwrap();
        w.f32_mut(0).unwrap().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        a.adopt_outputs(&mut w, &[0]).unwrap();
        assert_eq!(a.f32(0).unwrap(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn merge_overwrite_takes_changed_elements_only() {
        let pristine = Buffer::f32("out", vec![1.0, 2.0, 3.0, 4.0], Space::Global);
        let mut span_a = pristine.clone();
        if let BufferData::F32(v) = Arc::make_mut(&mut span_a.data) {
            v[1] = 20.0;
        }
        let mut span_b = pristine.clone();
        if let BufferData::F32(v) = Arc::make_mut(&mut span_b.data) {
            v[3] = 40.0;
        }
        let mut target = pristine.clone();
        target.merge_span(&span_a, &pristine, false).unwrap();
        target.merge_span(&span_b, &pristine, false).unwrap();
        assert!(matches!(
            target.data(),
            BufferData::F32(v) if v == &vec![1.0, 20.0, 3.0, 40.0]
        ));
    }

    #[test]
    fn merge_additive_composes_overlapping_increments() {
        let pristine = Buffer::u32("hist", vec![5, 0, 0], Space::Global);
        let mut span_a = pristine.clone();
        if let BufferData::U32(v) = Arc::make_mut(&mut span_a.data) {
            v[0] += 3;
            v[1] += 1;
        }
        let mut span_b = pristine.clone();
        if let BufferData::U32(v) = Arc::make_mut(&mut span_b.data) {
            v[0] += 2;
        }
        let mut target = pristine.clone();
        target.merge_span(&span_a, &pristine, true).unwrap();
        target.merge_span(&span_b, &pristine, true).unwrap();
        assert!(matches!(target.data(), BufferData::U32(v) if v == &vec![10, 1, 0]));
    }

    #[test]
    fn merge_skips_untouched_shared_payloads() {
        let pristine = Buffer::f32("out", vec![7.0; 8], Space::Global);
        let span = pristine.clone(); // never written: still shared
        let mut target = Buffer::f32("tgt", vec![1.0; 8], Space::Global);
        target.merge_span(&span, &pristine, false).unwrap();
        assert!(matches!(target.data(), BufferData::F32(v) if v == &vec![1.0; 8]));
    }

    #[test]
    fn refresh_from_reshares_payloads_and_keeps_addresses() {
        let mut a = args2();
        let mut sb = a.sandbox_view(&[0]).unwrap();
        let sandbox_addr = sb.buffer(0).unwrap().addr();
        sb.f32_mut(0).unwrap()[0] = 9.0; // dirty the lease
        a.f32_mut(0).unwrap()[1] = 5.0; // source moved on
        sb.refresh_from(&a).unwrap();
        assert_eq!(sb.buffer(0).unwrap().addr(), sandbox_addr);
        assert_eq!(sb.f32(0).unwrap(), a.f32(0).unwrap());
        assert!(sb
            .buffer(1)
            .unwrap()
            .shares_payload_with(a.buffer(1).unwrap()));
    }

    #[test]
    fn corrupt_changed_hits_only_written_elements() {
        let pristine = args2();
        let mut executed = pristine.clone();
        executed.f32_mut(0).unwrap()[1] = 5.0;
        executed.f32_mut(0).unwrap()[3] = 6.0;
        let mut target = executed.clone();
        let n = target
            .corrupt_changed(&executed, &pristine, &[0], false)
            .unwrap();
        assert_eq!(n, 2);
        let out = target.f32(0).unwrap();
        assert_eq!(out[0], 0.0); // unwritten: untouched
        assert_ne!(out[1], 5.0);
        assert_ne!(out[3], 6.0);
        // Poison writes NaN instead.
        let mut target = executed.clone();
        target
            .corrupt_changed(&executed, &pristine, &[0], true)
            .unwrap();
        assert!(target.f32(0).unwrap()[1].is_nan());
        assert!(!target.f32(0).unwrap()[0].is_nan());
    }

    #[test]
    fn changed_digest_agrees_iff_writes_agree() {
        let pristine = args2();
        let write = |vals: &[(usize, f32)]| {
            let mut a = pristine.clone();
            for &(i, v) in vals {
                a.f32_mut(0).unwrap()[i] = v;
            }
            a
        };
        let a = write(&[(1, 5.0), (2, 6.0)]);
        let b = write(&[(1, 5.0), (2, 6.0)]);
        let c = write(&[(1, 5.0), (2, 6.5)]);
        let d_a = a.changed_digest(&pristine, &[0]).unwrap();
        assert_eq!(d_a, b.changed_digest(&pristine, &[0]).unwrap());
        assert_ne!(d_a, c.changed_digest(&pristine, &[0]).unwrap());
        // An untouched (still-shared) set digests like the empty change set.
        let untouched = pristine.clone();
        let empty = untouched.changed_digest(&pristine, &[0]).unwrap();
        assert_ne!(d_a, empty);
    }

    #[test]
    fn bits_differ_detects_nan_and_shared_payloads() {
        let a = args2();
        let shared = a.clone();
        assert!(!a.bits_differ(&shared, &[0]).unwrap());
        let mut nan = a.clone();
        nan.f32_mut(0).unwrap()[2] = f32::NAN;
        assert!(a.bits_differ(&nan, &[0]).unwrap());
        assert!(!a.bits_differ(&a.clone(), &[0, 1]).unwrap());
    }

    #[test]
    fn dirty_window_finds_exact_bounds() {
        let pristine = Buffer::f32("out", vec![0.0; 100], Space::Global);
        // Shared payload: no window without scanning.
        assert_eq!(pristine.clone().dirty_window(&pristine).unwrap(), None);
        // Written but bit-identical: no window either.
        let mut same = pristine.clone();
        same.data_mut().unwrap(); // force a private payload
        assert_eq!(same.dirty_window(&pristine).unwrap(), None);
        // A single mid-buffer diff.
        let mut one = pristine.clone();
        if let BufferData::F32(v) = one.data_mut().unwrap() {
            v[37] = 1.0;
        }
        assert_eq!(one.dirty_window(&pristine).unwrap(), Some((37, 38)));
        // Diffs at both ends span the whole buffer.
        let mut ends = pristine.clone();
        if let BufferData::F32(v) = ends.data_mut().unwrap() {
            v[0] = 1.0;
            v[99] = 1.0;
        }
        assert_eq!(ends.dirty_window(&pristine).unwrap(), Some((0, 100)));
        // Bit-level float changes (-0.0, NaN) count as dirty.
        let mut bits = pristine.clone();
        if let BufferData::F32(v) = bits.data_mut().unwrap() {
            v[5] = -0.0;
            v[9] = f32::NAN;
        }
        assert_eq!(bits.dirty_window(&pristine).unwrap(), Some((5, 10)));
    }

    #[test]
    fn restore_window_copies_exactly_the_clamped_window() {
        let src = Buffer::f32("live", (0..32).map(|i| i as f32).collect(), Space::Global);
        let mut sb = Buffer::f32("sandbox", vec![-1.0; 32], Space::Global);
        assert_eq!(sb.restore_window_from(&src, (4, 12)).unwrap(), 8);
        assert_eq!(sb.restore_window_from(&src, (20, 20)).unwrap(), 0); // empty
        assert_eq!(sb.restore_window_from(&src, (30, 40)).unwrap(), 2); // clamped
        let v = match sb.data() {
            BufferData::F32(v) => v,
            _ => unreachable!(),
        };
        for (i, &got) in v[..32].iter().enumerate() {
            let expect = if (4..12).contains(&i) || (30..32).contains(&i) {
                i as f32
            } else {
                -1.0
            };
            assert_eq!(got, expect, "element {i}");
        }
    }

    /// Property: after random span writes (overlapping and empty ranges
    /// included), the derived `dirty_window` lies inside the hull of the
    /// writes, and restoring that window alone is byte-for-byte what a
    /// full-snapshot restore would produce.
    #[cfg(feature = "proptest")]
    #[test]
    fn random_span_writes_restore_like_full_snapshot() {
        use crate::XorShiftRng;
        let mut rng = XorShiftRng::seed_from_u64(0xD1FF_5EED);
        for round in 0..200 {
            let n = 1 + rng.gen_range_u32(0, 200) as usize;
            let live: Vec<u32> = (0..n).map(|_| rng.gen_range_u32(0, 1 << 30)).collect();
            let src = Buffer::u32("live", live.clone(), Space::Global);
            let mut sb = Buffer::u32("sandbox", live.clone(), Space::Global);
            let (mut lo, mut hi) = (n, 0);
            for _ in 0..rng.gen_range_u32(0, 12) {
                let a = rng.gen_range_u32(0, n as u32) as usize;
                let b = (a + rng.gen_range_u32(0, 16) as usize).min(n);
                if let BufferData::U32(v) = sb.data_mut().unwrap() {
                    for x in &mut v[a..b] {
                        *x = rng.gen_range_u32(0, 1 << 30);
                    }
                }
                if a < b {
                    (lo, hi) = (lo.min(a), hi.max(b));
                }
            }
            let window = sb.dirty_window(&src).unwrap();
            if let Some((w0, w1)) = window {
                assert!(lo <= w0 && w1 <= hi, "round {round}: window escapes writes");
            }
            // Window restore == full-snapshot restore, byte-for-byte.
            sb.restore_window_from(&src, window.unwrap_or((0, 0)))
                .unwrap();
            assert!(
                !sb.bits_differ(&src).unwrap(),
                "round {round}: window restore diverged from full restore"
            );
        }
    }

    /// Widened bits of every element, in order. With `nan` set, every
    /// float NaN reads as that value instead: the payload of a NaN that
    /// float arithmetic produces is not fixed across builds (an optimiser
    /// may swap the operands of an add).
    fn element_bits(b: &Buffer, nan: Option<u64>) -> Vec<u64> {
        let nan_or = |x: bool, bits: u64| if x { nan.unwrap_or(bits) } else { bits };
        match b.data() {
            BufferData::F32(v) => v
                .iter()
                .map(|x| nan_or(x.is_nan(), u64::from(x.to_bits())))
                .collect(),
            BufferData::F64(v) => v.iter().map(|x| nan_or(x.is_nan(), x.to_bits())).collect(),
            BufferData::U32(v) => v.iter().map(|&x| u64::from(x)).collect(),
            BufferData::I32(v) => v.iter().map(|&x| u64::from(x as u32)).collect(),
        }
    }

    /// A `ty` buffer whose elements have the given bits (cut to the
    /// type's width).
    fn from_bits(ty: ElemType, bits: &[u64]) -> Buffer {
        let data = match ty {
            ElemType::F32 => {
                BufferData::F32(bits.iter().map(|&b| f32::from_bits(b as u32)).collect())
            }
            ElemType::F64 => BufferData::F64(bits.iter().map(|&b| f64::from_bits(b)).collect()),
            ElemType::U32 => BufferData::U32(bits.iter().map(|&b| b as u32).collect()),
            ElemType::I32 => BufferData::I32(bits.iter().map(|&b| b as u32 as i32).collect()),
        };
        Buffer::new("golden", data, Space::Global)
    }

    /// FNV-1a over every result of the element primitives for one type:
    /// dirty window, `bits_differ`, `changed_digest`, both merges, both
    /// tampers and the window restore, over a shared payload, an
    /// unchanged private copy, single, end-to-end, special-value and
    /// dense writes, and empty buffers.
    fn primitives_digest(ty: ElemType) -> u64 {
        const N: usize = 37; // four scan chunks and a tail
        let num = |x: f64| match ty {
            ElemType::F32 => u64::from((x as f32).to_bits()),
            ElemType::F64 => x.to_bits(),
            ElemType::U32 => u64::from(x as i64 as u32),
            ElemType::I32 => u64::from(x as i64 as i32 as u32),
        };
        // Signed zeros, NaN payloads and wrap-around boundaries.
        let special: [u64; 5] = match ty {
            ElemType::F32 => [0, 0x8000_0000, 0x7FC0_0001, 0x7FC0_0002, 0x7F80_0000],
            ElemType::F64 => [
                0,
                1 << 63,
                0x7FF8_0000_0000_0001,
                0x7FF8_0000_0000_0002,
                0x7FF0_0000_0000_0000,
            ],
            ElemType::U32 => [0, 0xFFFF_FFFF, 1, 0x8000_0000, 0x7FFF_FFFF],
            ElemType::I32 => [0, 0xFFFF_FFFF, 1, 0x8000_0000, 0x7FFF_FFFF],
        };
        let mut p: Vec<u64> = (0..N).map(|i| num(i as f64 * 1.5 - 7.0)).collect();
        p[20..25].copy_from_slice(&special);
        let mut t = p.clone();
        for i in (1..N).step_by(4) {
            t[i] = num(1000.0 - i as f64);
        }
        t[24] = special[1];
        let writes: Vec<Vec<(usize, u64)>> = vec![
            vec![],
            vec![(13, num(100.0))],
            vec![(0, num(-3.0)), (N - 1, num(250.0))],
            vec![
                (8, num(-1e6)),
                (20, special[1]),
                (21, special[0]),
                (22, special[3]),
                (23, special[2]),
                (24, special[0]),
            ],
            (5..30)
                .filter(|i| i % 3 != 0)
                .map(|i| (i, num((i * i) as f64 - 40.0)))
                .collect(),
        ];
        let pristine = from_bits(ty, &p);
        let target = from_bits(ty, &t);
        let empty = from_bits(ty, &[]);
        let mut cases = vec![
            (pristine.clone(), pristine.clone(), target.clone()),
            (empty.clone(), from_bits(ty, &[]), from_bits(ty, &[])),
        ];
        for w in &writes {
            let mut e = p.clone();
            for &(i, b) in w {
                e[i] = b;
            }
            cases.push((from_bits(ty, &e), pristine.clone(), target.clone()));
        }

        let mut h = FNV_OFFSET;
        let mut fold = |x: u64| h = fnv1a(h, &x.to_le_bytes());
        for (exec, prist, targ) in &cases {
            let window = exec.dirty_window(prist).unwrap();
            fold(window.map_or(u64::MAX, |(a, b)| (a as u64) << 32 | b as u64));
            fold(u64::from(exec.bits_differ(prist).unwrap()));
            fold(exec.changed_digest(prist).unwrap());
            for flag in [false, true] {
                let mut merged = targ.clone();
                merged.merge_span(exec, prist, flag).unwrap();
                let nan = flag.then_some(u64::MAX); // only additive merges add
                element_bits(&merged, nan).into_iter().for_each(&mut fold);
                let mut tampered = targ.clone();
                fold(tampered.corrupt_changed(exec, prist, flag).unwrap());
                element_bits(&tampered, None)
                    .into_iter()
                    .for_each(&mut fold);
            }
            for w in [
                window.unwrap_or((0, 0)),
                (0, N),
                (N / 2, N + 9),
                (N + 1, N + 5),
            ] {
                let mut sb = exec.clone();
                fold(sb.restore_window_from(prist, w).unwrap());
                element_bits(&sb, None).into_iter().for_each(&mut fold);
            }
            // Restoring the dirty window alone brings back the pristine bits.
            let mut sb = exec.clone();
            sb.restore_window_from(prist, window.unwrap_or((0, 0)))
                .unwrap();
            assert!(!sb.bits_differ(prist).unwrap(), "{ty}");
        }

        // Every primitive refuses a buffer of another element type.
        let other = from_bits(
            if ty == ElemType::U32 {
                ElemType::I32
            } else {
                ElemType::U32
            },
            &p,
        );
        let exec = &cases[3].0;
        assert!(exec.dirty_window(&other).is_err());
        assert!(exec.bits_differ(&other).is_err());
        assert!(exec.changed_digest(&other).is_err());
        assert!(other.clone().merge_span(exec, &pristine, false).is_err());
        assert!(other
            .clone()
            .corrupt_changed(exec, &pristine, true)
            .is_err());
        assert!(other.clone().restore_window_from(exec, (0, N)).is_err());
        h
    }

    #[test]
    fn buffer_primitives_match_the_golden_digests() {
        let golden = [
            (ElemType::F32, 0x3659_3a69_cf61_bd8f),
            (ElemType::F64, 0x140f_fc2e_5c27_9655),
            (ElemType::U32, 0x2711_508b_c33f_4f65),
            (ElemType::I32, 0x79a8_f7e3_89e1_b96d),
        ];
        for (ty, want) in golden {
            let got = primitives_digest(ty);
            assert_eq!(got, want, "{ty}: {got:#018x}");
        }
    }

    #[test]
    fn collect_into_args() {
        let a: Args = (0..3)
            .map(|i| Buffer::f32(format!("b{i}"), vec![0.0], Space::Global))
            .collect();
        assert_eq!(a.len(), 3);
    }
}
