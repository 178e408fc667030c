//! Typed device buffers and kernel argument sets.
//!
//! Buffers carry a virtual base address (used by the device cache models),
//! a memory-[`Space`] binding and copy-on-write storage. Copy-on-write is
//! what makes the sandbox / private-output mechanics of hybrid- and
//! swap-based partial-productive profiling cheap: a sandbox [`Args`] shares
//! every input buffer with the original and only the written output buffers
//! are actually duplicated.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::dirty::DirtyRanges;
use crate::fnv::{fnv1a, fnv1a_step, FNV_OFFSET};
use crate::{KernelError, Space};

/// Virtual-address bump allocator. Buffers never share cache lines.
static NEXT_ADDR: AtomicU64 = AtomicU64::new(0x1000);

// 256-byte alignment mirrors typical device allocator granularity and
// keeps distinct buffers in distinct 128-byte coalescing segments.
fn aligned_size(bytes: u64) -> u64 {
    bytes.div_ceil(256).max(1) * 256
}

fn alloc_addr(bytes: u64) -> u64 {
    NEXT_ADDR.fetch_add(aligned_size(bytes), Ordering::Relaxed)
}

/// A private virtual-address space: the same bump allocation the global
/// allocator performs, but owned by one caller instead of the process.
///
/// The device cache models hash buffer base addresses into lines and
/// sets, so a launch's priced cost depends on where its buffers sit.
/// With the process-global allocator, those addresses are a function of
/// every allocation any thread has performed so far — harmless for a
/// single-threaded run, but it makes one runtime's virtual timeline
/// sensitive to unrelated concurrent allocations. Re-addressing a
/// launch's buffers from a private `AddrSpace` (see
/// [`Args::rebase_in`]) makes the timeline a pure function of that
/// space's own allocation history, which is what lets a shared launch
/// service replay bit-identically to a serial run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrSpace {
    next: u64,
}

impl AddrSpace {
    /// A fresh address space, starting where the global allocator starts.
    pub fn new() -> Self {
        AddrSpace { next: 0x1000 }
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

    /// Rebinds the default memory space.
    pub fn set_space(&mut self, space: Space) {
        self.space = space;
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
    /// instead of the process-global allocator.
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

    /// Merges a worker's writes into this buffer.
    ///
    /// `executed` is a worker-side copy that started from `pristine` (the
    /// pre-launch snapshot) and was mutated by running some work-groups.
    /// With `additive = false` every element whose bits differ from the
    /// pristine value overwrites the target (disjoint-output kernels: each
    /// element is written by at most one span, so span order is last-wins
    /// and matches serial execution). With `additive = true` the *delta*
    /// `executed - pristine` is added onto the target (accumulating kernels
    /// such as histogram: integer deltas compose exactly under wrapping
    /// arithmetic regardless of span order).
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
        if executed.shares_payload_with(pristine) {
            return Ok(()); // copy-on-write never triggered: no writes.
        }
        // Dirty-range narrowing: locate the changed window once with the
        // chunked scan, then run the per-element merge over it alone — a
        // span that wrote 32 rows of a megabyte buffer merges 32 rows.
        let Some((w0, w1)) = executed.dirty_window(pristine)? else {
            return Ok(()); // written, but with bit-identical values
        };
        let mismatch = |index| KernelError::TypeMismatch {
            index,
            expected: pristine.elem_type(),
            actual: executed.elem_type(),
        };
        match (
            Arc::make_mut(&mut self.data),
            executed.data(),
            pristine.data(),
        ) {
            (BufferData::F32(t), BufferData::F32(e), BufferData::F32(p)) => {
                let (lo, hi) = clamp_window(w0, w1, t.len());
                merge_float(
                    &mut t[lo..hi],
                    &e[lo..hi],
                    &p[lo..hi],
                    additive,
                    |a, b| a + b,
                    |a, b| a - b,
                )
            }
            (BufferData::F64(t), BufferData::F64(e), BufferData::F64(p)) => {
                let (lo, hi) = clamp_window(w0, w1, t.len());
                merge_float(
                    &mut t[lo..hi],
                    &e[lo..hi],
                    &p[lo..hi],
                    additive,
                    |a, b| a + b,
                    |a, b| a - b,
                )
            }
            (BufferData::U32(t), BufferData::U32(e), BufferData::U32(p)) => {
                let (lo, hi) = clamp_window(w0, w1, t.len());
                merge_int(&mut t[lo..hi], &e[lo..hi], &p[lo..hi], additive)
            }
            (BufferData::I32(t), BufferData::I32(e), BufferData::I32(p)) => {
                let (lo, hi) = clamp_window(w0, w1, t.len());
                merge_int(&mut t[lo..hi], &e[lo..hi], &p[lo..hi], additive)
            }
            _ => return Err(mismatch(0)),
        }
        Ok(())
    }

    /// Tampers with every element whose bits differ between `executed` and
    /// `pristine` — i.e. exactly the elements a launch wrote. With
    /// `poison = false` the written value is bit-flipped (a plausible but
    /// wrong result); with `poison = true` it becomes NaN (floats) or a
    /// sentinel (integers). Returns the number of tampered elements.
    ///
    /// This is the device fault injector's `WrongOutput`/`Poison` write
    /// path; it deliberately mirrors [`Buffer::merge_span`]'s change
    /// detection so only genuinely-written elements are corrupted.
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
        if executed.shares_payload_with(pristine) {
            return Ok(0); // copy-on-write never triggered: no writes.
        }
        // Same dirty-range narrowing as `merge_span`: only the changed
        // window can hold written elements.
        let Some((w0, w1)) = executed.dirty_window(pristine)? else {
            return Ok(0);
        };
        let mismatch = |index| KernelError::TypeMismatch {
            index,
            expected: pristine.elem_type(),
            actual: executed.elem_type(),
        };
        let mut tampered = 0u64;
        match (
            Arc::make_mut(&mut self.data),
            executed.data(),
            pristine.data(),
        ) {
            (BufferData::F32(t), BufferData::F32(e), BufferData::F32(p)) => {
                let (lo, hi) = clamp_window(w0, w1, t.len());
                for ((t, &e), &p) in t[lo..hi].iter_mut().zip(&e[lo..hi]).zip(&p[lo..hi]) {
                    if e.to_bits() != p.to_bits() {
                        *t = if poison {
                            f32::NAN
                        } else {
                            f32::from_bits(e.to_bits() ^ 0x0040_0001)
                        };
                        tampered += 1;
                    }
                }
            }
            (BufferData::F64(t), BufferData::F64(e), BufferData::F64(p)) => {
                let (lo, hi) = clamp_window(w0, w1, t.len());
                for ((t, &e), &p) in t[lo..hi].iter_mut().zip(&e[lo..hi]).zip(&p[lo..hi]) {
                    if e.to_bits() != p.to_bits() {
                        *t = if poison {
                            f64::NAN
                        } else {
                            f64::from_bits(e.to_bits() ^ 0x0000_0000_0010_0001)
                        };
                        tampered += 1;
                    }
                }
            }
            (BufferData::U32(t), BufferData::U32(e), BufferData::U32(p)) => {
                let (lo, hi) = clamp_window(w0, w1, t.len());
                for ((t, &e), &p) in t[lo..hi].iter_mut().zip(&e[lo..hi]).zip(&p[lo..hi]) {
                    if e != p {
                        *t = if poison { u32::MAX } else { e ^ 0xDEAD_BEEF };
                        tampered += 1;
                    }
                }
            }
            (BufferData::I32(t), BufferData::I32(e), BufferData::I32(p)) => {
                let (lo, hi) = clamp_window(w0, w1, t.len());
                for ((t, &e), &p) in t[lo..hi].iter_mut().zip(&e[lo..hi]).zip(&p[lo..hi]) {
                    if e != p {
                        *t = if poison { i32::MIN } else { e ^ 0x5EED_0BAD };
                        tampered += 1;
                    }
                }
            }
            _ => return Err(mismatch(0)),
        }
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
        if self.shares_payload_with(pristine) {
            return Ok(FNV_OFFSET); // no writes: digest of the empty change set.
        }
        // Dirty-range narrowing: the fold only visits the changed window,
        // with indices kept global so the digest value is unchanged.
        let Some((w0, w1)) = self.dirty_window(pristine)? else {
            return Ok(FNV_OFFSET);
        };
        let mut h = FNV_OFFSET;
        let mut fold = |i: u64, bits: u64| {
            h = fnv1a(fnv1a(h, &i.to_le_bytes()), &bits.to_le_bytes());
        };
        match (self.data(), pristine.data()) {
            (BufferData::F32(a), BufferData::F32(p)) => {
                for (i, (&a, &p)) in a[w0..w1].iter().zip(&p[w0..w1]).enumerate() {
                    if a.to_bits() != p.to_bits() {
                        fold((w0 + i) as u64, u64::from(a.to_bits()));
                    }
                }
            }
            (BufferData::F64(a), BufferData::F64(p)) => {
                for (i, (&a, &p)) in a[w0..w1].iter().zip(&p[w0..w1]).enumerate() {
                    if a.to_bits() != p.to_bits() {
                        fold((w0 + i) as u64, a.to_bits());
                    }
                }
            }
            (BufferData::U32(a), BufferData::U32(p)) => {
                for (i, (&a, &p)) in a[w0..w1].iter().zip(&p[w0..w1]).enumerate() {
                    if a != p {
                        fold((w0 + i) as u64, u64::from(a));
                    }
                }
            }
            (BufferData::I32(a), BufferData::I32(p)) => {
                for (i, (&a, &p)) in a[w0..w1].iter().zip(&p[w0..w1]).enumerate() {
                    if a != p {
                        fold((w0 + i) as u64, u64::from(a as u32));
                    }
                }
            }
            _ => unreachable!("dirty_window checked element types"),
        }
        Ok(h)
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
        let mismatch = |index| KernelError::TypeMismatch {
            index,
            expected: other.elem_type(),
            actual: self.elem_type(),
        };
        match data_first_diff(self.data(), other.data()) {
            Some(d) => Ok(self.len() != other.len() || d.is_some()),
            None => Err(mismatch(0)),
        }
    }

    /// Half-open element window `[first, last+1)` outside which `self` and
    /// `pristine` are bit-identical, or `None` when they agree everywhere.
    /// Found by a chunked OR-of-XOR scan from both ends; the expensive
    /// per-element paths (merge, digest, corruption) only walk this window
    /// — i.e. the bytes a span actually touched.
    ///
    /// # Errors
    ///
    /// Fails if the buffers disagree on element type.
    pub fn dirty_window(&self, pristine: &Buffer) -> Result<Option<(usize, usize)>, KernelError> {
        if self.shares_payload_with(pristine) {
            return Ok(None);
        }
        data_diff_window(self.data(), pristine.data()).ok_or(KernelError::TypeMismatch {
            index: 0,
            expected: pristine.elem_type(),
            actual: self.elem_type(),
        })
    }

    /// Copies `src`'s elements into `self` over exactly the given dirty
    /// ranges (clamped to both payload lengths); everything outside stays
    /// untouched. Returns the number of elements copied.
    ///
    /// This is the dirty-range restore primitive: instead of dropping a
    /// reused allocation and duplicating the whole payload, a restore
    /// replays only the ranges that are known (or were measured via
    /// [`Buffer::dirty_window`]) to differ.
    ///
    /// # Errors
    ///
    /// Fails if the buffers disagree on element type.
    pub fn restore_ranges_from(
        &mut self,
        src: &Buffer,
        dirty: &DirtyRanges,
    ) -> Result<u64, KernelError> {
        if self.shares_payload_with(src) || dirty.is_empty() {
            return Ok(0);
        }
        fn copy<T: Copy>(t: &mut [T], s: &[T], dirty: &DirtyRanges) -> u64 {
            let n = t.len().min(s.len());
            let mut copied = 0;
            for (a, b) in dirty.iter() {
                let a = (a as usize).min(n);
                let b = (b as usize).min(n);
                if a < b {
                    t[a..b].copy_from_slice(&s[a..b]);
                    copied += (b - a) as u64;
                }
            }
            copied
        }
        let mismatch = KernelError::TypeMismatch {
            index: 0,
            expected: src.elem_type(),
            actual: self.elem_type(),
        };
        let copied = match (Arc::make_mut(&mut self.data), src.data()) {
            (BufferData::F32(t), BufferData::F32(s)) => copy(t, s, dirty),
            (BufferData::F64(t), BufferData::F64(s)) => copy(t, s, dirty),
            (BufferData::U32(t), BufferData::U32(s)) => copy(t, s, dirty),
            (BufferData::I32(t), BufferData::I32(s)) => copy(t, s, dirty),
            _ => return Err(mismatch),
        };
        Ok(copied)
    }
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
fn first_diff<T, B>(a: &[T], b: &[T], bits: impl Fn(T) -> B + Copy) -> Option<usize>
where
    T: Copy,
    B: Copy + Eq + Default + std::ops::BitXor<Output = B> + std::ops::BitOr<Output = B>,
{
    let n = a.len().min(b.len());
    let zero = B::default();
    let mut i = 0;
    while i + DIFF_LANES <= n {
        let mut acc = zero;
        for k in 0..DIFF_LANES {
            acc = acc | (bits(a[i + k]) ^ bits(b[i + k]));
        }
        if acc != zero {
            return (i..i + DIFF_LANES).find(|&j| bits(a[j]) != bits(b[j]));
        }
        i += DIFF_LANES;
    }
    (i..n).find(|&j| bits(a[j]) != bits(b[j]))
}

/// Index one past the last differing element, scanning backward in
/// `DIFF_LANES` chunks; `first` is a known differing index (scan floor).
#[inline]
fn after_last_diff<T, B>(a: &[T], b: &[T], bits: impl Fn(T) -> B + Copy, first: usize) -> usize
where
    T: Copy,
    B: Copy + Eq + Default + std::ops::BitXor<Output = B> + std::ops::BitOr<Output = B>,
{
    let n = a.len().min(b.len());
    let zero = B::default();
    let mut j = n;
    // Chunks that lie entirely above `first` can be skipped when clean.
    while j > first + DIFF_LANES {
        let s = j - DIFF_LANES;
        let mut acc = zero;
        for k in 0..DIFF_LANES {
            acc = acc | (bits(a[s + k]) ^ bits(b[s + k]));
        }
        if acc != zero {
            let last = (s..j)
                .rev()
                .find(|&x| bits(a[x]) != bits(b[x]))
                .expect("chunk contains a diff");
            return last + 1;
        }
        j = s;
    }
    let last = (first..j)
        .rev()
        .find(|&x| bits(a[x]) != bits(b[x]))
        .unwrap_or(first);
    last + 1
}

/// Half-open window `[first, last+1)` outside which the slices are
/// bit-identical, or `None` when they agree everywhere.
fn diff_window<T, B>(a: &[T], b: &[T], bits: impl Fn(T) -> B + Copy) -> Option<(usize, usize)>
where
    T: Copy,
    B: Copy + Eq + Default + std::ops::BitXor<Output = B> + std::ops::BitOr<Output = B>,
{
    let first = first_diff(a, b, bits)?;
    Some((first, after_last_diff(a, b, bits, first)))
}

/// Typed dispatch for [`diff_window`]. Outer `None` means the payloads
/// disagree on element type.
fn data_diff_window(a: &BufferData, b: &BufferData) -> Option<Option<(usize, usize)>> {
    let w = match (a, b) {
        (BufferData::F32(x), BufferData::F32(y)) => diff_window(x, y, f32::to_bits),
        (BufferData::F64(x), BufferData::F64(y)) => diff_window(x, y, f64::to_bits),
        (BufferData::U32(x), BufferData::U32(y)) => diff_window(x, y, |v: u32| v),
        (BufferData::I32(x), BufferData::I32(y)) => diff_window(x, y, |v: i32| v as u32),
        _ => return None,
    };
    Some(w)
}

/// Typed dispatch for [`first_diff`]. Outer `None` means the payloads
/// disagree on element type.
fn data_first_diff(a: &BufferData, b: &BufferData) -> Option<Option<usize>> {
    let d = match (a, b) {
        (BufferData::F32(x), BufferData::F32(y)) => first_diff(x, y, f32::to_bits),
        (BufferData::F64(x), BufferData::F64(y)) => first_diff(x, y, f64::to_bits),
        (BufferData::U32(x), BufferData::U32(y)) => first_diff(x, y, |v: u32| v),
        (BufferData::I32(x), BufferData::I32(y)) => first_diff(x, y, |v: i32| v as u32),
        _ => return None,
    };
    Some(d)
}

/// Bitwise change detection for floats: `to_bits` comparison catches NaN
/// payloads and signed zeros that `==` would miss.
fn merge_float<T: Copy + PartialEq + FloatBits>(
    target: &mut [T],
    executed: &[T],
    pristine: &[T],
    additive: bool,
    add: impl Fn(T, T) -> T,
    sub: impl Fn(T, T) -> T,
) {
    for ((t, &e), &p) in target.iter_mut().zip(executed).zip(pristine) {
        if e.bits() == p.bits() {
            continue;
        }
        if additive {
            *t = add(*t, sub(e, p));
        } else {
            *t = e;
        }
    }
}

fn merge_int<T: Copy + PartialEq + WrappingArith>(
    target: &mut [T],
    executed: &[T],
    pristine: &[T],
    additive: bool,
) {
    for ((t, &e), &p) in target.iter_mut().zip(executed).zip(pristine) {
        if e == p {
            continue;
        }
        if additive {
            *t = t.wrapping_add(e.wrapping_sub(p));
        } else {
            *t = e;
        }
    }
}

trait FloatBits {
    fn bits(self) -> u64;
}

impl FloatBits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl FloatBits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

trait WrappingArith {
    fn wrapping_add(self, rhs: Self) -> Self;
    fn wrapping_sub(self, rhs: Self) -> Self;
}

impl WrappingArith for u32 {
    fn wrapping_add(self, rhs: Self) -> Self {
        u32::wrapping_add(self, rhs)
    }
    fn wrapping_sub(self, rhs: Self) -> Self {
        u32::wrapping_sub(self, rhs)
    }
}

impl WrappingArith for i32 {
    fn wrapping_add(self, rhs: Self) -> Self {
        i32::wrapping_add(self, rhs)
    }
    fn wrapping_sub(self, rhs: Self) -> Self {
        i32::wrapping_sub(self, rhs)
    }
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

    /// Typed read access to an `f32` argument.
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `f32`.
    pub fn f32(&self, index: usize) -> Result<&[f32], KernelError> {
        match self.buffer(index)?.data() {
            BufferData::F32(v) => Ok(v),
            other => Err(KernelError::TypeMismatch {
                index,
                expected: ElemType::F32,
                actual: other.elem_type(),
            }),
        }
    }

    /// Typed write access to an `f32` argument (copy-on-write).
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `f32`.
    pub fn f32_mut(&mut self, index: usize) -> Result<&mut Vec<f32>, KernelError> {
        match self.buffer_mut(index)?.data_mut()? {
            BufferData::F32(v) => Ok(v),
            other => Err(KernelError::TypeMismatch {
                index,
                expected: ElemType::F32,
                actual: other.elem_type(),
            }),
        }
    }

    /// Typed read access to a `u32` argument.
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `u32`.
    pub fn u32(&self, index: usize) -> Result<&[u32], KernelError> {
        match self.buffer(index)?.data() {
            BufferData::U32(v) => Ok(v),
            other => Err(KernelError::TypeMismatch {
                index,
                expected: ElemType::U32,
                actual: other.elem_type(),
            }),
        }
    }

    /// Typed write access to a `u32` argument (copy-on-write).
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `u32`.
    pub fn u32_mut(&mut self, index: usize) -> Result<&mut Vec<u32>, KernelError> {
        match self.buffer_mut(index)?.data_mut()? {
            BufferData::U32(v) => Ok(v),
            other => Err(KernelError::TypeMismatch {
                index,
                expected: ElemType::U32,
                actual: other.elem_type(),
            }),
        }
    }

    /// Typed read access to an `i32` argument.
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `i32`.
    pub fn i32(&self, index: usize) -> Result<&[i32], KernelError> {
        match self.buffer(index)?.data() {
            BufferData::I32(v) => Ok(v),
            other => Err(KernelError::TypeMismatch {
                index,
                expected: ElemType::I32,
                actual: other.elem_type(),
            }),
        }
    }

    /// Typed write access to an `i32` argument (copy-on-write).
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `i32`.
    pub fn i32_mut(&mut self, index: usize) -> Result<&mut Vec<i32>, KernelError> {
        match self.buffer_mut(index)?.data_mut()? {
            BufferData::I32(v) => Ok(v),
            other => Err(KernelError::TypeMismatch {
                index,
                expected: ElemType::I32,
                actual: other.elem_type(),
            }),
        }
    }

    /// Typed read access to an `f64` argument.
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `f64`.
    pub fn f64(&self, index: usize) -> Result<&[f64], KernelError> {
        match self.buffer(index)?.data() {
            BufferData::F64(v) => Ok(v),
            other => Err(KernelError::TypeMismatch {
                index,
                expected: ElemType::F64,
                actual: other.elem_type(),
            }),
        }
    }

    /// Typed write access to an `f64` argument (copy-on-write).
    ///
    /// # Errors
    ///
    /// Fails on a bad index or if the argument is not `f64`.
    pub fn f64_mut(&mut self, index: usize) -> Result<&mut Vec<f64>, KernelError> {
        match self.buffer_mut(index)?.data_mut()? {
            BufferData::F64(v) => Ok(v),
            other => Err(KernelError::TypeMismatch {
                index,
                expected: ElemType::F64,
                actual: other.elem_type(),
            }),
        }
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
    /// a private [`AddrSpace`] instead of the process-global allocator.
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

    /// Merges a worker-side execution of some work-groups back into this
    /// argument set (see [`Buffer::merge_span`]).
    ///
    /// Only the listed `output_args` are inspected; every other argument is
    /// read-only by contract (the kernel IR declares its outputs). Buffers
    /// the worker never wrote still share their payload with `pristine` and
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
    fn restore_ranges_copies_exactly_the_marked_ranges() {
        let src = Buffer::f32("live", (0..32).map(|i| i as f32).collect(), Space::Global);
        let mut sb = Buffer::f32("sandbox", vec![-1.0; 32], Space::Global);
        let mut dirty = crate::DirtyRanges::new();
        dirty.mark(4, 8);
        dirty.mark(6, 12); // overlaps the first
        dirty.mark(20, 20); // empty: ignored
        dirty.mark(30, 40); // clamped to the payload length
        let copied = sb.restore_ranges_from(&src, &dirty).unwrap();
        assert_eq!(copied, 8 + 2);
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

    /// Property: track every random span write (overlapping and empty
    /// ranges included) in a `DirtyRanges`, then a ranged restore must be
    /// byte-for-byte what a full-snapshot restore would produce — and the
    /// derived `dirty_window` must bound every diff even for untracked
    /// writes.
    #[cfg(feature = "proptest")]
    #[test]
    fn random_span_writes_restore_like_full_snapshot() {
        use crate::{DirtyRanges, XorShiftRng};
        let mut rng = XorShiftRng::seed_from_u64(0xD1FF_5EED);
        for round in 0..200 {
            let n = 1 + rng.gen_range_u32(0, 200) as usize;
            let live: Vec<u32> = (0..n).map(|_| rng.gen_range_u32(0, 1 << 30)).collect();
            let src = Buffer::u32("live", live.clone(), Space::Global);
            let mut sb = Buffer::u32("sandbox", live.clone(), Space::Global);
            let mut dirty = DirtyRanges::new();
            for _ in 0..rng.gen_range_u32(0, 12) {
                let a = rng.gen_range_u32(0, n as u32) as usize;
                let b = (a + rng.gen_range_u32(0, 16) as usize).min(n);
                if let BufferData::U32(v) = sb.data_mut().unwrap() {
                    for x in &mut v[a..b] {
                        *x = rng.gen_range_u32(0, 1 << 30);
                    }
                }
                dirty.mark(a as u64, b as u64);
            }
            // The derived window bounds every tracked write's effect.
            if let Some((w0, w1)) = sb.dirty_window(&src).unwrap() {
                let lo = dirty.iter().next().unwrap().0 as usize;
                let hi = dirty.iter().last().unwrap().1 as usize;
                assert!(lo <= w0 && w1 <= hi, "round {round}: window escapes marks");
            }
            // Ranged restore == full-snapshot restore, byte-for-byte.
            sb.restore_ranges_from(&src, &dirty).unwrap();
            assert!(
                !sb.bits_differ(&src).unwrap(),
                "round {round}: ranged restore diverged from full restore"
            );
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
