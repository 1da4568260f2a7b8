//! The kernel programming model: barrier-phased kernels and the per-thread
//! execution context.
//!
//! A CUDA kernel with `__syncthreads()` barriers is expressed here as a
//! sequence of *phases*: phase boundaries are exactly the barriers. The
//! executor runs every (non-exited) thread of a block through phase `p`
//! before any thread enters phase `p+1`, which is precisely the
//! synchronization `__syncthreads()` guarantees. The paper's parallel
//! kernel (Fig. 6) is two phases: brightness staging, then pixel
//! computation.
//!
//! Every device operation goes through [`ThreadCtx`], which performs the
//! *functional* effect (real loads, stores, float math on real data) and
//! logs an [`Event`] for the warp-level performance analysis (coalescing,
//! bank conflicts, texture cache, atomic serialization, divergence).

use crate::counters::{Counters, FlopClass};
use crate::device::DeviceSpec;
use crate::dim::Dim3;
use crate::memory::cache::CacheSim;
use crate::memory::global::{GlobalAtomicF32, GlobalBuffer};
use crate::memory::shared::SharedMem;
use crate::memory::texture::Texture;
use crate::sanitize::{LaneHooks, MemSpace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One device operation observed during a thread's execution of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// `n` scalar flops of a class (warp-issues once per call site).
    Flop {
        /// Operation class.
        class: FlopClass,
        /// Scalar operation count.
        n: u16,
    },
    /// A global memory read at a device byte address.
    GlobalRead {
        /// Device byte address.
        addr: u64,
        /// Access width in bytes.
        bytes: u16,
    },
    /// A plain (non-atomic) global memory store at a device byte address.
    GlobalWrite {
        /// Device byte address.
        addr: u64,
        /// Access width in bytes.
        bytes: u16,
    },
    /// A shared memory read of a 4-byte word.
    SharedRead {
        /// Word index.
        word: u32,
    },
    /// A shared memory write of a 4-byte word.
    SharedWrite {
        /// Word index.
        word: u32,
    },
    /// A texture fetch at a (swizzled) device byte address.
    TexFetch {
        /// Swizzled device byte address.
        addr: u64,
    },
    /// A global-memory `atomicAdd`.
    AtomicAdd {
        /// Device byte address.
        addr: u64,
    },
    /// A data-dependent branch.
    Branch {
        /// Whether this thread took the branch.
        taken: bool,
    },
}

/// Host-side arithmetic backend for [`Kernel::run_block`] fast paths.
///
/// A pure execution strategy, orthogonal to [`crate::ExecMode`]: the
/// counter model and every modeled GPU time are **bit-equal across
/// backends** (the analytic charges never depend on how the host computes
/// pixel values), and only the functional image may differ — by the
/// bounded approximation error of the vector math, gated by the same
/// tolerance the simulators already accept for accumulation-order
/// differences. The reference (per-thread) executor always computes
/// scalar, so `Simd` only affects blocks taken by `run_block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelBackend {
    /// Scalar inner loops — the accuracy baseline and the default.
    #[default]
    Scalar,
    /// Vectorized interior-ROI loops (portable lane math; see
    /// `psf::lanes` for the approximation contract).
    Simd,
}

impl KernelBackend {
    /// Parses a CLI name (`"scalar"` / `"simd"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(KernelBackend::Scalar),
            "simd" => Some(KernelBackend::Simd),
            _ => None,
        }
    }

    /// The CLI / JSON name.
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Simd => "simd",
        }
    }
}

/// A barrier-phased kernel.
///
/// Implementations must be `Sync`: the same kernel object is shared by all
/// worker threads.
pub trait Kernel: Sync {
    /// Number of barrier-separated phases (≥ 1). The executor inserts a
    /// block-wide barrier (`__syncthreads()`) between consecutive phases.
    fn phases(&self) -> usize {
        1
    }

    /// Runs one thread through one phase.
    fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>);

    /// Batched fast path: runs the *whole block* through all phases in one
    /// call, returning `true` when handled.
    ///
    /// The default returns `false`, which makes the executor fall back to
    /// the per-thread reference path ([`Self::run`]) for this block.
    /// Implementations must produce bit-identical functional results and
    /// *exactly* the counters the reference path would have produced — the
    /// performance model is analytic either way, only the host-side
    /// execution strategy changes. An implementation that cannot handle a
    /// particular launch shape must return `false` **before mutating `ctx`
    /// in any way** so the fallback starts from a clean slate.
    ///
    /// The `'k` lifetime ties shadow-buffer registrations in
    /// [`BlockCtx::shadow`] to borrows of the kernel itself, letting
    /// implementations hand their `&GlobalAtomicF32` fields to the
    /// executor-owned [`ShadowSet`].
    fn run_block<'k>(&'k self, _ctx: &mut BlockCtx<'k, '_>) -> bool {
        false
    }
}

/// Block-level execution context handed to [`Kernel::run_block`].
///
/// Unlike [`ThreadCtx`], which records events for post-hoc warp analysis,
/// the block context exposes the counter bundle and the SM's texture cache
/// directly: fast-path kernels account their own warp-level costs
/// analytically while computing the functional result with tight loops.
/// Fields are public (rather than wrapped in methods) so a kernel can
/// borrow `counters`, `cache` and `shadow` simultaneously.
#[derive(Debug)]
pub struct BlockCtx<'k, 'a> {
    /// `blockIdx`.
    pub block_idx: Dim3,
    /// `blockDim`.
    pub block_dim: Dim3,
    /// `gridDim`.
    pub grid_dim: Dim3,
    /// Device being simulated (warp size, coalescing segment width, …).
    pub spec: &'a DeviceSpec,
    /// Counter bundle this block accounts into (merged across workers by
    /// the executor after the launch).
    pub counters: &'a mut Counters,
    /// The owning SM's texture cache. Fast-path kernels feed it the same
    /// swizzled addresses, in the same order, as the reference path.
    pub cache: &'a mut CacheSim,
    /// The worker's private accumulation buffers (image privatization).
    pub shadow: &'a mut ShadowSet<'k>,
    /// Arithmetic backend the launch selected ([`crate::LaunchConfig`]'s
    /// `backend`). Fast paths branch on this for their interior loops;
    /// counter accounting must not.
    pub backend: KernelBackend,
}

impl BlockCtx<'_, '_> {
    /// Linear block index within the grid.
    #[inline]
    pub fn block_linear(&self) -> usize {
        self.grid_dim.linear(self.block_idx)
    }
}

/// Values covered by one dirty bit of a [`ShadowBuf`]: 16 `f32` = 64 B.
///
/// Sized to the workload, not the word: the star kernels accumulate
/// ~10-pixel ROI rows, and every dirty chunk is merged *and zeroed* in
/// full. At 64 values per bit a 10-value row drags ~6× its footprint
/// through the merge; at 16 the overshoot is bounded by ~2.6× worst case
/// while the bitmap (one bit per 64 B) stays a 0.1% overhead.
const SHADOW_CHUNK: usize = 16;

/// A recycling pool of shadow buffers (see [`ShadowBuf`]).
///
/// The batched executor allocates one full-image shadow per worker per
/// launch; at frame rates those multi-megabyte allocations dominate. The
/// arena keeps *drained* (all-zero, dirty-clear) buffers from finished
/// launches and hands them back to the next one — clear, don't reallocate.
/// Buffers are returned only by [`ShadowSet::merge`], which zeroes every
/// dirty chunk as it merges, so a recycled buffer needs no zeroing pass; a
/// launch that panics simply drops its buffers instead of recycling them.
///
/// The drained-buffer invariant is *enforced*, not assumed: both `put` and
/// `take` check the dirty bitmap (a few words, essentially free) and a
/// buffer that fails the check — corrupted in flight, or returned by a
/// faulted launch — is dropped and counted ([`Self::dropped`]) rather than
/// recycled into a future frame.
#[derive(Debug, Default)]
pub struct BufferArena {
    free: Mutex<Vec<ShadowBuf>>,
    /// Corrupted (non-drained) buffers dropped instead of recycled.
    dropped: AtomicU64,
}

/// Upper bound on pooled buffers: enough for every worker of the widest
/// device shape (one shadow per SM-worker plus slack); beyond it, returned
/// buffers are dropped instead of hoarded.
const ARENA_CAP: usize = 64;

impl BufferArena {
    /// An empty arena.
    pub fn new() -> Self {
        BufferArena::default()
    }

    /// Buffers currently pooled (test/diagnostic use).
    pub fn pooled(&self) -> usize {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Corrupted buffers dropped (instead of recycled) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A drained buffer resized for `len` values. Recycled buffers are
    /// all-zero by the merge contract; a size change falls back to
    /// clear-and-resize, and a buffer failing the drained check is dropped
    /// (defense in depth — `put` already screens).
    pub(crate) fn take(&self, len: usize) -> ShadowBuf {
        loop {
            let recycled = self.free.lock().unwrap_or_else(|e| e.into_inner()).pop();
            match recycled {
                Some(mut sb) => {
                    if sb.dirty.iter().any(|&w| w != 0) {
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if sb.vals.len() != len {
                        sb.vals.clear();
                        sb.vals.resize(len, 0.0);
                        sb.dirty.clear();
                        sb.dirty.resize(dirty_words(len), 0);
                    } else {
                        debug_assert!(
                            sb.vals.iter().all(|&v| v == 0.0),
                            "arena invariant: recycled shadows are drained"
                        );
                    }
                    return sb;
                }
                None => {
                    return ShadowBuf {
                        vals: vec![0.0; len],
                        dirty: vec![0; dirty_words(len)],
                    }
                }
            }
        }
    }

    /// Returns a buffer to the pool — if it really is drained. A buffer
    /// with surviving dirty bits is corrupted (its values may be non-zero,
    /// which would silently leak into the next frame's image); it is
    /// dropped and counted instead.
    pub(crate) fn put(&self, sb: ShadowBuf) {
        if sb.dirty.iter().any(|&w| w != 0) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        if free.len() < ARENA_CAP {
            free.push(sb);
        }
    }
}

/// `u64` words needed to carry one dirty bit per [`SHADOW_CHUNK`] values.
fn dirty_words(len: usize) -> usize {
    len.div_ceil(SHADOW_CHUNK).div_ceil(64)
}

/// One worker's private shadow of an `atomicAdd` target buffer, with a
/// coarse dirty bitmap (one bit per [`SHADOW_CHUNK`] values).
///
/// The bitmap makes the merge and the drain proportional to the *touched*
/// footprint instead of the buffer length — with many workers each shadow
/// holds a thin slice of the image, and scanning megabytes of untouched
/// zeros per worker would dwarf the actual merge work.
#[derive(Debug)]
pub struct ShadowBuf {
    vals: Vec<f32>,
    /// Bit `c` of word `c / 64` set ⇔ values `[c·K, (c+1)·K)` for
    /// `K = SHADOW_CHUNK` may be non-zero. Unmarked chunks are guaranteed
    /// all-zero.
    dirty: Vec<u64>,
}

impl ShadowBuf {
    /// `self[idx] += v`.
    #[inline]
    pub fn add(&mut self, idx: usize, v: f32) {
        self.vals[idx] += v;
        let chunk = idx / SHADOW_CHUNK;
        self.dirty[chunk / 64] |= 1 << (chunk % 64);
    }

    /// Mutable view of `[start, end)`, marked dirty — the tight-loop API
    /// for kernels accumulating a whole ROI row at once.
    #[inline]
    pub fn span_mut(&mut self, start: usize, end: usize) -> &mut [f32] {
        debug_assert!(start <= end && end <= self.vals.len());
        let mut chunk = start / SHADOW_CHUNK;
        let last = end.saturating_sub(1) / SHADOW_CHUNK;
        while chunk <= last {
            self.dirty[chunk / 64] |= 1 << (chunk % 64);
            chunk += 1;
        }
        &mut self.vals[start..end]
    }

    /// Visits every dirty run in ascending index order as
    /// `f(start, span)`, clearing the dirty bits; `f` must leave the span
    /// all-zero (drained) so the buffer is recyclable afterwards.
    ///
    /// Runs of consecutive dirty chunks (the common case: an ROI row
    /// straddling a chunk boundary) coalesce into one visit, and each
    /// chunk is seen once, in ascending order either way — the per-pixel
    /// order is unchanged.
    fn drain_runs(&mut self, mut f: impl FnMut(usize, &mut [f32])) {
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = *word;
            *word = 0;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                // Length of the run of set bits starting at `b`.
                let run = (!(bits >> b)).trailing_zeros() as usize;
                bits &= if b + run >= 64 {
                    0
                } else {
                    !(((1u64 << run) - 1) << b)
                };
                let start = (w * 64 + b) * SHADOW_CHUNK;
                let end = (start + run * SHADOW_CHUNK).min(self.vals.len());
                f(start, &mut self.vals[start..end]);
            }
        }
    }

    /// Merges every non-zero value into `buf` in ascending index order and
    /// drains the shadow back to the all-zero state (values zeroed, dirty
    /// bits cleared) so the arena can recycle it without a clearing pass.
    fn drain_into(&mut self, buf: &GlobalAtomicF32) {
        self.drain_runs(|start, span| buf.merge_drain_range(start, span));
    }

    /// Marks the buffer corrupted — first value poisoned, first dirty bit
    /// re-set — simulating in-flight corruption of drained storage. Used
    /// by fault injection to exercise the arena's integrity screen.
    pub(crate) fn poison(&mut self) {
        if !self.vals.is_empty() {
            self.vals[0] = f32::NAN;
            self.dirty[0] |= 1;
        }
    }
}

/// One role's extracted kernel output: compact runs of values destined for
/// target buffers registered in a launch-wide slot table. Recorded in
/// ascending index order per target; `vals` holds the run values back to
/// back. Recycled (with capacity) across launches by the executor.
#[derive(Debug, Default)]
pub(crate) struct RoleRuns {
    /// `(target slot, start index in the target, value count)` per run.
    segs: Vec<(u32, u32, u32)>,
    vals: Vec<f32>,
}

impl RoleRuns {
    /// Empties the lists, keeping their capacity.
    pub(crate) fn clear(&mut self) {
        self.segs.clear();
        self.vals.clear();
    }

    /// Adds every recorded non-zero value into its target buffer, in
    /// recorded (ascending) order. Single-writer, like
    /// [`GlobalAtomicF32::merge_add_range`].
    pub(crate) fn merge_into(&self, targets: &[&GlobalAtomicF32]) {
        let mut cursor = 0usize;
        for &(slot, start, len) in &self.segs {
            let vals = &self.vals[cursor..cursor + len as usize];
            cursor += len as usize;
            targets[slot as usize].merge_add_range(start as usize, vals);
        }
    }
}

/// Per-worker private shadows of `atomicAdd` target buffers.
///
/// Instead of CAS-looping on the shared [`GlobalAtomicF32`] from every
/// worker, each worker of the batched executor accumulates into a private
/// `f32` image registered here, and the executor merges the shadows into
/// their targets in worker order once all workers have joined. The merge is
/// single-threaded, so the result is deterministic for a fixed worker
/// count; modeled atomic traffic is accounted analytically by the kernel's
/// `run_block`, unaffected by this host-side strategy.
///
/// When built [`Self::with_arena`], shadow storage is recycled across
/// launches instead of reallocated — the zero-allocation frame loop.
#[derive(Debug, Default)]
pub struct ShadowSet<'k> {
    bufs: Vec<(&'k GlobalAtomicF32, ShadowBuf)>,
    arena: Option<&'k BufferArena>,
}

impl<'k> ShadowSet<'k> {
    /// An empty shadow set allocating fresh storage per buffer.
    pub fn new() -> Self {
        ShadowSet {
            bufs: Vec::new(),
            arena: None,
        }
    }

    /// An empty shadow set drawing storage from (and returning it to)
    /// `arena`.
    pub fn with_arena(arena: &'k BufferArena) -> Self {
        ShadowSet {
            bufs: Vec::new(),
            arena: Some(arena),
        }
    }

    /// `shadow[buf][idx] += v`, allocating the shadow of `buf` (zeroed, one
    /// slot per element) on first use.
    #[inline]
    pub fn add(&mut self, buf: &'k GlobalAtomicF32, idx: usize, v: f32) {
        self.accumulator(buf).add(idx, v);
    }

    /// The private accumulator for `buf`, allocating it on first use.
    /// Buffers are identified by address; launches touch one or two, so
    /// the linear scan is free — but kernels should hoist this lookup out
    /// of per-pixel loops.
    #[inline]
    pub fn accumulator(&mut self, buf: &'k GlobalAtomicF32) -> &mut ShadowBuf {
        if let Some(pos) = self.bufs.iter().position(|(b, _)| std::ptr::eq(*b, buf)) {
            return &mut self.bufs[pos].1;
        }
        let sb = match self.arena {
            Some(arena) => arena.take(buf.len()),
            None => ShadowBuf {
                vals: vec![0.0; buf.len()],
                dirty: vec![0; dirty_words(buf.len())],
            },
        };
        self.bufs.push((buf, sb));
        &mut self.bufs.last_mut().expect("just pushed").1
    }

    /// Adds every accumulated value into its target buffer (ascending index
    /// order per buffer) and recycles drained storage into the arena, if
    /// any. Called by the executor with all workers joined, so the plain
    /// read-modify-write in [`GlobalAtomicF32::merge_add_range`] is
    /// race-free.
    ///
    /// With an arena, the merge walks only dirty chunks — it must drain the
    /// buffer back to all-zero for recycling anyway, so the bitmap pays for
    /// itself. Without one, storage is dropped after the merge and draining
    /// would be wasted work: the merge is the pre-arena full-range scan.
    /// Both walk each buffer in ascending index order and skip zeros, so
    /// the merged values are bit-identical.
    pub(crate) fn merge(self) {
        self.merge_corrupting(false);
    }

    /// Drains every accumulator into `out` as compact runs — registering
    /// each target buffer in `targets` (by address) on first sight and
    /// referring to it by slot — then recycles the drained scratch into
    /// the arena, if any.
    ///
    /// This is the extraction scheduler's per-role drain: it runs on the
    /// worker lane right after the role's blocks, while the touched chunks
    /// are cache-warm. The extracted values are exactly the per-role
    /// accumulated values in ascending index order, so a later
    /// [`RoleRuns::merge_into`] in role order reproduces the one-add-per-
    /// role-pixel reduction bit-for-bit.
    pub(crate) fn extract_into(self, targets: &mut Vec<&'k GlobalAtomicF32>, out: &mut RoleRuns) {
        for (buf, mut sb) in self.bufs {
            let slot = targets
                .iter()
                .position(|t| std::ptr::eq(*t, buf))
                .unwrap_or_else(|| {
                    targets.push(buf);
                    targets.len() - 1
                }) as u32;
            sb.drain_runs(|start, span| {
                out.segs.push((slot, start as u32, span.len() as u32));
                out.vals.extend_from_slice(span);
                span.fill(0.0);
            });
            if let Some(arena) = self.arena {
                arena.put(sb);
            }
        }
    }

    /// [`Self::merge`] with an injected fault: after the (complete,
    /// correct) drain, re-mark the first buffer's first chunk dirty with a
    /// poisoned value, simulating in-flight corruption of the recycled
    /// storage. The image is unaffected — the point is to exercise the
    /// arena's integrity check, which must drop the buffer, not recycle it.
    pub(crate) fn merge_corrupting(self, corrupt_first: bool) {
        let mut corrupt = corrupt_first;
        for (buf, mut sb) in self.bufs {
            if let Some(arena) = self.arena {
                sb.drain_into(buf);
                if corrupt && !sb.vals.is_empty() {
                    sb.vals[0] = f32::NAN;
                    sb.dirty[0] |= 1;
                    corrupt = false;
                }
                arena.put(sb);
            } else {
                buf.merge_add_range(0, &sb.vals);
            }
        }
    }
}

/// Per-thread execution context: identity, shared memory, and event log.
///
/// In sanitized launches the executor attaches [`LaneHooks`] via
/// [`Self::set_sanitizer`]; every device op then bounds-checks its index
/// *before* touching memory, reporting out-of-bounds accesses (clamped or
/// dropped) instead of panicking, so the launch completes and the memcheck
/// findings reach the report.
#[derive(Debug)]
pub struct ThreadCtx<'a> {
    /// `threadIdx`.
    pub thread_idx: Dim3,
    /// `blockIdx`.
    pub block_idx: Dim3,
    /// `blockDim`.
    pub block_dim: Dim3,
    /// `gridDim`.
    pub grid_dim: Dim3,
    shared: &'a SharedMem,
    events: Vec<Event>,
    exited: bool,
    san: Option<LaneHooks<'a>>,
    /// Probe mode (static analyzer): events are recorded as usual, but
    /// global mutation — `atomicAdd` and plain stores — is suppressed, so
    /// interpreting a kernel for its access trace leaves device memory
    /// untouched. Shared memory stays functional (it is the analyzer's own
    /// scratch block) so later phases observe phase-0 staging.
    probe: bool,
}

impl<'a> ThreadCtx<'a> {
    /// Creates a context (called by the executor).
    pub(crate) fn new(
        thread_idx: Dim3,
        block_idx: Dim3,
        block_dim: Dim3,
        grid_dim: Dim3,
        shared: &'a SharedMem,
        events: Vec<Event>,
    ) -> Self {
        ThreadCtx {
            thread_idx,
            block_idx,
            block_dim,
            grid_dim,
            shared,
            events,
            exited: false,
            san: None,
            probe: false,
        }
    }

    /// Switches this context into side-effect-free probe mode (static
    /// analyzer only — see [`crate::analyze`]).
    pub(crate) fn set_probe(&mut self) {
        self.probe = true;
    }

    /// Attaches the sanitizer's per-lane memcheck hooks (sanitized
    /// executor only).
    pub(crate) fn set_sanitizer(&mut self, hooks: LaneHooks<'a>) {
        self.san = Some(hooks);
    }

    /// Memcheck an index against `limit`: in-bounds indices pass through;
    /// out-of-bounds indices are reported through the hooks and clamped to
    /// the last element when sanitized, or returned as-is (to fault in the
    /// underlying memory model) otherwise. Returns `(index, was_oob)`.
    #[inline]
    fn check_index(&self, space: MemSpace, idx: usize, limit: usize) -> (usize, bool) {
        if idx < limit {
            return (idx, false);
        }
        match &self.san {
            Some(hooks) if hooks.memcheck && limit > 0 => {
                hooks.oob(space, idx, limit, self.thread_linear());
                (limit - 1, true)
            }
            _ => (idx, false),
        }
    }

    /// Linear thread index within the block (CUDA ordering — determines
    /// warp membership).
    #[inline]
    pub fn thread_linear(&self) -> usize {
        self.block_dim.linear(self.thread_idx)
    }

    /// Linear block index within the grid (the paper's
    /// `blockIdx.x + blockIdx.y * gridDim.x`).
    #[inline]
    pub fn block_linear(&self) -> usize {
        self.grid_dim.linear(self.block_idx)
    }

    /// Records `n` scalar flops of `class`.
    #[inline]
    pub fn flops(&mut self, class: FlopClass, n: u16) {
        self.events.push(Event::Flop { class, n });
    }

    /// Global memory read of element `idx` from a device buffer.
    #[inline]
    pub fn global_read<T: Copy>(&mut self, buf: &GlobalBuffer<T>, idx: usize) -> T {
        let (idx, _) = self.check_index(MemSpace::Global, idx, buf.len());
        self.events.push(Event::GlobalRead {
            addr: buf.addr_of(idx),
            bytes: std::mem::size_of::<T>() as u16,
        });
        buf.read(idx)
    }

    /// Global-memory `atomicAdd(&buf[idx], v)`, returning the old value.
    #[inline]
    pub fn atomic_add_global(&mut self, buf: &GlobalAtomicF32, idx: usize, v: f32) -> f32 {
        let (idx, oob) = self.check_index(MemSpace::Global, idx, buf.len());
        self.events.push(Event::AtomicAdd {
            addr: buf.addr_of(idx),
        });
        if oob || self.probe {
            // The add is suppressed: the clamped address keeps the warp
            // analysis well-formed, but the stray accumulation must not
            // corrupt the last pixel. Probe mode suppresses every add —
            // the analyzer only wants the address trace.
            return 0.0;
        }
        buf.atomic_add(idx, v)
    }

    /// Plain (non-atomic) global store `buf[idx] = v` — the operation the
    /// paper's kernel must *never* use for contended image pixels. Exists
    /// so the sanitizer's known-bad corpus can express the
    /// atomicAdd-replaced-by-store defect; racecheck treats it as a
    /// conflicting write.
    #[inline]
    pub fn global_write(&mut self, buf: &GlobalAtomicF32, idx: usize, v: f32) {
        let (idx, oob) = self.check_index(MemSpace::Global, idx, buf.len());
        self.events.push(Event::GlobalWrite {
            addr: buf.addr_of(idx),
            bytes: 4,
        });
        if !oob && !self.probe {
            buf.store(idx, v);
        }
    }

    /// Shared memory read of word `idx`.
    #[inline]
    pub fn shared_read(&mut self, idx: usize) -> f32 {
        let (idx, oob) = self.check_index(MemSpace::Shared, idx, self.shared.len());
        if oob {
            // Reading uninitialized/foreign memory: return a defined zero
            // without touching the (nonexistent) word.
            return 0.0;
        }
        self.events.push(Event::SharedRead { word: idx as u32 });
        self.shared.read(idx, self.thread_linear() as u32)
    }

    /// Shared memory write of word `idx`.
    #[inline]
    pub fn shared_write(&mut self, idx: usize, v: f32) {
        let (idx, oob) = self.check_index(MemSpace::Shared, idx, self.shared.len());
        if oob {
            // The store is dropped entirely — clamping would corrupt the
            // last legitimate word.
            return;
        }
        self.events.push(Event::SharedWrite { word: idx as u32 });
        self.shared.write(idx, v, self.thread_linear() as u32);
    }

    /// Texture fetch `tex[layer](x, y)` with clamp addressing.
    ///
    /// Hardware clamping masks out-of-domain fetches, so under the
    /// sanitizer the *pre-clamp* coordinates are memchecked: a layer or
    /// texel index outside the bound table is reported even though the
    /// clamped fetch proceeds.
    #[inline]
    pub fn tex_fetch(&mut self, tex: &Texture, layer: usize, x: i64, y: i64) -> f32 {
        if let Some(hooks) = &self.san {
            if hooks.memcheck {
                let lane = self.thread_linear();
                if layer >= tex.layers() {
                    hooks.oob(MemSpace::Texture, layer, tex.layers(), lane);
                } else if x < 0 || x as usize >= tex.width() {
                    hooks.oob(MemSpace::Texture, x.max(0) as usize, tex.width(), lane);
                } else if y < 0 || y as usize >= tex.height() {
                    hooks.oob(MemSpace::Texture, y.max(0) as usize, tex.height(), lane);
                }
            }
        }
        let (value, addr) = tex.fetch(layer, x, y);
        self.events.push(Event::TexFetch { addr });
        value
    }

    /// Records a data-dependent branch and returns `cond`, so kernels write
    /// `if ctx.branch(cond) { ... }`. Mixed outcomes within a warp are
    /// counted as a divergent branch by the analyzer.
    #[inline]
    pub fn branch(&mut self, cond: bool) -> bool {
        self.events.push(Event::Branch { taken: cond });
        cond
    }

    /// Early return (`return;` in CUDA): the thread skips all remaining
    /// phases. Used by the paper's `if (blockId >= starCount) return`.
    #[inline]
    pub fn exit(&mut self) {
        self.exited = true;
    }

    /// Whether [`Self::exit`] was called.
    pub(crate) fn exited(&self) -> bool {
        self.exited
    }

    /// Drains the event log (executor use).
    pub(crate) fn take_events(self) -> Vec<Event> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::global::AddressSpace;

    fn ctx<'a>(shared: &'a SharedMem) -> ThreadCtx<'a> {
        ThreadCtx::new(
            Dim3::d3(3, 2, 0),
            Dim3::d3(1, 1, 0),
            Dim3::d2(10, 10),
            Dim3::d2(4, 4),
            shared,
            Vec::new(),
        )
    }

    #[test]
    fn indices_linearize_like_cuda() {
        let sm = SharedMem::new(4);
        let c = ctx(&sm);
        assert_eq!(c.thread_linear(), 23); // 3 + 2·10
        assert_eq!(c.block_linear(), 5); // 1 + 1·4
    }

    #[test]
    fn operations_log_events_and_have_effects() {
        let sm = SharedMem::new(4);
        let space = AddressSpace::new();
        let buf = GlobalBuffer::from_host(&space, vec![10.0f32, 20.0]);
        let img = GlobalAtomicF32::zeroed(&space, 8);

        let mut c = ctx(&sm);
        c.flops(FlopClass::Mul, 3);
        assert_eq!(c.global_read(&buf, 1), 20.0);
        c.shared_write(2, 7.0);
        assert_eq!(c.shared_read(2), 7.0);
        let prev = c.atomic_add_global(&img, 5, 1.5);
        assert_eq!(prev, 0.0);
        assert_eq!(img.read(5), 1.5);
        assert!(c.branch(true));
        assert!(!c.branch(false));

        let events = c.take_events();
        assert_eq!(events.len(), 7);
        assert!(matches!(events[0], Event::Flop { n: 3, .. }));
        assert!(matches!(events[1], Event::GlobalRead { bytes: 4, .. }));
        assert!(matches!(events[2], Event::SharedWrite { word: 2 }));
        assert!(matches!(events[3], Event::SharedRead { word: 2 }));
        assert!(matches!(events[4], Event::AtomicAdd { .. }));
        assert!(matches!(events[5], Event::Branch { taken: true }));
        assert!(matches!(events[6], Event::Branch { taken: false }));
    }

    #[test]
    fn texture_fetch_logs_swizzled_address() {
        let sm = SharedMem::new(1);
        let space = AddressSpace::new();
        let tex = Texture::bind(&space, 2, 2, 1, vec![1.0, 2.0, 3.0, 4.0], usize::MAX).unwrap();
        let mut c = ctx(&sm);
        assert_eq!(c.tex_fetch(&tex, 0, 1, 1), 4.0);
        let events = c.take_events();
        match events[0] {
            Event::TexFetch { addr } => assert_eq!(addr, tex.fetch(0, 1, 1).1),
            ref other => panic!("expected TexFetch, got {other:?}"),
        }
    }

    #[test]
    fn exit_flag() {
        let sm = SharedMem::new(1);
        let mut c = ctx(&sm);
        assert!(!c.exited());
        c.exit();
        assert!(c.exited());
    }

    #[test]
    fn shadow_set_merges_into_targets() {
        let space = AddressSpace::new();
        let img = GlobalAtomicF32::from_host(&space, &[1.0, 2.0, 3.0]);
        let mut shadow = ShadowSet::new();
        shadow.add(&img, 0, 0.5);
        shadow.add(&img, 2, 1.0);
        shadow.add(&img, 2, 1.0);
        shadow.merge();
        assert_eq!(img.to_host(), vec![1.5, 2.0, 5.0]);
    }

    #[test]
    fn shadow_buf_span_marks_dirty_chunks() {
        let space = AddressSpace::new();
        // Large enough that an unmarked merge scan would visit many chunks.
        let img = GlobalAtomicF32::zeroed(&space, 1024);
        let mut shadow = ShadowSet::new();
        let acc = shadow.accumulator(&img);
        // A span crossing a chunk boundary.
        let span = acc.span_mut(60, 70);
        for v in span.iter_mut() {
            *v += 2.0;
        }
        acc.add(1000, 3.0);
        shadow.merge();
        let host = img.to_host();
        for (i, &v) in host.iter().enumerate() {
            let expect = match i {
                60..=69 => 2.0,
                1000 => 3.0,
                _ => 0.0,
            };
            assert_eq!(v, expect, "pixel {i}");
        }
    }

    #[test]
    fn arena_recycles_drained_buffers() {
        let space = AddressSpace::new();
        let img = GlobalAtomicF32::zeroed(&space, 256);
        let arena = BufferArena::new();
        {
            let mut shadow = ShadowSet::with_arena(&arena);
            shadow.add(&img, 7, 1.0);
            shadow.merge();
        }
        assert_eq!(arena.pooled(), 1, "merge must return the buffer");
        {
            // Second use draws the recycled (drained) buffer; the merged
            // result must be indistinguishable from a fresh allocation.
            let mut shadow = ShadowSet::with_arena(&arena);
            shadow.add(&img, 7, 1.0);
            shadow.add(&img, 255, 4.0);
            shadow.merge();
        }
        assert_eq!(arena.pooled(), 1);
        assert_eq!(img.read(7), 2.0);
        assert_eq!(img.read(255), 4.0);
    }

    #[test]
    fn arena_resizes_recycled_buffers() {
        let space = AddressSpace::new();
        let small = GlobalAtomicF32::zeroed(&space, 8);
        let big = GlobalAtomicF32::zeroed(&space, 4096);
        let arena = BufferArena::new();
        let mut shadow = ShadowSet::with_arena(&arena);
        shadow.add(&small, 3, 1.0);
        shadow.merge();
        let mut shadow = ShadowSet::with_arena(&arena);
        shadow.add(&big, 4095, 2.0);
        shadow.merge();
        assert_eq!(small.read(3), 1.0);
        assert_eq!(big.read(4095), 2.0);
    }

    #[test]
    fn arena_drops_corrupted_buffer_instead_of_recycling() {
        let space = AddressSpace::new();
        let img = GlobalAtomicF32::zeroed(&space, 256);
        let arena = BufferArena::new();
        {
            let mut shadow = ShadowSet::with_arena(&arena);
            shadow.add(&img, 7, 1.0);
            // Injected corruption: the buffer comes back non-drained.
            shadow.merge_corrupting(true);
        }
        assert_eq!(arena.pooled(), 0, "corrupted buffer must not be pooled");
        assert_eq!(arena.dropped(), 1);
        assert_eq!(img.read(7), 1.0, "the merge itself stays correct");

        // The next launch allocates fresh and the frame stays clean.
        let mut shadow = ShadowSet::with_arena(&arena);
        shadow.add(&img, 7, 1.0);
        shadow.merge();
        assert_eq!(arena.pooled(), 1);
        assert_eq!(img.read(7), 2.0);
        for i in 0..256 {
            assert!(img.read(i).is_finite(), "no NaN may leak into pixel {i}");
        }
    }

    #[test]
    fn arena_take_screens_corrupted_buffers_too() {
        let arena = BufferArena::new();
        // Plant a corrupted buffer directly in the free list (put() would
        // screen it, so bypass it to exercise take()'s check).
        arena
            .free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ShadowBuf {
                vals: vec![9.0; 32],
                dirty: vec![1; dirty_words(32)],
            });
        let sb = arena.take(32);
        assert!(
            sb.vals.iter().all(|&v| v == 0.0),
            "take must hand out a clean buffer"
        );
        assert_eq!(arena.dropped(), 1);
        assert_eq!(arena.pooled(), 0);
    }
}
