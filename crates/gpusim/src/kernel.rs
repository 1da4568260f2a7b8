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
use crate::exec::TRANSFER_CHUNK;
use crate::memory::cache::CacheSim;
use crate::memory::global::{chunk_checksum, GlobalAtomicF32, GlobalBuffer};
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
    /// The `'k` lifetime ties deposit-list registrations in
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
    /// The role's private deposit lists (image privatization).
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

/// Values per merge tile (32 KiB of `f32`). The batched executor's
/// post-join merge walks each target in tiles of this many values and
/// folds a tile's deposits in a scratch of this size, small enough to stay
/// in a core's L1 data cache.
pub(crate) const MERGE_TILE: usize = 8192;

// A host-bound merge records whole transfer chunks per tile.
const _: () = assert!(MERGE_TILE.is_multiple_of(TRANSFER_CHUNK));

/// A recycling pool of deposit buffers (see [`DepositList`]).
///
/// The batched executor records every role's deposits into a list drawn
/// from here, and every merge lane folds its tiles in a scratch drawn from
/// here; at frame rates fresh allocations would dominate. The arena keeps
/// *drained* (empty) buffers, with their capacity, and hands them back to
/// the next role or lane — clear, don't reallocate. Lists come back
/// through [`ShadowSet::seal_into`], which empties them as it buckets
/// them; a launch that panics simply drops its buffers instead of
/// recycling them.
///
/// The drained-buffer invariant is *enforced*, not assumed: both `put` and
/// `take` check that a buffer is empty (two length reads), and a buffer
/// that fails the check — corrupted in flight, or returned by a faulted
/// launch — is dropped and counted ([`Self::dropped`]) rather than
/// recycled, where its stale rows would leak into a future frame.
#[derive(Debug, Default)]
pub struct BufferArena {
    free: Mutex<Vec<DepositList>>,
    /// Corrupted (non-drained) buffers dropped instead of recycled.
    dropped: AtomicU64,
}

/// Upper bound on pooled buffers: enough for every worker of the widest
/// device shape (one list per SM plus merge scratch); beyond it, returned
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

    /// A drained buffer: recycled when one is pooled, fresh otherwise. A
    /// pooled buffer failing the drained check is dropped (defense in
    /// depth — `put` already screens).
    pub(crate) fn take(&self) -> DepositList {
        loop {
            let recycled = self.free.lock().unwrap_or_else(|e| e.into_inner()).pop();
            match recycled {
                Some(list) if !list.is_drained() => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
                Some(list) => return list,
                None => return DepositList::default(),
            }
        }
    }

    /// Returns a buffer to the pool — if it really is drained. A buffer
    /// that still holds rows or values is corrupted; it is dropped and
    /// counted instead.
    pub(crate) fn put(&self, list: DepositList) {
        if !list.is_drained() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        if free.len() < ARENA_CAP {
            free.push(list);
        }
    }
}

/// One role's deposits into one `atomicAdd` target, in the order the role
/// made them: rows of `(start index, value count)` whose values sit back
/// to back.
///
/// **Deposit contract.** A row handed out by [`Self::span_mut`] starts
/// zeroed, and the kernel adds into each of its slots exactly once
/// (`*slot += v`); [`Self::add`] is one such add. The merge folds a role's
/// rows per pixel in recording order starting from zero, which is the
/// chain of adds a dense per-role accumulator would see — bit for bit,
/// because each slot carries one deposit. `psf::lanes::accumulate` and
/// `PsfModel::accumulate_row` keep the contract (one add per slot).
#[derive(Debug, Default)]
pub struct DepositList {
    rows: Vec<(u32, u32)>,
    vals: Vec<f32>,
}

impl DepositList {
    /// Deposits `v` at `idx`: extends the last row when `idx` directly
    /// follows it, else opens a one-value row.
    ///
    /// # Panics
    /// Panics when `idx` does not fit the `u32` row format; an index past
    /// the target's end panics when the list is sealed.
    #[inline]
    pub fn add(&mut self, idx: usize, v: f32) {
        match self.rows.last_mut() {
            Some((start, len)) if *start as usize + *len as usize == idx => *len += 1,
            _ => self.rows.push((row_index(idx), 1)),
        }
        self.vals.push(v);
    }

    /// A zeroed row covering `[start, end)` of the target — the tight-loop
    /// API for kernels depositing a whole ROI row at once. Add into each
    /// slot exactly once (see the type's deposit contract). An empty range
    /// records nothing.
    ///
    /// # Panics
    /// Panics when `start > end` or `end` does not fit the `u32` row
    /// format; a row past the target's end panics when the list is sealed.
    #[inline]
    pub fn span_mut(&mut self, start: usize, end: usize) -> &mut [f32] {
        assert!(start <= end, "deposit row [{start}, {end}) is reversed");
        let at = self.vals.len();
        if end > start {
            row_index(end);
            self.rows.push((start as u32, (end - start) as u32));
            self.vals.resize(at + end - start, 0.0);
        }
        &mut self.vals[at..]
    }

    /// Whether the list holds nothing (the arena's recycling invariant).
    fn is_drained(&self) -> bool {
        self.rows.is_empty() && self.vals.is_empty()
    }

    /// Empties the list, keeping its capacity.
    fn clear(&mut self) {
        self.rows.clear();
        self.vals.clear();
    }

    /// Marks the buffer corrupted — a stale NaN row left behind —
    /// simulating in-flight corruption of drained storage. Used by fault
    /// injection to exercise the arena's integrity screen.
    pub(crate) fn poison(&mut self) {
        self.add(0, f32::NAN);
    }
}

/// `idx` in the `u32` row format of [`DepositList`].
#[inline]
fn row_index(idx: usize) -> u32 {
    u32::try_from(idx).expect("deposit index fits the u32 row format")
}

/// Calls `f(tile, start, len)` for each piece of `[start, end)` cut at
/// merge-tile boundaries, in ascending order.
#[inline]
fn for_each_tile_piece(start: usize, end: usize, mut f: impl FnMut(usize, usize, usize)) {
    let mut s = start;
    while s < end {
        let tile = s / MERGE_TILE;
        let e = end.min((tile + 1) * MERGE_TILE);
        f(tile, s, e - s);
        s = e;
    }
}

/// One role's sealed kernel output: its deposits bucketed by merge tile of
/// each target it touched, targets referred to by their slot in a
/// launch-wide table. Recycled (with capacity) across launches by the
/// executor.
#[derive(Debug, Default)]
pub(crate) struct RoleDeposits {
    /// `(target slot, index of the target's first entry in `buckets`)`.
    parts: Vec<(u32, u32)>,
    /// Per part, one `(row, value)` offset pair per tile plus an end
    /// marker: tile `t`'s rows are `rows[b[t].0..b[t + 1].0]` and its
    /// values `vals[b[t].1..b[t + 1].1]`.
    buckets: Vec<(u32, u32)>,
    /// `(start within the tile, value count)`, recording order per tile.
    rows: Vec<(u32, u32)>,
    vals: Vec<f32>,
}

impl RoleDeposits {
    /// Whether the role sealed no deposit list.
    pub(crate) fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Empties the lists, keeping their capacity.
    pub(crate) fn clear(&mut self) {
        self.parts.clear();
        self.buckets.clear();
        self.rows.clear();
        self.vals.clear();
    }

    /// Buckets `list`'s rows by merge tile of the `len`-value target in
    /// `slot` — a stable counting sort, so rows keep recording order
    /// inside each tile, and a row crossing a tile boundary is cut in two
    /// — then empties `list`.
    ///
    /// # Panics
    /// Panics when a row reaches past `len` (an out-of-bounds deposit).
    fn seal(&mut self, slot: u32, list: &mut DepositList, len: usize) {
        let first = self.buckets.len();
        self.parts.push((slot, first as u32));
        // Count each tile's rows and values into the entry after it.
        self.buckets
            .resize(first + len.div_ceil(MERGE_TILE) + 1, (0, 0));
        for &(start, n) in &list.rows {
            let (start, end) = (start as usize, start as usize + n as usize);
            assert!(
                end <= len,
                "deposit [{start}, {end}) out of bounds of a {len}-value buffer"
            );
            for_each_tile_piece(start, end, |t, _, n| {
                let b = &mut self.buckets[first + t + 1];
                *b = (b.0 + 1, b.1 + n as u32);
            });
        }
        // Prefix sums: entry `t + 1` becomes tile `t`'s write cursor, and
        // the scatter below advances it to the tile's end.
        let mut at = (self.rows.len() as u32, self.vals.len() as u32);
        self.buckets[first] = at;
        for b in &mut self.buckets[first + 1..] {
            let count = *b;
            *b = at;
            at = (at.0 + count.0, at.1 + count.1);
        }
        self.rows.resize(at.0 as usize, (0, 0));
        self.vals.resize(at.1 as usize, 0.0);
        let mut read = 0usize;
        for &(start, n) in &list.rows {
            let start = start as usize;
            for_each_tile_piece(start, start + n as usize, |t, s, n| {
                let b = &mut self.buckets[first + t + 1];
                let (r, v) = (b.0 as usize, b.1 as usize);
                self.rows[r] = ((s - t * MERGE_TILE) as u32, n as u32);
                self.vals[v..v + n].copy_from_slice(&list.vals[read..read + n]);
                *b = (b.0 + 1, b.1 + n as u32);
                read += n;
            });
        }
        list.clear();
    }

    /// Tile `tile` of the target in `slot`: its rows and their values
    /// (both empty when this role deposited nothing there).
    #[inline]
    fn tile(&self, slot: u32, tile: usize) -> (&[(u32, u32)], &[f32]) {
        let Some(&(_, first)) = self.parts.iter().find(|p| p.0 == slot) else {
            return (&[], &[]);
        };
        let (b, e) = (
            self.buckets[first as usize + tile],
            self.buckets[first as usize + tile + 1],
        );
        (
            &self.rows[b.0 as usize..e.0 as usize],
            &self.vals[b.1 as usize..e.1 as usize],
        )
    }
}

/// The merge tiles `[lo, hi)` that band `band` of `bands` owns out of
/// `total` — every target's tiles concatenated in slot order.
#[inline]
fn band_tiles(total: usize, band: usize, bands: usize) -> (usize, usize) {
    (total * band / bands, total * (band + 1) / bands)
}

/// One merge lane's share of a host-bound image (target slot 0): host
/// values `[start, start + vals.len())`, and — when transfers are verified
/// — one checksum per [`TRANSFER_CHUNK`] of them (`sums` is empty
/// otherwise).
#[derive(Debug)]
pub(crate) struct HostBand<'h> {
    start: usize,
    vals: &'h mut [f32],
    sums: &'h mut [u64],
}

/// Cuts `host` (the slot-0 image of a `total`-tile target table) and its
/// chunk checksums `sums` (empty when unverified) into the disjoint shares
/// the `bands` merge lanes own, in band order.
pub(crate) fn host_bands<'h>(
    mut host: &'h mut [f32],
    mut sums: &'h mut [u64],
    total: usize,
    bands: usize,
) -> Vec<Mutex<HostBand<'h>>> {
    let (len, tiles) = (host.len(), host.len().div_ceil(MERGE_TILE));
    let mut taken = 0usize;
    (0..bands)
        .map(|band| {
            let hi = band_tiles(total, band, bands).1.min(tiles);
            let end = (hi * MERGE_TILE).min(len);
            let (vals, rest) = std::mem::take(&mut host).split_at_mut(end - taken);
            host = rest;
            let n_sums = if sums.is_empty() {
                0
            } else {
                end.div_ceil(TRANSFER_CHUNK) - taken.div_ceil(TRANSFER_CHUNK)
            };
            let (band_sums, rest) = std::mem::take(&mut sums).split_at_mut(n_sums);
            sums = rest;
            let start = std::mem::replace(&mut taken, end);
            Mutex::new(HostBand {
                start,
                vals,
                sums: band_sums,
            })
        })
        .collect()
}

/// `dst[i] += vals[i]` for every non-zero `vals[i]`, which is then zeroed —
/// the host twin of [`GlobalAtomicF32::merge_drain_range`], same chain of
/// adds.
#[inline]
fn drain_into(dst: &mut [f32], vals: &mut [f32]) {
    for (d, v) in dst.iter_mut().zip(vals) {
        if *v != 0.0 {
            *d += *v;
            *v = 0.0;
        }
    }
}

/// Merges band `band` of `bands` — a contiguous range of the merge tiles
/// of every target, in slot order — of the roles' sealed deposits into the
/// targets, using `scratch` (one all-zero tile, left all-zero).
///
/// For each tile and each role in ascending order, the role's rows are
/// added into the scratch in recording order, then the scratch's non-zero
/// values are added into the target and re-zeroed. Per pixel the target
/// therefore gains `Σ_r fold(role r's deposits)` in ascending role order —
/// one add per role that touched the pixel, whichever band or lane merges
/// it. Skipping zeros is bit-exact: `x + 0.0 == x` bitwise for every
/// non-negative `x`, and accumulated intensities are non-negative. The
/// work is proportional to the deposits: a tile no role deposits into is
/// never read.
///
/// With `host` (this band's share of a host-bound slot 0), slot 0's tiles
/// are written there instead: each tile is set to `+0.0` and takes the
/// same adds — the chain a zeroed device image sees, so the host holds the
/// bits a download of it would — tiles without deposits included, and its
/// chunk checksums are recorded when `host` carries any.
pub(crate) fn merge_band(
    roles: &[RoleDeposits],
    targets: &[&GlobalAtomicF32],
    band: usize,
    bands: usize,
    scratch: &mut [f32],
    mut host: Option<&mut HostBand<'_>>,
) {
    let total: usize = targets.iter().map(|t| t.len().div_ceil(MERGE_TILE)).sum();
    let (lo, hi) = band_tiles(total, band, bands);
    let mut first = 0usize;
    for (slot, target) in targets.iter().enumerate() {
        let tiles = target.len().div_ceil(MERGE_TILE);
        for t in lo.max(first)..hi.min(first + tiles) {
            let tile = t - first;
            let base = tile * MERGE_TILE;
            let (mut dst, sums) = match host.as_deref_mut() {
                Some(HostBand { start, vals, sums }) if slot == 0 => {
                    let at = base - *start;
                    let dst = &mut vals[at..at + MERGE_TILE.min(target.len() - base)];
                    dst.fill(0.0);
                    let sums = sums.get_mut(at / TRANSFER_CHUNK..).unwrap_or_default();
                    (Some(dst), sums)
                }
                _ => (None, Default::default()),
            };
            for role in roles {
                let (rows, vals) = role.tile(slot as u32, tile);
                let mut at = 0usize;
                for &(s, n) in rows {
                    let (s, n) = (s as usize, n as usize);
                    for (acc, &v) in scratch[s..s + n].iter_mut().zip(&vals[at..at + n]) {
                        *acc += v;
                    }
                    at += n;
                }
                for &(s, n) in rows {
                    let (s, n) = (s as usize, n as usize);
                    match dst.as_deref_mut() {
                        Some(dst) => drain_into(&mut dst[s..s + n], &mut scratch[s..s + n]),
                        None => target.merge_drain_range(base + s, &mut scratch[s..s + n]),
                    }
                }
            }
            if let Some(dst) = dst {
                for (sum, chunk) in sums.iter_mut().zip(dst.chunks(TRANSFER_CHUNK)) {
                    *sum = chunk_checksum(chunk);
                }
            }
        }
        first += tiles;
    }
}

/// Per-role deposit lists for `atomicAdd` target buffers.
///
/// Instead of CAS-looping on the shared [`GlobalAtomicF32`] from every
/// worker, each role (SM) of the batched executor records its deposits
/// into a private [`DepositList`] per target registered here. The role
/// seals its lists by merge tile ([`Self::seal_into`]) and the executor
/// merges the sealed lists into their targets, tile by tile in ascending
/// role order, once all workers have joined ([`merge_band`]). The order
/// each pixel sees is a function of the launch schedule alone, so the
/// result is deterministic; modeled atomic traffic is accounted
/// analytically by the kernel's `run_block`, unaffected by this host-side
/// strategy.
///
/// List storage is drawn from, and returned to, a [`BufferArena`] —
/// recycled across launches instead of reallocated, the zero-allocation
/// frame loop.
#[derive(Debug)]
pub struct ShadowSet<'k> {
    lists: Vec<(&'k GlobalAtomicF32, DepositList)>,
    arena: &'k BufferArena,
}

impl<'k> ShadowSet<'k> {
    /// An empty shadow set drawing storage from (and returning it to)
    /// `arena`.
    pub fn with_arena(arena: &'k BufferArena) -> Self {
        ShadowSet {
            lists: Vec::new(),
            arena,
        }
    }

    /// Deposits `v` at `buf[idx]`.
    #[inline]
    pub fn add(&mut self, buf: &'k GlobalAtomicF32, idx: usize, v: f32) {
        self.accumulator(buf).add(idx, v);
    }

    /// The deposit list for `buf`, drawn from the arena on first use.
    /// Buffers are identified by address; launches touch one or two, so
    /// the linear scan is free — but kernels should hoist this lookup out
    /// of per-pixel loops.
    #[inline]
    pub fn accumulator(&mut self, buf: &'k GlobalAtomicF32) -> &mut DepositList {
        if let Some(pos) = self.lists.iter().position(|(b, _)| std::ptr::eq(*b, buf)) {
            return &mut self.lists[pos].1;
        }
        self.lists.push((buf, self.arena.take()));
        &mut self.lists.last_mut().expect("just pushed").1
    }

    /// Seals every list into `out`, bucketed by merge tile — registering
    /// each target buffer in `targets` (by address) on first sight and
    /// referring to it by slot — then recycles the emptied lists into the
    /// arena.
    ///
    /// This is the batched executor's per-role step on the worker lane,
    /// right after the role's blocks; only target registration takes the
    /// shared lock.
    pub(crate) fn seal_into(
        self,
        targets: &Mutex<Vec<&'k GlobalAtomicF32>>,
        out: &mut RoleDeposits,
    ) {
        for (buf, mut list) in self.lists {
            let slot = {
                let mut targets = targets.lock().unwrap_or_else(|e| e.into_inner());
                targets
                    .iter()
                    .position(|t| std::ptr::eq(*t, buf))
                    .unwrap_or_else(|| {
                        targets.push(buf);
                        targets.len() - 1
                    })
            };
            out.seal(slot as u32, &mut list, buf.len());
            self.arena.put(list);
        }
    }
}

/// Runs [`merge_band`] for one lane with a tile scratch drawn from (and
/// returned drained to) `arena`.
pub(crate) fn merge_band_pooled(
    arena: &BufferArena,
    roles: &[RoleDeposits],
    targets: &[&GlobalAtomicF32],
    band: usize,
    bands: usize,
    host: Option<&mut HostBand<'_>>,
) {
    let mut scratch = arena.take();
    merge_band(
        roles,
        targets,
        band,
        bands,
        scratch.span_mut(0, MERGE_TILE),
        host,
    );
    // The merge leaves the scratch all-zero; empty it for recycling.
    scratch.clear();
    arena.put(scratch);
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
    use crate::memory::global::{chunk_checksums_host, AddressSpace};

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

    /// The executor's per-role seal followed by its post-join merge, as
    /// one role merged by one lane.
    fn seal_and_merge(shadow: ShadowSet<'_>) {
        let arena = shadow.arena;
        let targets = Mutex::new(Vec::new());
        let mut role = RoleDeposits::default();
        shadow.seal_into(&targets, &mut role);
        let targets = targets.into_inner().unwrap();
        merge_band_pooled(arena, &[role], &targets, 0, 1, None);
    }

    #[test]
    fn shadow_set_merges_into_targets() {
        let space = AddressSpace::new();
        let img = GlobalAtomicF32::from_host(&space, &[1.0, 2.0, 3.0]);
        let arena = BufferArena::new();
        let mut shadow = ShadowSet::with_arena(&arena);
        shadow.add(&img, 0, 0.5);
        shadow.add(&img, 2, 1.0);
        shadow.add(&img, 2, 1.0);
        seal_and_merge(shadow);
        assert_eq!(img.to_host(), vec![1.5, 2.0, 5.0]);
    }

    #[test]
    fn deposit_rows_merge_across_a_tile_boundary() {
        let space = AddressSpace::new();
        // Two merge tiles, so the first row straddles their boundary.
        let img = GlobalAtomicF32::zeroed(&space, 2 * MERGE_TILE);
        let arena = BufferArena::new();
        let mut shadow = ShadowSet::with_arena(&arena);
        let acc = shadow.accumulator(&img);
        let edge = MERGE_TILE - 4;
        for v in acc.span_mut(edge, edge + 10) {
            *v += 2.0;
        }
        acc.add(2 * MERGE_TILE - 1, 3.0);
        seal_and_merge(shadow);
        let host = img.to_host();
        for (i, &v) in host.iter().enumerate() {
            let expect = if (edge..edge + 10).contains(&i) {
                2.0
            } else if i == 2 * MERGE_TILE - 1 {
                3.0
            } else {
                0.0
            };
            assert_eq!(v, expect, "pixel {i}");
        }
    }

    #[test]
    fn add_extends_contiguous_rows_only() {
        let arena = BufferArena::new();
        let mut list = arena.take();
        list.add(5, 1.0);
        list.add(6, 1.0);
        list.span_mut(7, 9).fill(1.0);
        list.add(9, 1.0);
        list.add(9, 1.0);
        list.span_mut(3, 3);
        assert_eq!(list.rows, vec![(5, 2), (7, 3), (9, 1)]);
        assert_eq!(list.vals.len(), 6);
    }

    #[test]
    fn arena_recycles_drained_buffers() {
        let space = AddressSpace::new();
        let img = GlobalAtomicF32::zeroed(&space, 256);
        let arena = BufferArena::new();
        {
            let mut shadow = ShadowSet::with_arena(&arena);
            shadow.add(&img, 7, 1.0);
            seal_and_merge(shadow);
        }
        // The role's list, reused as the lane's merge scratch.
        assert_eq!(arena.pooled(), 1, "sealing and merging return the buffer");
        {
            // Second use draws the recycled (drained) buffers; the merged
            // result must be indistinguishable from fresh allocations.
            let mut shadow = ShadowSet::with_arena(&arena);
            shadow.add(&img, 7, 1.0);
            shadow.add(&img, 255, 4.0);
            seal_and_merge(shadow);
        }
        assert_eq!(arena.pooled(), 1);
        assert_eq!(img.read(7), 2.0);
        assert_eq!(img.read(255), 4.0);
    }

    #[test]
    fn arena_recycles_buffers_across_target_sizes() {
        let space = AddressSpace::new();
        let small = GlobalAtomicF32::zeroed(&space, 8);
        let big = GlobalAtomicF32::zeroed(&space, 4096);
        let arena = BufferArena::new();
        let mut shadow = ShadowSet::with_arena(&arena);
        shadow.add(&small, 3, 1.0);
        seal_and_merge(shadow);
        let mut shadow = ShadowSet::with_arena(&arena);
        shadow.add(&big, 4095, 2.0);
        seal_and_merge(shadow);
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
            seal_and_merge(shadow);
            // Injected corruption, as the executor injects it: the drained
            // buffer comes back non-drained.
            let mut list = arena.take();
            list.poison();
            arena.put(list);
        }
        assert_eq!(arena.pooled(), 0, "corrupted buffer must not be pooled");
        assert_eq!(arena.dropped(), 1);
        assert_eq!(img.read(7), 1.0, "the merge itself stays correct");

        // The next launch allocates fresh and the frame stays clean.
        let mut shadow = ShadowSet::with_arena(&arena);
        shadow.add(&img, 7, 1.0);
        seal_and_merge(shadow);
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
        let mut stale = DepositList::default();
        stale.span_mut(0, 32).fill(9.0);
        arena
            .free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(stale);
        let list = arena.take();
        assert!(list.is_drained(), "take must hand out a clean buffer");
        assert_eq!(arena.dropped(), 1);
        assert_eq!(arena.pooled(), 0);
    }

    /// A seeded xorshift stream for the differential merge test.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    #[test]
    fn tile_merge_matches_a_dense_fold_in_role_order() {
        // Target lengths that are not multiples of the tile, one of them
        // shorter than a tile.
        let lens = [3 * MERGE_TILE + 1234, 777];
        let roles = 5;
        let space = AddressSpace::new();
        let init: Vec<Vec<f32>> = lens
            .iter()
            .map(|&n| (0..n).map(|i| (i % 3) as f32 * 0.5).collect())
            .collect();
        // Deposits per role, per target: (index, value) in recording order.
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let mut plan: Vec<Vec<Vec<(usize, f32)>>> = vec![vec![Vec::new(); lens.len()]; roles];
        // Each role's recording, as a list of (target, row start, values).
        let mut recs: Vec<Vec<(usize, usize, Vec<f32>)>> = vec![Vec::new(); roles];
        for (r, rec) in recs.iter_mut().enumerate() {
            // A row straddling the first tile boundary.
            rec.push((0, MERGE_TILE - 3, vec![0.25 + r as f32; 7]));
            // Two overlapping rows from one role.
            rec.push((0, 100, vec![1.0 / 3.0; 10]));
            rec.push((0, 104, vec![0.1; 10]));
            // An empty row and zero-valued deposits.
            rec.push((0, 500, Vec::new()));
            rec.push((0, 600, vec![0.0; 4]));
            // The tail of a target whose length is not a tile multiple.
            rec.push((0, lens[0] - 5, vec![0.7; 5]));
            for _ in 0..200 {
                let t = rng.below(lens.len());
                let n = 1 + rng.below(12);
                let start = rng.below(lens[t] - n + 1);
                let vals = (0..n).map(|_| (rng.below(1000) as f32) / 97.0).collect();
                rec.push((t, start, vals));
            }
            // Single-value deposits, some contiguous with the last row.
            for _ in 0..50 {
                let t = rng.below(lens.len());
                let i = rng.below(lens[t]);
                rec.push((t, i, vec![(rng.below(100) as f32) / 7.0]));
            }
        }
        for (r, rec) in recs.iter().enumerate() {
            for (t, start, vals) in rec {
                for (k, &v) in vals.iter().enumerate() {
                    plan[r][*t].push((start + k, v));
                }
            }
        }
        // The naive dense reference: per role, a zeroed image folded in
        // recording order, then added into the target in role order
        // (zeros skipped).
        let fold = |init: &[Vec<f32>]| {
            let mut want = init.to_vec();
            for role_plan in &plan {
                for (t, deposits) in role_plan.iter().enumerate() {
                    let mut dense = vec![0.0f32; lens[t]];
                    for &(i, v) in deposits {
                        dense[i] += v;
                    }
                    for (w, &d) in want[t].iter_mut().zip(&dense) {
                        if d != 0.0 {
                            *w += d;
                        }
                    }
                }
            }
            want
        };
        let want = fold(&init);
        // Bound to the host, target 0 is folded from zero instead.
        let want_host = fold(&[vec![0.0; lens[0]], init[1].clone()]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (bands, host_bound) in [1, 2, 3, 7]
            .into_iter()
            .flat_map(|b| [(b, false), (b, true)])
        {
            let targets: Vec<GlobalAtomicF32> = init
                .iter()
                .map(|v| GlobalAtomicF32::from_host(&space, v))
                .collect();
            let arena = BufferArena::new();
            let table = Mutex::new(if host_bound {
                vec![&targets[0]]
            } else {
                Vec::new()
            });
            let mut sealed: Vec<RoleDeposits> = Vec::new();
            for (r, rec) in recs.iter().enumerate() {
                let mut shadow = ShadowSet::with_arena(&arena);
                // Roles register the two targets in opposite orders.
                let order: Vec<usize> = if r % 2 == 0 { vec![0, 1] } else { vec![1, 0] };
                for &t in &order {
                    shadow.accumulator(&targets[t]);
                }
                for (t, start, vals) in rec {
                    let acc = shadow.accumulator(&targets[*t]);
                    if vals.len() == 1 {
                        acc.add(*start, vals[0]);
                    } else {
                        for (slot, &v) in acc
                            .span_mut(*start, start + vals.len())
                            .iter_mut()
                            .zip(vals)
                        {
                            *slot += v;
                        }
                    }
                }
                let mut out = RoleDeposits::default();
                shadow.seal_into(&table, &mut out);
                sealed.push(out);
            }
            let table = table.into_inner().unwrap();
            // A host-bound target 0 lands in a NaN-filled host buffer,
            // every value of which the merge must overwrite.
            let mut host = vec![f32::NAN; lens[0]];
            let mut sums = vec![0u64; lens[0].div_ceil(TRANSFER_CHUNK)];
            let total = table.iter().map(|t| t.len().div_ceil(MERGE_TILE)).sum();
            let shares = host_bound.then(|| host_bands(&mut host, &mut sums, total, bands));
            for band in 0..bands {
                let mut share = shares.as_ref().map(|s| s[band].lock().unwrap());
                merge_band_pooled(&arena, &sealed, &table, band, bands, share.as_deref_mut());
            }
            drop(shares);
            let label = format!("{bands} bands, host-bound {host_bound}");
            if host_bound {
                assert!(bits(&host) == bits(&want_host[0]), "host differs: {label}");
                assert_eq!(sums, chunk_checksums_host(&host, TRANSFER_CHUNK), "{label}");
                assert_eq!(targets[0].to_host(), init[0], "device untouched: {label}");
                assert!(
                    bits(&targets[1].to_host()) == bits(&want_host[1]),
                    "{label}"
                );
            } else {
                for (t, target) in targets.iter().enumerate() {
                    let got = bits(&target.to_host());
                    assert!(got == bits(&want[t]), "target {t} differs: {label}");
                }
            }
            assert_eq!(arena.dropped(), 0);
        }
    }
}
