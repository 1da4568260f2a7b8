//! The virtual GPU: device object, memory management, and kernel launches.
//!
//! Blocks are scheduled the way Fermi's GigaThread engine does it to first
//! order: block `b` runs on SM `b mod sm_count`, and each virtual SM
//! processes its blocks in issue order. The executor parallelizes over
//! *SMs* (not blocks), which keeps every per-SM structure — notably the
//! texture cache — free of cross-thread interleaving, so counter results
//! are deterministic regardless of how many host cores run the simulation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::analyze::{KernelReport, LintLevel};
use crate::counters::{Counters, SharedCounters};
use crate::device::DeviceSpec;
#[cfg(test)]
use crate::dim::Dim3;
use crate::error::GpuError;
use crate::fault::{ArmedFaults, FaultKind, FaultPlan};
use crate::kernel::{
    host_bands, merge_band_pooled, BlockCtx, BufferArena, Event, Kernel, RoleDeposits, ShadowSet,
    ThreadCtx, MERGE_TILE,
};
use crate::launch::LaunchConfig;
use crate::memory::cache::CacheSim;
use crate::memory::global::{chunk_checksums_host, AddressSpace, GlobalAtomicF32, GlobalBuffer};
use crate::memory::shared::SharedMem;
use crate::memory::texture::Texture;
use crate::memory::transfer::{MemcpyKind, TransferModel};
use crate::pool::{
    default_workers, spawn_parallel_for, spawn_parallel_for_static, PoolTimeout, WorkerPool,
};
use crate::profiler::{KernelProfile, UtilizationSink};
use crate::sanitize::{
    self, Access, AccessKind, Finding, FindingKind, LaneHooks, SanitizeConfig, SanitizeReport,
    SmSan,
};
use crate::telemetry::{now_us, GpuTelemetry, LaunchTrace};
use crate::timing::{kernel_time, occupancy, CostModel};
use crate::warp::analyze_warp;

/// Host wall-clock stamps the executors record for one launch (dispatch
/// window, and for the batched path the deposit-merge window). `Cell`s:
/// only the launching thread writes them.
#[derive(Default)]
struct LaunchStamps {
    dispatch_start: std::cell::Cell<u64>,
    dispatch_end: std::cell::Cell<u64>,
    merge_start: std::cell::Cell<u64>,
    merge_end: std::cell::Cell<u64>,
}

impl LaunchStamps {
    fn window(start: u64, end: u64) -> Option<(u64, u64)> {
        (end > 0 && end >= start).then_some((start, end))
    }

    fn dispatch(&self) -> Option<(u64, u64)> {
        Self::window(self.dispatch_start.get(), self.dispatch_end.get())
    }

    fn merge(&self) -> Option<(u64, u64)> {
        Self::window(self.merge_start.get(), self.merge_end.get())
    }
}

/// Values per transfer-verification chunk (16 KiB of `f32`): coarse enough
/// that the checksum pass is a small fraction of the copy it guards, fine
/// enough that a corruption report localizes the damage.
pub(crate) const TRANSFER_CHUNK: usize = 4096;

/// How the executor runs a launch on the host.
///
/// All three modes produce identical counters and identical modeled times
/// at any worker count. Images differ in how reproducible they are:
///
/// * `Batched` images are bit-identical run to run. At two or more
///   workers they are the same bits for every worker count (role outputs
///   merge in ascending role order) and within f32-reassociation distance
///   of `Reference`; at one worker they equal `Reference`'s one-worker
///   image bit for bit.
/// * `Reference` and `Sanitized` deposit through contended CAS float
///   atomics, so at more than one worker the order of additions — and so
///   the low bits of some pixels — depends on host thread scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Per-thread interpretation with event traces fed through the warp
    /// analyzer — the semantic ground truth. Slow but fully general.
    Reference,
    /// Block-batched fast path: kernels that implement
    /// [`Kernel::run_block`] process a whole block per call with analytic
    /// counter accounting and per-role image privatization; kernels that
    /// don't are executed block-by-block on the reference path inside the
    /// same schedule.
    #[default]
    Batched,
    /// The reference path with the sanitizer attached: every memory access
    /// feeds shadow access sets (racecheck / synccheck / memcheck per the
    /// device's [`SanitizeConfig`]), out-of-bounds accesses are reported
    /// instead of faulting, and each launch appends a [`SanitizeReport`]
    /// drained via [`VirtualGpu::take_sanitize_reports`]. Functional
    /// outputs, counters, and modeled times stay bit-identical to
    /// [`ExecMode::Reference`] on defect-free kernels.
    Sanitized,
}

impl ExecMode {
    /// Parses the CLI spelling (`"reference"` / `"batched"` /
    /// `"sanitized"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "reference" => Some(ExecMode::Reference),
            "batched" => Some(ExecMode::Batched),
            "sanitized" => Some(ExecMode::Sanitized),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExecMode::Reference => "reference",
            ExecMode::Batched => "batched",
            ExecMode::Sanitized => "sanitized",
        }
    }
}

/// A virtual GPU device.
///
/// The device owns every resource with a device lifetime: the persistent
/// [`WorkerPool`] (one pool serves all launches; the only scheduler — spawn
/// dispatch is reachable solely as the retry ladder's rung 1 through
/// [`VirtualGpu::set_dispatch_override`]), the per-SM texture cache
/// simulators (reset, not rebuilt, per launch), and the [`BufferArena`]
/// recycling the batched executor's deposit lists and merge scratch
/// across launches. The frame loop therefore performs no per-launch
/// allocations proportional to the image or the cache.
#[derive(Debug)]
pub struct VirtualGpu {
    spec: DeviceSpec,
    cost: CostModel,
    transfer: TransferModel,
    space: AddressSpace,
    workers: usize,
    exec_mode: ExecMode,
    /// Persistent worker pool. Behind a mutex so a watchdog-poisoned pool
    /// can be torn down and rebuilt at the next launch through `&self`
    /// (the launch gate serializes access).
    pool: Mutex<WorkerPool>,
    /// Per-launch escape hatch: when set, dispatch bypasses the pool and
    /// spawns scoped threads — the degradation ladder's first rung, usable
    /// through `&self` mid-frame.
    spawn_override: AtomicBool,
    /// Injected-fault schedule (chaos testing); `None` in production.
    fault: Option<Arc<FaultPlan>>,
    /// Watchdog deadline for pooled launches; `None` = wait forever.
    watchdog: Option<Duration>,
    /// Resilience diagnostics (see [`GpuDiagnostics`]).
    pool_rebuilds: AtomicU64,
    checksum_catches: AtomicU64,
    panics_caught: AtomicU64,
    timeouts: AtomicU64,
    /// Pre-launch advisor invocations ([`Self::advise_launch`]) — lets
    /// callers assert the static analyzer ran once at session setup and
    /// never on the frame hot path.
    advises: AtomicU64,
    /// Persistent per-SM texture caches ([`Self::launch_mode`] resets them
    /// at launch entry, so every launch still starts cold exactly like a
    /// freshly-built cache). Each SM is processed by one worker at a time;
    /// the mutex exists to satisfy `Sync`.
    caches: Vec<Mutex<CacheSim>>,
    /// Serializes launches: the persistent caches and arena are device
    /// state, like a CUDA stream-0 queue.
    launch_gate: Mutex<()>,
    /// Recycled deposit lists and merge scratch for the batched executor.
    arena: BufferArena,
    /// Recycled per-role sealed deposits for the batched executor's merge
    /// (capacity persists across launches — the zero-allocation frame
    /// loop). Guarded by the launch gate like the arena; the mutex
    /// satisfies `Sync`.
    deposits_pool: Mutex<Vec<RoleDeposits>>,
    /// Telemetry sink; `None` (the default) keeps every launch free of
    /// trace recording and lane-event drains.
    telemetry: Option<Arc<GpuTelemetry>>,
    /// Per-device utilization accumulator; `None` (the default) skips
    /// the per-launch fold entirely.
    utilization: Option<Arc<UtilizationSink>>,
    /// Sequence number for traced launches.
    launch_seq: AtomicU64,
    /// Sanitizer configuration; only consulted by [`ExecMode::Sanitized`]
    /// launches and the per-launch arena use-after-recycle screen, so the
    /// disabled-mode cost is two relaxed atomic loads per launch.
    san_config: SanitizeConfig,
    /// Sanitizer reports accumulated since the last
    /// [`Self::take_sanitize_reports`] drain (bounded backlog).
    san_reports: Mutex<Vec<SanitizeReport>>,
    /// Monotone launch id stamped into sanitizer reports.
    san_seq: AtomicU64,
}

/// Undrained sanitizer reports kept per device; older reports are evicted
/// first, so a long chaos run without drains cannot grow without bound.
const SAN_REPORT_BACKLOG: usize = 1024;

/// Upper bound on recycled per-role sealed deposits — one per SM of the
/// widest device shape plus slack, mirroring the arena's cap.
const DEPOSITS_POOL_CAP: usize = 64;

/// Counters of resilience events on a device, all monotone since device
/// construction. Zero across the board in a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuDiagnostics {
    /// Watchdog-poisoned pools torn down and rebuilt at launch entry.
    pub pool_rebuilds: u64,
    /// Transfers failed by the per-chunk checksum.
    pub checksum_catches: u64,
    /// Worker panics converted into [`GpuError::WorkerPanic`].
    pub panics_caught: u64,
    /// Launches abandoned as [`GpuError::LaunchTimeout`].
    pub timeouts: u64,
    /// Corrupted deposit buffers dropped by the arena instead of recycled.
    pub arena_drops: u64,
}

impl GpuDiagnostics {
    /// Adds `other`'s counters into `self` — fleet aggregation over many
    /// devices (e.g. a server folding per-session snapshots into one
    /// monitoring total).
    pub fn absorb(&mut self, other: &GpuDiagnostics) {
        self.pool_rebuilds += other.pool_rebuilds;
        self.checksum_catches += other.checksum_catches;
        self.panics_caught += other.panics_caught;
        self.timeouts += other.timeouts;
        self.arena_drops += other.arena_drops;
    }

    /// The counter delta since `earlier` (saturating, so a stale or
    /// mismatched snapshot yields zeros rather than wrap-around noise).
    pub fn since(&self, earlier: &GpuDiagnostics) -> GpuDiagnostics {
        GpuDiagnostics {
            pool_rebuilds: self.pool_rebuilds.saturating_sub(earlier.pool_rebuilds),
            checksum_catches: self
                .checksum_catches
                .saturating_sub(earlier.checksum_catches),
            panics_caught: self.panics_caught.saturating_sub(earlier.panics_caught),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            arena_drops: self.arena_drops.saturating_sub(earlier.arena_drops),
        }
    }

    /// Sum of all counters — a quick "anything happened?" predicate.
    pub fn total(&self) -> u64 {
        self.pool_rebuilds
            + self.checksum_catches
            + self.panics_caught
            + self.timeouts
            + self.arena_drops
    }
}

impl VirtualGpu {
    /// A device with the given spec, Fermi cost constants, PCIe-2 transfer
    /// model, and one worker per host core (never more than the device has
    /// SMs — the executor parallelizes over SMs, so extra workers would
    /// only park).
    pub fn new(spec: DeviceSpec) -> Self {
        let workers = default_workers().min(spec.sm_count as usize).max(1);
        let caches = Self::build_caches(&spec);
        VirtualGpu {
            spec,
            cost: CostModel::fermi(),
            transfer: TransferModel::pcie2(),
            space: AddressSpace::new(),
            workers,
            exec_mode: ExecMode::default(),
            // `workers` is already ≤ the host's core count here, so this
            // matches `pool_lanes` (which only bites after `with_workers`).
            pool: Mutex::new(WorkerPool::new(workers)),
            spawn_override: AtomicBool::new(false),
            fault: None,
            watchdog: None,
            pool_rebuilds: AtomicU64::new(0),
            checksum_catches: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            advises: AtomicU64::new(0),
            caches,
            launch_gate: Mutex::new(()),
            arena: BufferArena::new(),
            deposits_pool: Mutex::new(Vec::new()),
            telemetry: None,
            utilization: None,
            launch_seq: AtomicU64::new(0),
            san_config: SanitizeConfig::default(),
            san_reports: Mutex::new(Vec::new()),
            san_seq: AtomicU64::new(0),
        }
    }

    /// The paper's GTX480.
    pub fn gtx480() -> Self {
        VirtualGpu::new(DeviceSpec::gtx480())
    }

    /// One cold texture-cache simulator per SM: the device texture-cache
    /// budget shared evenly across SMs, rounded down to a whole number of
    /// sets.
    fn build_caches(spec: &DeviceSpec) -> Vec<Mutex<CacheSim>> {
        let per_sm_bytes = spec.tex_cache_per_sm_bytes();
        (0..spec.sm_count as usize)
            .map(|_| {
                Mutex::new(CacheSim::new(
                    per_sm_bytes,
                    spec.tex_cache_line,
                    spec.tex_cache_ways,
                ))
            })
            .collect()
    }

    /// Overrides the host worker count (functional parallelism only; has no
    /// effect on modeled times or counters). Values beyond the device's SM
    /// count are clamped with a warning — the executor parallelizes over
    /// SMs, so surplus workers would never receive work. Rebuilds the
    /// worker pool at the new width.
    pub fn with_workers(mut self, workers: usize) -> Self {
        let sm_count = self.spec.sm_count as usize;
        let mut workers = workers.max(1);
        if workers > sm_count {
            eprintln!(
                "starsim: warning: {workers} workers requested but the device has \
                 {sm_count} SMs; clamping to {sm_count}"
            );
            workers = sm_count;
        }
        self.workers = workers;
        self.pool = Mutex::new(self.fresh_pool());
        self
    }

    /// A pool at [`Self::pool_lanes`] width whose lane rings record exactly
    /// when a telemetry sink is attached — the one way the device builds
    /// or rebuilds its pool, so no rebuild can drop the recording gate.
    fn fresh_pool(&self) -> WorkerPool {
        let pool = WorkerPool::new(self.pool_lanes());
        pool.set_telemetry(self.telemetry.is_some());
        pool
    }

    /// Lanes the persistent pool should hold: one per worker, but never
    /// more than the host has cores — surplus lanes cannot add parallelism
    /// and each one costs a wake/park handshake and a context switch per
    /// launch. Role virtualization keeps the index → worker mapping (and
    /// therefore images, counters, and modeled times) bit-identical at any
    /// lane count, so the cap is purely a host-scheduling choice. A floor
    /// of two lanes (when the caller asked for ≥ 2 workers) keeps the
    /// watchdog, injected-stall, and lane-telemetry machinery live even on
    /// a single-core host — those paths need a real worker lane to fence.
    fn pool_lanes(&self) -> usize {
        self.workers.min(default_workers().max(2)).max(1)
    }

    /// Buffers currently pooled in the shadow arena (diagnostics).
    pub fn arena_pooled(&self) -> usize {
        self.arena.pooled()
    }

    /// Attaches a deterministic fault-injection schedule (chaos testing).
    /// [`FaultPlan::none`] keeps all resilience plumbing active at
    /// negligible cost (one atomic increment per launch, no transfer
    /// verification).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Arms a watchdog on pooled launches: a generation not finished within
    /// `deadline` (measured after the launching thread's own share of the
    /// work) is abandoned as [`GpuError::LaunchTimeout`], the pool is
    /// poisoned, and the next launch rebuilds it.
    pub fn with_watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog = Some(deadline);
        self
    }

    /// Forces (or releases) spawn dispatch for subsequent launches without
    /// rebuilding the device — the degradation ladder's first rung: fresh
    /// scoped threads per launch, bit-identical to pooled dispatch.
    pub fn set_dispatch_override(&self, spawn: bool) {
        self.spawn_override.store(spawn, Ordering::Relaxed);
    }

    /// Attaches a telemetry sink: every subsequent launch records a
    /// [`LaunchTrace`] (start/end, dispatch and merge windows, drained
    /// per-lane events) into it. See also [`Self::set_telemetry`].
    pub fn with_telemetry(mut self, sink: Arc<GpuTelemetry>) -> Self {
        self.set_telemetry(Some(sink));
        self
    }

    /// Attaches or detaches the telemetry sink, propagating the recording
    /// gate to the worker pool's lane rings.
    pub fn set_telemetry(&mut self, sink: Option<Arc<GpuTelemetry>>) {
        self.pool
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .set_telemetry(sink.is_some());
        self.telemetry = sink;
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&Arc<GpuTelemetry>> {
        self.telemetry.as_ref()
    }

    /// Attaches a utilization accumulator: every subsequent launch folds
    /// its modeled profile (occupancy, cycle breakdown, cache/memory
    /// counters) into the shared
    /// [`DeviceUtilization`](crate::DeviceUtilization) aggregate. All
    /// inputs are modeled, so the aggregate is bit-identical across host
    /// worker counts for the same workload.
    pub fn with_utilization(mut self, sink: Arc<UtilizationSink>) -> Self {
        self.utilization = Some(sink);
        self
    }

    /// Attaches or detaches the utilization accumulator.
    pub fn set_utilization(&mut self, sink: Option<Arc<UtilizationSink>>) {
        self.utilization = sink;
    }

    /// The attached utilization accumulator, if any.
    pub fn utilization(&self) -> Option<&Arc<UtilizationSink>> {
        self.utilization.as_ref()
    }

    /// Resilience event counters (monotone since construction).
    pub fn diagnostics(&self) -> GpuDiagnostics {
        GpuDiagnostics {
            pool_rebuilds: self.pool_rebuilds.load(Ordering::Relaxed),
            checksum_catches: self.checksum_catches.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            arena_drops: self.arena.dropped(),
        }
    }

    /// Overrides the sanitizer configuration (which checks run in
    /// [`ExecMode::Sanitized`] launches, report and access caps).
    pub fn with_sanitize_config(mut self, cfg: SanitizeConfig) -> Self {
        self.san_config = cfg;
        self
    }

    /// The sanitizer configuration in effect.
    pub fn sanitize_config(&self) -> &SanitizeConfig {
        &self.san_config
    }

    /// Drains accumulated sanitizer reports: one per
    /// [`ExecMode::Sanitized`] launch, plus arena use-after-recycle
    /// reports from launches in any mode.
    pub fn take_sanitize_reports(&self) -> Vec<SanitizeReport> {
        std::mem::take(&mut *self.san_reports.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Appends a report, evicting the oldest past the backlog bound.
    fn push_sanitize_report(&self, report: SanitizeReport) {
        let mut reports = self.san_reports.lock().unwrap_or_else(|e| e.into_inner());
        if reports.len() >= SAN_REPORT_BACKLOG {
            reports.remove(0);
        }
        reports.push(report);
    }

    /// Overrides the cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Overrides the transfer model.
    pub fn with_transfer_model(mut self, transfer: TransferModel) -> Self {
        self.transfer = transfer;
        self
    }

    /// Overrides the default execution mode used by [`Self::launch`].
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Execution mode used by [`Self::launch`].
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Transfer model in use.
    pub fn transfer_model(&self) -> &TransferModel {
        &self.transfer
    }

    /// Uploads host data to a device buffer; returns the buffer and the
    /// modeled host→device copy time in seconds.
    pub fn upload<T: Copy>(&self, data: Vec<T>) -> (GlobalBuffer<T>, f64) {
        let bytes = std::mem::size_of::<T>() * data.len();
        let t = self.transfer.time(MemcpyKind::HostToDevice, bytes);
        (GlobalBuffer::from_host(&self.space, data), t)
    }

    /// [`Self::upload`] through the fault plan: an [`FaultKind::AllocOom`]
    /// spec bound to the upcoming launch surfaces here as
    /// [`GpuError::OutOfMemory`]. Identical to `upload` without a plan.
    pub fn try_upload<T: Copy>(&self, data: Vec<T>) -> Result<(GlobalBuffer<T>, f64), GpuError> {
        self.take_upload_fault(std::mem::size_of::<T>() * data.len())?;
        Ok(self.upload(data))
    }

    /// Consults the fault plan for an [`FaultKind::AllocOom`] spec bound
    /// to the upcoming launch, as [`Self::try_upload`] would before
    /// copying `requested` bytes. The pipelined frame loop uploads star
    /// data ahead of time on a producer stage and calls this just before
    /// the launch instead, so fault coordinates stay serialized in launch
    /// order exactly as in the sequential loop.
    pub fn take_upload_fault(&self, requested: usize) -> Result<(), GpuError> {
        if let Some(plan) = &self.fault {
            if plan
                .take(FaultKind::AllocOom, plan.upcoming_launch())
                .is_some()
            {
                return Err(GpuError::OutOfMemory {
                    requested,
                    available: 0,
                    space: "global",
                });
            }
        }
        Ok(())
    }

    /// Allocates a zero-filled atomic f32 device buffer (e.g. the output
    /// image; zeroing is a `cudaMemset`, modeled as free).
    pub fn alloc_atomic_f32(&self, len: usize) -> GlobalAtomicF32 {
        GlobalAtomicF32::zeroed(&self.space, len)
    }

    /// Uploads host floats into an atomic device buffer; returns the buffer
    /// and the modeled copy time.
    pub fn upload_atomic_f32(&self, host: &[f32]) -> (GlobalAtomicF32, f64) {
        let t = self.transfer.time(MemcpyKind::HostToDevice, host.len() * 4);
        (GlobalAtomicF32::from_host(&self.space, host), t)
    }

    /// Downloads an atomic device buffer to the host; returns the data and
    /// the modeled device→host copy time.
    pub fn download(&self, buf: &GlobalAtomicF32) -> (Vec<f32>, f64) {
        (buf.to_host(), self.d2h_time(buf))
    }

    /// [`Self::download`] through the fault plan and (when the plan demands
    /// it) per-chunk checksum verification.
    pub fn try_download(&self, buf: &GlobalAtomicF32) -> Result<(Vec<f32>, f64), GpuError> {
        let mut out = Vec::new();
        let t = self.verified_download(buf, &mut out, false)?;
        Ok((out, t))
    }

    /// The modeled device→host copy time of `buf` — the whole buffer,
    /// however the host side of the copy is carried out.
    fn d2h_time(&self, buf: &GlobalAtomicF32) -> f64 {
        self.transfer
            .time(MemcpyKind::DeviceToHost, buf.size_bytes())
    }

    /// The fault plan, when it asks for transfers to be verified.
    fn transfer_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_deref().filter(|p| p.verify_transfers())
    }

    /// Shared verified-download path; `take` also zeroes the device buffer
    /// once the copy is known good, so a persistent device image can serve
    /// the next frame without reallocating (`cudaMemset` is modeled as
    /// free). Verification only runs when the fault plan contains transfer
    /// faults ([`FaultPlan::verify_transfers`]), so `FaultPlan::none()`
    /// downloads at full speed. A failed check leaves the device data
    /// intact.
    fn verified_download(
        &self,
        buf: &GlobalAtomicF32,
        out: &mut Vec<f32>,
        take: bool,
    ) -> Result<f64, GpuError> {
        let t = self.d2h_time(buf);
        let Some(plan) = self.transfer_plan() else {
            if take {
                buf.take_to_host(out);
            } else {
                buf.to_host_into(out);
            }
            return Ok(t);
        };
        let device_sums = buf.chunk_checksums(TRANSFER_CHUNK);
        buf.to_host_into(out);
        self.check_transfer(plan, &device_sums, out)?;
        if take {
            buf.fill_zero();
        }
        Ok(t)
    }

    /// The verification step of a transfer whose device side checksummed
    /// to `device_sums`: injects the plan's corruption for the last launch
    /// — one flipped mantissa bit in the chunk the spec names, after the
    /// copy but before verification, exactly where a real in-flight
    /// corruption would land — then compares the host copy chunk by
    /// chunk.
    fn check_transfer(
        &self,
        plan: &FaultPlan,
        device_sums: &[u64],
        out: &mut [f32],
    ) -> Result<(), GpuError> {
        if let Some(spec) = plan
            .completed_launch()
            .and_then(|l| plan.take(FaultKind::TransferCorrupt, l))
        {
            if !out.is_empty() {
                let idx = (spec.lane * TRANSFER_CHUNK) % out.len();
                out[idx] = f32::from_bits(out[idx].to_bits() ^ 0x0008_0000);
            }
        }
        let host_sums = chunk_checksums_host(out, TRANSFER_CHUNK);
        if let Some(chunk) = device_sums.iter().zip(&host_sums).position(|(d, h)| d != h) {
            self.checksum_catches.fetch_add(1, Ordering::Relaxed);
            return Err(GpuError::TransferCorrupted { chunk });
        }
        Ok(())
    }

    /// Binds a layered 2-D texture: models the upload plus the bind call.
    /// Returns `(texture, upload_time, bind_time)`. The texture carries its
    /// whole-layer footprint for this device's texture-cache line size
    /// ([`Texture::with_layer_footprint`]), so fast paths can replay a
    /// layer fetch on the per-SM cache in one step.
    pub fn bind_texture(
        &self,
        width: usize,
        height: usize,
        layers: usize,
        data: Vec<f32>,
    ) -> Result<(Texture, f64, f64), GpuError> {
        if let Some(plan) = &self.fault {
            if plan.take_any(FaultKind::TextureBindFail).is_some() {
                return Err(GpuError::TextureBind("injected bind failure".into()));
            }
        }
        let bytes = data.len() * 4;
        let tex = Texture::bind(
            &self.space,
            width,
            height,
            layers,
            data,
            self.spec.texture_mem_bytes,
        )?
        .with_layer_footprint(self.spec.tex_cache_line);
        let upload = self.transfer.time(MemcpyKind::HostToDevice, bytes);
        Ok((tex, upload, self.cost.tex_bind_overhead_s))
    }

    /// Pre-launch advisor: statically analyzes `kernel` under `cfg` on
    /// this device (see [`crate::analyze`]) **without launching it** and
    /// without touching any launch state — no gate, no caches, no pool.
    /// Deny-level findings reject the launch shape with
    /// [`GpuError::InvalidLaunch`]; otherwise the full [`KernelReport`]
    /// is returned for the caller to log or export.
    ///
    /// This is deliberately *not* wired into [`Self::launch`]: the advisor
    /// is meant to run once at session setup, keeping the per-frame hot
    /// path overhead at exactly zero. [`Self::advise_count`] lets tests
    /// assert that.
    pub fn advise_launch<K: Kernel>(
        &self,
        name: &str,
        kernel: &K,
        cfg: &LaunchConfig,
    ) -> Result<KernelReport, GpuError> {
        self.advises.fetch_add(1, Ordering::Relaxed);
        let report = crate::analyze::analyze_kernel(name, kernel, cfg, &self.spec)?;
        if report.has_deny() {
            let denies: Vec<String> = report
                .lints
                .iter()
                .filter(|l| l.level == LintLevel::Deny)
                .map(|l| format!("{}: {}", l.code, l.message))
                .collect();
            return Err(GpuError::InvalidLaunch(format!(
                "static analysis denied launch of `{name}`: {}",
                denies.join("; ")
            )));
        }
        Ok(report)
    }

    /// How many times [`Self::advise_launch`] has run on this device.
    pub fn advise_count(&self) -> u64 {
        self.advises.load(Ordering::Relaxed)
    }

    /// Launches a kernel in the device's configured [`ExecMode`]:
    /// functionally executes every thread and returns the modeled
    /// [`KernelProfile`].
    pub fn launch<K: Kernel>(
        &self,
        name: &str,
        kernel: &K,
        cfg: LaunchConfig,
    ) -> Result<KernelProfile, GpuError> {
        self.launch_mode(name, kernel, cfg, self.exec_mode)
    }

    /// Launches a kernel in an explicit [`ExecMode`], overriding the
    /// device default for this launch only.
    pub fn launch_mode<K: Kernel>(
        &self,
        name: &str,
        kernel: &K,
        cfg: LaunchConfig,
        mode: ExecMode,
    ) -> Result<KernelProfile, GpuError> {
        Ok(self.launch_bound(name, kernel, cfg, mode, None)?.0)
    }

    /// Launches a kernel that renders into `image` and hands the frame to
    /// `host` (resized to the image's length): the frame loop's one launch
    /// entry point. The returned [`FrameDownload`] is the transfer step;
    /// the frame is complete on the host once
    /// [`FrameDownload::finish`] succeeds.
    ///
    /// An [`ExecMode::Batched`] launch whose blocks all ran their
    /// [`Kernel::run_block`] fast path writes the frame straight into
    /// `host`: each merge lane sets its tiles of the image to `+0.0` and
    /// adds the roles' folds into them — the chain of adds a zeroed device
    /// image sees, so the pixels are bit-identical to a launch followed by
    /// a download — and `image` itself is never written. When the plan
    /// verifies transfers, the lanes also checksum the chunks they write.
    ///
    /// Three cases leave the frame in `image` instead and finish with the
    /// verified download that zeroes it again: [`ExecMode::Reference`] and
    /// [`ExecMode::Sanitized`] launches (their threads add into the device
    /// image directly), and a batched launch in which any block fell back
    /// to the per-thread path.
    ///
    /// `image` must hold zeros when the launch starts — as allocated, and
    /// as every successful `launch_into_host` leaves it. After a failed
    /// launch or transfer it may hold partial deposits; zero it
    /// ([`GlobalAtomicF32::fill_zero`]) before the next one.
    pub fn launch_into_host<'a, K: Kernel>(
        &'a self,
        name: &str,
        kernel: &K,
        cfg: LaunchConfig,
        mode: ExecMode,
        image: &'a GlobalAtomicF32,
        host: &'a mut Vec<f32>,
    ) -> Result<(KernelProfile, FrameDownload<'a>), GpuError> {
        host.resize(image.len(), 0.0);
        let chunks = match self.transfer_plan() {
            Some(_) => image.len().div_ceil(TRANSFER_CHUNK),
            None => 0,
        };
        let mut sums = vec![0u64; chunks];
        let bound = (mode == ExecMode::Batched).then(|| HostBound {
            image,
            host: host.as_mut_slice(),
            sums: &mut sums,
        });
        let (profile, on_host) = self.launch_bound(name, kernel, cfg, mode, bound)?;
        let download = FrameDownload {
            gpu: self,
            image,
            host,
            written: on_host.then_some(sums),
        };
        Ok((profile, download))
    }

    /// The one launch path: `bound` carries a host-bound image for a
    /// batched launch; the flag returned says whether the frame landed in
    /// its host buffer.
    fn launch_bound<K: Kernel>(
        &self,
        name: &str,
        kernel: &K,
        cfg: LaunchConfig,
        mode: ExecMode,
        bound: Option<HostBound<'_>>,
    ) -> Result<(KernelProfile, bool), GpuError> {
        cfg.validate(&self.spec)?;
        let occ = occupancy(&self.spec, &cfg);
        let trace_start = self.telemetry.as_ref().map(|_| now_us());

        // Launches are serialized like a CUDA stream-0 queue: the persistent
        // caches and arena are device state. (Poison-tolerant: a panicking
        // kernel leaves state that the reset below repairs.)
        let _gate = self.launch_gate.lock().unwrap_or_else(|e| e.into_inner());

        // A pool poisoned by a watchdog timeout is torn down (joining any
        // straggler) and rebuilt here, so the launch after a timeout runs
        // at full parallel width again. The rebuilt pool inherits the
        // telemetry gate (fresh rings, recording re-enabled).
        {
            let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
            if pool.poisoned() {
                *pool = self.fresh_pool();
                self.pool_rebuilds.fetch_add(1, Ordering::Relaxed);
            }
        }

        let armed = self.fault.as_ref().map(|f| f.arm());
        let armed = armed.as_ref();
        let stamps = LaunchStamps::default();
        let stamps_ref = self.telemetry.as_ref().map(|_| &stamps);
        // Sanitizer launch id and the arena use-after-recycle watermark
        // (the screen itself runs in every mode; a launch that trips it
        // gets a memcheck report below).
        let launch_id = self.san_seq.fetch_add(1, Ordering::Relaxed);
        let arena_drops_before = self.arena.dropped();

        // Kernel panics — injected or genuine — must not cross the device
        // boundary: partial counters and deposits are discarded and the
        // launch reports `WorkerPanic`. (The caches/arena stay consistent:
        // caches are reset at every launch entry, and deposit lists of a
        // panicked launch are dropped, never recycled.)
        let executed = catch_unwind(AssertUnwindSafe(|| {
            // Per-SM texture caches (per-SM texture L1 path on Fermi),
            // reset — not rebuilt — per launch: a reset cache is
            // indistinguishable from a freshly-constructed one.
            for cache in &self.caches {
                cache.lock().unwrap_or_else(|e| e.into_inner()).reset();
            }
            match mode {
                ExecMode::Reference => self
                    .execute_reference(kernel, &cfg, armed, stamps_ref)
                    .map(|c| (c, false)),
                ExecMode::Batched => self.execute_batched(kernel, &cfg, armed, stamps_ref, bound),
                ExecMode::Sanitized => self
                    .execute_sanitized(name, launch_id, kernel, &cfg, armed, stamps_ref)
                    .map(|c| (c, false)),
            }
        }));
        let (counters, on_host) = match executed {
            Ok(result) => result?,
            Err(payload) => {
                self.panics_caught.fetch_add(1, Ordering::Relaxed);
                return Err(GpuError::WorkerPanic(panic_message(&payload)));
            }
        };

        // Memcheck: any deposit buffer the arena screened out during this
        // launch is a use-after-recycle — corrupted storage almost handed
        // to a future frame. Reported (in every exec mode), not fatal: the
        // drop itself already contained the damage.
        let arena_drops = self.arena.dropped().saturating_sub(arena_drops_before);
        if arena_drops > 0 && self.san_config.memcheck {
            self.push_sanitize_report(SanitizeReport {
                kernel: name.to_string(),
                launch: launch_id,
                findings: vec![Finding {
                    block: 0,
                    kind: FindingKind::ArenaRecycleFault {
                        dropped: arena_drops,
                    },
                }],
                accesses: 0,
                truncated: false,
            });
        }

        let (time_s, cycles) = kernel_time(&counters, &self.spec, &self.cost, &occ);
        if let (Some(sink), Some(start_us)) = (&self.telemetry, trace_start) {
            // Drain the lane rings while every lane is parked (the launch
            // gate is still held), sort across lanes, and record the trace.
            let mut lane_events = Vec::new();
            let events_dropped = {
                let pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
                pool.drain_events(&mut lane_events);
                pool.events_dropped()
            };
            lane_events.sort_by_key(|e| e.t_us);
            sink.record(LaunchTrace {
                name: name.to_string(),
                mode: mode.as_str(),
                launch: self.launch_seq.fetch_add(1, Ordering::Relaxed),
                start_us,
                end_us: now_us(),
                dispatch_us: stamps.dispatch(),
                merge_us: stamps.merge(),
                modeled_kernel_s: time_s,
                lane_events,
                events_dropped,
            });
        }
        let profile = KernelProfile {
            name: name.to_string(),
            time_s,
            cycles,
            counters,
            occupancy: occ,
        };
        // Still under the launch gate: the fold is serialized with every
        // other launch, so aggregate order is deterministic.
        if let Some(sink) = &self.utilization {
            sink.record(&profile);
        }
        Ok((profile, on_host))
    }

    /// Converts a pool timeout into the device-level error, counting it.
    fn timeout_error(&self, t: PoolTimeout) -> GpuError {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
        GpuError::LaunchTimeout {
            deadline_ms: t.deadline.as_millis() as u64,
        }
    }

    /// Normalizes an injected stall onto a worker lane of this dispatch
    /// (lane 0 is the launching thread and runs the watchdog, so it cannot
    /// stall). Inert when fewer than 2 workers participate.
    fn armed_stall(armed: Option<&ArmedFaults>, workers: usize) -> Option<(usize, Duration)> {
        let a = armed?;
        let lane = a.stall_lane?;
        if workers < 2 {
            return None;
        }
        Some((1 + lane % (workers - 1), a.stall))
    }

    /// Dynamic-chunk dispatch through the persistent pool (guarded by the
    /// watchdog deadline, if any), or through per-call spawned scopes while
    /// the spawn override is set. Both share the same claim order
    /// semantics; the pool merely reuses parked threads.
    fn dispatch_dynamic<F>(
        &self,
        count: usize,
        workers: usize,
        chunk: usize,
        stall: Option<(usize, Duration)>,
        body: F,
    ) -> Result<(), GpuError>
    where
        F: Fn(usize, usize) + Sync,
    {
        if self.spawn_override.load(Ordering::Relaxed) {
            spawn_parallel_for(count, workers, chunk, body);
            return Ok(());
        }
        self.pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .parallel_for_guarded(count, workers, chunk, self.watchdog, stall, body)
            .map_err(|t| self.timeout_error(t))
    }

    /// Static-stride dispatch (index `i` → worker `i % workers`, a pure
    /// function of `(count, workers)` on both paths). The pooled path
    /// claims roles by work stealing — ragged per-SM block batches no
    /// longer serialize on one lane. Stealing may run two roles of the
    /// same worker concurrently, so callers must accumulate per *role*
    /// (the batched executor does); per-worker state may only be touched
    /// through order-insensitive operations.
    fn dispatch_static<F>(
        &self,
        count: usize,
        workers: usize,
        stall: Option<(usize, Duration)>,
        body: F,
    ) -> Result<(), GpuError>
    where
        F: Fn(usize, usize) + Sync,
    {
        if self.spawn_override.load(Ordering::Relaxed) {
            spawn_parallel_for_static(count, workers, body);
            return Ok(());
        }
        self.pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .parallel_for_static_stealing_guarded(count, workers, self.watchdog, stall, body)
            .map_err(|t| self.timeout_error(t))
    }

    /// The reference executor: every thread interpreted, every warp traced.
    fn execute_reference<K: Kernel>(
        &self,
        kernel: &K,
        cfg: &LaunchConfig,
        armed: Option<&ArmedFaults>,
        stamps: Option<&LaunchStamps>,
    ) -> Result<Counters, GpuError> {
        let shared_counters = SharedCounters::default();
        let hazards = AtomicU64::new(0);
        let sm_count = self.spec.sm_count as usize;
        let total_blocks = cfg.total_blocks();
        let sms = sm_count.min(total_blocks);
        let panic_sm = armed.and_then(|a| a.panic_sm).map(|l| l % sms.max(1));

        if let Some(s) = stamps {
            s.dispatch_start.set(now_us());
        }
        self.dispatch_dynamic(
            sms,
            self.workers,
            1,
            Self::armed_stall(armed, self.workers.min(sms.max(1))),
            |sm_id, _| {
                if panic_sm == Some(sm_id) {
                    panic!("injected fault: worker panic on sm {sm_id}");
                }
                let mut local = Counters::default();
                let mut cache = self.caches[sm_id].lock().unwrap_or_else(|e| e.into_inner());
                let mut block = sm_id;
                while block < total_blocks {
                    self.run_block_reference(
                        kernel, cfg, block, &mut local, &mut cache, &hazards, None,
                    );
                    block += sm_count;
                }
                shared_counters.merge(&local);
            },
        )?;
        if let Some(s) = stamps {
            s.dispatch_end.set(now_us());
        }

        let mut counters = shared_counters.snapshot();
        counters.shared_hazards = hazards.load(Ordering::Relaxed);
        Ok(counters)
    }

    /// The sanitized executor: the reference schedule with per-SM shadow
    /// access sets attached. Each SM records its lanes' accesses and
    /// inline findings into its own slot (lock-free in practice — one
    /// worker owns an SM at a time); after the join the slots are merged
    /// *in SM order* and analyzed single-threaded, so the report is
    /// deterministic for any worker count. Counters, hazards, and the
    /// functional output are computed exactly as in
    /// [`Self::execute_reference`].
    fn execute_sanitized<K: Kernel>(
        &self,
        name: &str,
        launch_id: u64,
        kernel: &K,
        cfg: &LaunchConfig,
        armed: Option<&ArmedFaults>,
        stamps: Option<&LaunchStamps>,
    ) -> Result<Counters, GpuError> {
        let shared_counters = SharedCounters::default();
        let hazards = AtomicU64::new(0);
        let sm_count = self.spec.sm_count as usize;
        let total_blocks = cfg.total_blocks();
        let sms = sm_count.min(total_blocks);
        let panic_sm = armed.and_then(|a| a.panic_sm).map(|l| l % sms.max(1));
        let san_cfg = &self.san_config;
        let slots: Vec<Mutex<SmSan>> = (0..sms).map(|_| Mutex::new(SmSan::default())).collect();

        if let Some(s) = stamps {
            s.dispatch_start.set(now_us());
        }
        self.dispatch_dynamic(
            sms,
            self.workers,
            1,
            Self::armed_stall(armed, self.workers.min(sms.max(1))),
            |sm_id, _| {
                if panic_sm == Some(sm_id) {
                    panic!("injected fault: worker panic on sm {sm_id}");
                }
                let mut local = Counters::default();
                let mut cache = self.caches[sm_id].lock().unwrap_or_else(|e| e.into_inner());
                let mut slot = slots[sm_id].lock().unwrap_or_else(|e| e.into_inner());
                let mut block = sm_id;
                while block < total_blocks {
                    self.run_block_reference(
                        kernel,
                        cfg,
                        block,
                        &mut local,
                        &mut cache,
                        &hazards,
                        Some((san_cfg, &mut slot)),
                    );
                    block += sm_count;
                }
                shared_counters.merge(&local);
            },
        )?;
        if let Some(s) = stamps {
            s.dispatch_end.set(now_us());
        }

        let per_sm: Vec<SmSan> = slots
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
            .collect();
        let (findings, accesses, truncated) = sanitize::analyze(san_cfg, per_sm);
        self.push_sanitize_report(SanitizeReport {
            kernel: name.to_string(),
            launch: launch_id,
            findings,
            accesses,
            truncated,
        });

        let mut counters = shared_counters.snapshot();
        counters.shared_hazards = hazards.load(Ordering::Relaxed);
        Ok(counters)
    }

    /// The batched executor: same SM schedule, but blocks whose kernel
    /// implements [`Kernel::run_block`] are processed whole, recording
    /// image output into private deposit lists instead of CAS-looping on
    /// the shared target.
    ///
    /// Each role (SM) records its blocks' deposits into lists drawn from
    /// the arena, then — still on the worker lane — seals them by merge
    /// tile into its [`RoleDeposits`] and recycles the lists. After the
    /// join, one pass over the pool lanes merges the sealed deposits, each
    /// lane owning a contiguous range of tiles and folding every tile in
    /// an L1-resident scratch, role by role in ascending order
    /// ([`crate::kernel::merge_band`]). Every pixel sees the same chain of
    /// adds for every worker count ≥ 2, lane count, and dispatch path
    /// (pooled, stolen, or spawned), so the image is bit-identical across
    /// them. Per-role recording is also what makes work stealing safe: two
    /// roles of the same worker may run concurrently on different lanes,
    /// and they never share a list.
    ///
    /// At one worker every role runs inline on the launching thread in
    /// ascending order, and all roles share one launch-wide list, sealed
    /// once after the last role. Its single chain of adds per pixel
    /// replays the reference executor's addition order exactly (the image
    /// starts at zero, so merging the one fold is the same chain), which
    /// keeps the one-worker image equal to `Reference`'s bit for bit — a
    /// guarantee per-role grouping cannot give.
    ///
    /// With `bound`, its image is registered as target slot 0 before
    /// dispatch, and unless some block fell back to the per-thread path
    /// (whose adds land in the device image) the merge writes every tile of
    /// it into the host buffer instead ([`crate::kernel::merge_band`]); the
    /// flag returned says which happened.
    fn execute_batched<'k, K: Kernel>(
        &'k self,
        kernel: &'k K,
        cfg: &LaunchConfig,
        armed: Option<&ArmedFaults>,
        stamps: Option<&LaunchStamps>,
        bound: Option<HostBound<'k>>,
    ) -> Result<(Counters, bool), GpuError> {
        let sm_count = self.spec.sm_count as usize;
        let total_blocks = cfg.total_blocks();
        let sms = sm_count.min(total_blocks);
        let workers = self.workers.min(sms.max(1));
        let hazards = AtomicU64::new(0);
        let panic_sm = armed.and_then(|a| a.panic_sm).map(|l| l % sms.max(1));

        // Per-worker counters (integral, so accumulation order within a
        // worker cannot matter even when stealing interleaves its roles);
        // merged in worker order below. The short lock is contended only
        // when two roles of one worker finish simultaneously.
        let counter_slots: Vec<Mutex<Counters>> = (0..workers)
            .map(|_| Mutex::new(Counters::default()))
            .collect();
        // Target buffers registered by sealing, in first-sight order after
        // a host-bound image; sealed deposits refer to them by slot index.
        let targets: Mutex<Vec<&'k GlobalAtomicF32>> =
            Mutex::new(bound.as_ref().map(|b| b.image).into_iter().collect());
        // Set by any block that runs on the per-thread path; read after the
        // join, which orders it.
        let fell_back = AtomicBool::new(false);
        // One sealed deposit set per role, recycled (with their capacity)
        // across launches so the steady-state frame loop stays
        // allocation-free.
        let deposits: Vec<Mutex<RoleDeposits>> = {
            let mut pool = self.deposits_pool.lock().unwrap_or_else(|e| e.into_inner());
            (0..sms)
                .map(|_| Mutex::new(pool.pop().unwrap_or_default()))
                .collect()
        };
        // The one-worker launch-wide list (uncontended: every role runs
        // inline on the launching thread).
        let launch_shadow = (workers == 1).then(|| Mutex::new(ShadowSet::with_arena(&self.arena)));

        if let Some(s) = stamps {
            s.dispatch_start.set(now_us());
        }
        self.dispatch_static(
            sms,
            workers,
            Self::armed_stall(armed, workers),
            |sm_id, worker| {
                if panic_sm == Some(sm_id) {
                    panic!("injected fault: worker panic on sm {sm_id}");
                }
                let mut counters = Counters::default();
                let mut launch_guard = launch_shadow
                    .as_ref()
                    .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()));
                let mut role_shadow = ShadowSet::with_arena(&self.arena);
                let shadow = launch_guard.as_deref_mut().unwrap_or(&mut role_shadow);
                let mut cache = self.caches[sm_id].lock().unwrap_or_else(|e| e.into_inner());
                let mut block = sm_id;
                while block < total_blocks {
                    let mut bctx = BlockCtx {
                        block_idx: cfg.grid.delinearize(block),
                        block_dim: cfg.block,
                        grid_dim: cfg.grid,
                        spec: &self.spec,
                        counters: &mut counters,
                        cache: &mut cache,
                        shadow: &mut *shadow,
                        backend: cfg.backend,
                    };
                    if !kernel.run_block(&mut bctx) {
                        fell_back.store(true, Ordering::Relaxed);
                        self.run_block_reference(
                            kernel,
                            cfg,
                            block,
                            &mut counters,
                            &mut cache,
                            &hazards,
                            None,
                        );
                    }
                    block += sm_count;
                }
                // Seal this role's deposits on its own lane; the emptied
                // lists go back to the arena for the next role.
                if launch_guard.is_none() {
                    let mut out = deposits[sm_id].lock().unwrap_or_else(|e| e.into_inner());
                    out.clear();
                    role_shadow.seal_into(&targets, &mut out);
                }
                counter_slots[worker]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .merge(&counters);
            },
        )?;
        if let Some(s) = stamps {
            s.dispatch_end.set(now_us());
            s.merge_start.set(now_us());
        }

        // Deterministic reduction: counters merge in worker order, and
        // every pixel takes its role folds in role order. The one-worker
        // list is sealed as role 0's output (every other role's set stays
        // empty).
        let mut counters = Counters::default();
        for s in &counter_slots {
            counters.merge(&s.lock().unwrap_or_else(|e| e.into_inner()));
        }
        let mut deposits: Vec<RoleDeposits> = deposits
            .into_iter()
            .map(|d| d.into_inner().unwrap_or_else(|e| e.into_inner()))
            .collect();
        if let (Some(shadow), Some(out)) = (launch_shadow, deposits.first_mut()) {
            out.clear();
            shadow
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .seal_into(&targets, out);
        }
        let targets = targets.into_inner().unwrap_or_else(|e| e.into_inner());
        let sealed_any = deposits.iter().any(|d| !d.is_empty());
        // Lanes own disjoint tile ranges, so the plain read-modify-write
        // in `merge_drain_range` is race-free, and each lane writes only
        // its own share of a host-bound image.
        let lanes = self.pool_lanes();
        let host = bound
            .filter(|_| !fell_back.load(Ordering::Relaxed))
            .map(|b| {
                let total = targets.iter().map(|t| t.len().div_ceil(MERGE_TILE)).sum();
                host_bands(b.host, b.sums, total, lanes)
            });
        self.dispatch_static(lanes, lanes, None, |band, _| {
            let mut share = host
                .as_ref()
                .map(|h| h[band].lock().unwrap_or_else(|e| e.into_inner()));
            merge_band_pooled(
                &self.arena,
                &deposits,
                &targets,
                band,
                lanes,
                share.as_deref_mut(),
            );
        })?;
        {
            let mut pool = self.deposits_pool.lock().unwrap_or_else(|e| e.into_inner());
            for mut d in deposits {
                d.clear();
                if pool.len() < DEPOSITS_POOL_CAP {
                    pool.push(d);
                }
            }
        }
        // Injected shadow corruption: poison one drained buffer on its way
        // back to the arena, which must screen (drop) it instead of
        // recycling it into a future frame.
        if armed.is_some_and(|a| a.shadow_corrupt) && sealed_any {
            let mut list = self.arena.take();
            list.poison();
            self.arena.put(list);
        }
        counters.shared_hazards += hazards.load(Ordering::Relaxed);
        if let Some(s) = stamps {
            s.merge_end.set(now_us());
        }
        Ok((counters, host.is_some()))
    }

    /// Executes one block on the reference path: all phases, warp by warp.
    ///
    /// With `san` attached (the sanitized executor), the lanes' event
    /// traces are additionally mirrored into the SM's shadow access set,
    /// barrier arrivals are checked for divergence, and memcheck hooks are
    /// installed on every thread context — without changing a single
    /// counter or functional result.
    #[allow(clippy::too_many_arguments)]
    fn run_block_reference<K: Kernel>(
        &self,
        kernel: &K,
        cfg: &LaunchConfig,
        block_linear: usize,
        counters: &mut Counters,
        cache: &mut CacheSim,
        hazards: &AtomicU64,
        mut san: Option<(&SanitizeConfig, &mut SmSan)>,
    ) {
        let block_idx = cfg.grid.delinearize(block_linear);
        let threads = cfg.threads_per_block();
        let warp = self.spec.warp_size as usize;
        let shared = SharedMem::new(cfg.shared_mem_bytes / 4);
        let phases = kernel.phases().max(1);
        // Inline memcheck findings from this block's lanes (RefCell: lanes
        // run strictly sequentially on the owning worker).
        let lane_findings = std::cell::RefCell::new(Vec::new());

        let mut exited = vec![false; threads];
        // Reusable per-lane trace buffers.
        let mut traces: Vec<Vec<crate::kernel::Event>> = vec![Vec::new(); warp];

        for phase in 0..phases {
            if phase > 0 {
                shared.barrier();
                // One barrier instruction per warp that still has live
                // threads — fully-exited warps (e.g. grid-padding blocks
                // past the starCount guard) never reach the barrier.
                let live_warps = (0..threads)
                    .step_by(warp)
                    .filter(|&ws| (ws..(ws + warp).min(threads)).any(|t| !exited[t]))
                    .count();
                counters.barriers += live_warps as u64;
                // Synccheck: some lanes of the block arrive at this
                // barrier while others already returned — divergent
                // `__syncthreads()`. A fully-exited block (the paper's
                // whole-block starCount guard) never arrives and is fine.
                if let Some((sc, slot)) = san.as_mut() {
                    if sc.synccheck {
                        let gone = exited.iter().filter(|&&e| e).count();
                        if gone > 0 && gone < threads {
                            slot.findings.push(Finding {
                                block: block_linear,
                                kind: FindingKind::BarrierDivergence {
                                    barrier: phase,
                                    arrived: threads - gone,
                                    expected: threads,
                                },
                            });
                        }
                    }
                }
            }
            for warp_start in (0..threads).step_by(warp) {
                let lanes = warp.min(threads - warp_start);
                let mut any = false;
                for (lane, trace) in traces.iter_mut().enumerate().take(lanes) {
                    let t = warp_start + lane;
                    trace.clear();
                    if exited[t] {
                        continue;
                    }
                    any = true;
                    let thread_idx = cfg.block.delinearize(t);
                    let ctx_events = std::mem::take(trace);
                    let mut ctx = ThreadCtx::new(
                        thread_idx, block_idx, cfg.block, cfg.grid, &shared, ctx_events,
                    );
                    if let Some((sc, _)) = san.as_ref() {
                        ctx.set_sanitizer(LaneHooks {
                            findings: &lane_findings,
                            block: block_linear,
                            epoch: phase,
                            memcheck: sc.memcheck,
                        });
                    }
                    kernel.run(phase, &mut ctx);
                    if ctx.exited() {
                        exited[t] = true;
                    }
                    if phase == 0 {
                        counters.threads += 1;
                    }
                    *trace = ctx.take_events();
                    // Mirror this lane's accesses into the shadow set.
                    if let Some((sc, slot)) = san.as_mut() {
                        for ev in trace.iter() {
                            let (kind, addr) = match *ev {
                                Event::GlobalRead { addr, .. } => (AccessKind::GlobalRead, addr),
                                Event::GlobalWrite { addr, .. } => (AccessKind::GlobalWrite, addr),
                                Event::AtomicAdd { addr } => (AccessKind::GlobalAtomic, addr),
                                Event::SharedRead { word } => (AccessKind::SharedRead, word as u64),
                                Event::SharedWrite { word } => {
                                    (AccessKind::SharedWrite, word as u64)
                                }
                                _ => continue,
                            };
                            slot.record(
                                sc.access_cap,
                                Access {
                                    block: block_linear,
                                    epoch: phase as u32,
                                    lane: t as u32,
                                    kind,
                                    addr,
                                },
                            );
                        }
                    }
                }
                for trace in traces.iter_mut().skip(lanes) {
                    trace.clear();
                }
                if any {
                    counters.warps += 1;
                    analyze_warp(&traces[..lanes], &self.spec, counters, cache);
                }
            }
        }
        hazards.fetch_add(shared.hazards(), Ordering::Relaxed);
        if let Some((_, slot)) = san.as_mut() {
            slot.findings.append(&mut lane_findings.borrow_mut());
        }
    }
}

impl Default for VirtualGpu {
    fn default() -> Self {
        VirtualGpu::gtx480()
    }
}

/// The host destination of a batched launch from
/// [`VirtualGpu::launch_into_host`]: the device image it stands in for,
/// its host buffer, and the chunk checksums the merge lanes record (empty
/// when transfers are not verified).
struct HostBound<'h> {
    image: &'h GlobalAtomicF32,
    host: &'h mut [f32],
    sums: &'h mut [u64],
}

/// The transfer step of a [`VirtualGpu::launch_into_host`] launch.
#[must_use = "the frame is on the host only once `finish` succeeds"]
#[derive(Debug)]
pub struct FrameDownload<'a> {
    gpu: &'a VirtualGpu,
    image: &'a GlobalAtomicF32,
    host: &'a mut Vec<f32>,
    /// `Some`: the merge lanes wrote the frame into `host` (with the chunk
    /// checksums they recorded, when transfers are verified); `None`: the
    /// frame is still in `image`.
    written: Option<Vec<u64>>,
}

impl FrameDownload<'_> {
    /// Completes the frame's device→host transfer and returns its modeled
    /// time — always the full image, [`TransferModel`] unchanged.
    ///
    /// A frame still in the device image is downloaded into the host
    /// buffer, which zeroes the device image. For a frame the merge lanes
    /// already wrote, this is only the transfer's verification: when the
    /// fault plan verifies transfers, its injected corruption lands in the
    /// host buffer at the same index as on the download path, and the host
    /// chunks are compared against the checksums the lanes recorded.
    /// Either way a mismatch fails with [`GpuError::TransferCorrupted`]
    /// naming the same chunk, and counts in
    /// [`GpuDiagnostics::checksum_catches`].
    pub fn finish(self) -> Result<f64, GpuError> {
        let Some(sums) = self.written else {
            return self.gpu.verified_download(self.image, self.host, true);
        };
        if let Some(plan) = self.gpu.transfer_plan() {
            self.gpu.check_transfer(plan, &sums, self.host)?;
        }
        Ok(self.gpu.d2h_time(self.image))
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::FlopClass;

    /// y[i] = a*x[i] + y[i] over a 1-D launch — the "hello world" kernel.
    struct Saxpy<'a> {
        a: f32,
        x: &'a GlobalBuffer<f32>,
        y: &'a GlobalAtomicF32,
        n: usize,
    }

    impl Kernel for Saxpy<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            let i = ctx.block_linear() * ctx.block_dim.count() + ctx.thread_linear();
            if !ctx.branch(i < self.n) {
                ctx.exit();
                return;
            }
            let xv = ctx.global_read(self.x, i);
            ctx.flops(FlopClass::Fma, 1);
            ctx.atomic_add_global(self.y, i, self.a * xv);
        }
    }

    #[test]
    fn saxpy_computes_correct_values() {
        let gpu = VirtualGpu::gtx480();
        let n = 1000;
        let (x, _) = gpu.upload((0..n).map(|i| i as f32).collect::<Vec<_>>());
        let (y, _) = gpu.upload_atomic_f32(&vec![1.0f32; n]);
        let k = Saxpy {
            a: 2.0,
            x: &x,
            y: &y,
            n,
        };
        let cfg = LaunchConfig::new(n.div_ceil(128) as u32, 128u32);
        let profile = gpu.launch("saxpy", &k, cfg).unwrap();

        let (host, _) = gpu.download(&y);
        for (i, &v) in host.iter().enumerate() {
            assert_eq!(v, 2.0 * i as f32 + 1.0, "element {i}");
        }
        // 1000 threads did work; 1024 launched.
        assert_eq!(profile.counters.threads, 1024);
        assert_eq!(profile.counters.flops_fma, 1000);
        assert!(profile.time_s > 0.0);
        // The tail warp (threads 992..1024) diverges on the bounds check
        // (8 in-range, 24 out). All others are uniform.
        assert_eq!(profile.counters.divergent_branches, 1);
    }

    #[test]
    fn coalescing_visible_in_saxpy() {
        let gpu = VirtualGpu::gtx480();
        let n = 256;
        let (x, _) = gpu.upload(vec![1.0f32; n]);
        let (y, _) = gpu.upload_atomic_f32(&vec![0.0f32; n]);
        let k = Saxpy {
            a: 1.0,
            x: &x,
            y: &y,
            n,
        };
        let profile = gpu
            .launch("saxpy", &k, LaunchConfig::new(2u32, 128u32))
            .unwrap();
        // 8 warps, each reading 32 consecutive f32 = one 128B transaction.
        assert_eq!(profile.counters.global_requests, 8);
        assert_eq!(profile.counters.global_transactions, 8);
    }

    /// Two-phase kernel staging through shared memory, like the paper's.
    struct StagedBroadcast<'a> {
        src: &'a GlobalBuffer<f32>,
        dst: &'a GlobalAtomicF32,
    }

    impl Kernel for StagedBroadcast<'_> {
        fn phases(&self) -> usize {
            2
        }
        fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) {
            let b = ctx.block_linear();
            match phase {
                0 => {
                    // One thread per block loads the block's value.
                    if ctx.branch(ctx.thread_linear() == 0) {
                        let v = ctx.global_read(self.src, b);
                        ctx.shared_write(0, v);
                    }
                }
                _ => {
                    let v = ctx.shared_read(0);
                    let i = b * ctx.block_dim.count() + ctx.thread_linear();
                    ctx.atomic_add_global(self.dst, i, v);
                }
            }
        }
    }

    #[test]
    fn barrier_phases_order_shared_memory() {
        let gpu = VirtualGpu::gtx480();
        let blocks = 20;
        let tpb = 64;
        let (src, _) = gpu.upload((0..blocks).map(|b| b as f32 * 10.0).collect::<Vec<_>>());
        let dst = gpu.alloc_atomic_f32(blocks * tpb);
        let k = StagedBroadcast {
            src: &src,
            dst: &dst,
        };
        let cfg = LaunchConfig::new(blocks as u32, tpb as u32).with_shared_mem(4);
        let profile = gpu.launch("staged", &k, cfg).unwrap();
        let (host, _) = gpu.download(&dst);
        for b in 0..blocks {
            for t in 0..tpb {
                assert_eq!(host[b * tpb + t], b as f32 * 10.0);
            }
        }
        // No same-phase hazard: the write and reads are barrier-separated.
        assert_eq!(profile.counters.shared_hazards, 0);
        // Barriers: one per warp per extra phase = blocks × 2 warps.
        assert_eq!(profile.counters.barriers, (blocks * 2) as u64);
        // Global reads reduced to one per block by the staging (the paper's
        // §III-B.3 optimization).
        assert_eq!(profile.counters.global_requests, blocks as u64);
    }

    /// The same broadcast *without* the barrier — the bug the paper's
    /// step 6 (`__syncthreads`) prevents. The hazard detector must fire.
    struct RacyBroadcast<'a> {
        src: &'a GlobalBuffer<f32>,
    }

    impl Kernel for RacyBroadcast<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            if ctx.branch(ctx.thread_linear() == 0) {
                let v = ctx.global_read(self.src, ctx.block_linear());
                ctx.shared_write(0, v);
            }
            let _ = ctx.shared_read(0);
        }
    }

    #[test]
    fn missing_syncthreads_detected_as_hazard() {
        let gpu = VirtualGpu::gtx480();
        let (src, _) = gpu.upload(vec![1.0f32; 4]);
        let k = RacyBroadcast { src: &src };
        let cfg = LaunchConfig::new(4u32, 32u32).with_shared_mem(4);
        let profile = gpu.launch("racy", &k, cfg).unwrap();
        assert!(
            profile.counters.shared_hazards > 0,
            "cross-thread same-phase read must be flagged"
        );
    }

    #[test]
    fn launch_validation_propagates() {
        let gpu = VirtualGpu::gtx480();
        let (src, _) = gpu.upload(vec![1.0f32; 4]);
        let k = RacyBroadcast { src: &src };
        let bad = LaunchConfig::new(1u32, Dim3::d2(33, 33));
        assert!(matches!(
            gpu.launch("bad", &k, bad),
            Err(GpuError::InvalidLaunch(_))
        ));
    }

    #[test]
    fn deterministic_counters_across_worker_counts() {
        let run = |workers: usize| {
            let gpu = VirtualGpu::gtx480().with_workers(workers);
            let n = 4096;
            let (x, _) = gpu.upload(vec![1.0f32; n]);
            let (y, _) = gpu.upload_atomic_f32(&vec![0.0f32; n]);
            let k = Saxpy {
                a: 3.0,
                x: &x,
                y: &y,
                n,
            };
            gpu.launch("saxpy", &k, LaunchConfig::new(32u32, 128u32))
                .unwrap()
                .counters
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a, b, "counters must not depend on host parallelism");
    }

    #[test]
    fn exec_modes_agree_for_fallback_kernels() {
        // No kernel here implements `run_block`, so the batched executor
        // runs every block on the reference path — but through its own
        // scheduling and reduction. Counters and results must be identical.
        let run = |mode: ExecMode| {
            let gpu = VirtualGpu::gtx480().with_workers(4).with_exec_mode(mode);
            let n = 4096;
            let (x, _) = gpu.upload((0..n).map(|i| i as f32).collect::<Vec<_>>());
            let (y, _) = gpu.upload_atomic_f32(&vec![0.5f32; n]);
            let k = Saxpy {
                a: 2.0,
                x: &x,
                y: &y,
                n,
            };
            let p = gpu
                .launch("saxpy", &k, LaunchConfig::new(32u32, 128u32))
                .unwrap();
            (p.counters, p.time_s, gpu.download(&y).0)
        };
        let (ca, ta, ia) = run(ExecMode::Reference);
        let (cb, tb, ib) = run(ExecMode::Batched);
        assert_eq!(ca, cb, "counters must not depend on the executor");
        assert_eq!(ta, tb, "modeled time must not depend on the executor");
        assert_eq!(ia, ib);
    }

    #[test]
    fn exec_mode_parses_cli_spellings() {
        assert_eq!(ExecMode::parse("reference"), Some(ExecMode::Reference));
        assert_eq!(ExecMode::parse("batched"), Some(ExecMode::Batched));
        assert_eq!(ExecMode::parse("sanitized"), Some(ExecMode::Sanitized));
        assert_eq!(ExecMode::parse("turbo"), None);
        assert_eq!(ExecMode::Batched.as_str(), "batched");
        assert_eq!(ExecMode::Reference.as_str(), "reference");
        assert_eq!(ExecMode::Sanitized.as_str(), "sanitized");
        assert_eq!(ExecMode::default(), ExecMode::Batched);
    }

    #[test]
    fn hazard_detection_survives_batched_fallback() {
        let gpu = VirtualGpu::gtx480().with_exec_mode(ExecMode::Batched);
        let (src, _) = gpu.upload(vec![1.0f32; 4]);
        let k = RacyBroadcast { src: &src };
        let cfg = LaunchConfig::new(4u32, 32u32).with_shared_mem(4);
        let profile = gpu.launch("racy", &k, cfg).unwrap();
        assert!(profile.counters.shared_hazards > 0);
    }

    /// Each `DeviceSpec` launch limit, violated one at a time through
    /// `gpu.launch`, must come back as a typed `InvalidLaunch` whose
    /// message names the offending quantity.
    mod launch_limits {
        use super::*;

        fn try_launch(cfg: LaunchConfig) -> GpuError {
            let gpu = VirtualGpu::gtx480();
            let (src, _) = gpu.upload(vec![1.0f32; 4]);
            let k = RacyBroadcast { src: &src };
            match gpu.launch("bad", &k, cfg) {
                Err(e) => e,
                Ok(_) => panic!("launch must be rejected"),
            }
        }

        fn assert_invalid(cfg: LaunchConfig, needle: &str) {
            match try_launch(cfg) {
                GpuError::InvalidLaunch(msg) => {
                    assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
                }
                other => panic!("expected InvalidLaunch, got {other:?}"),
            }
        }

        #[test]
        fn threads_per_block_limit() {
            // 33×33 = 1089 > 1024 even though each dimension is legal.
            assert_invalid(LaunchConfig::new(1u32, Dim3::d2(33, 33)), "1089");
        }

        #[test]
        fn block_dim_z_limit() {
            // 2×2×65 = 260 threads (legal) but z exceeds the 64 limit.
            assert_invalid(LaunchConfig::new(1u32, Dim3::d3(2, 2, 65)), "per-dimension");
        }

        #[test]
        fn grid_dim_x_limit() {
            assert_invalid(LaunchConfig::new(65536u32, 32u32), "per-dimension");
        }

        #[test]
        fn grid_dim_z_limit() {
            assert_invalid(LaunchConfig::new(Dim3::d3(1, 1, 2), 32u32), "grid");
        }

        #[test]
        fn shared_mem_limit() {
            let spec = DeviceSpec::gtx480();
            let cfg = LaunchConfig::new(1u32, 32u32).with_shared_mem(spec.shared_mem_per_block + 1);
            assert_invalid(cfg, "shared");
        }

        #[test]
        fn degenerate_launch_rejected() {
            assert_invalid(LaunchConfig::new(0u32, 32u32), "degenerate");
        }
    }

    #[test]
    fn texture_budget_enforced_through_device() {
        let gpu = VirtualGpu::gtx480();
        let too_big = gpu.spec().texture_mem_bytes / 4 + 1;
        let r = gpu.bind_texture(too_big, 1, 1, vec![0.0; too_big]);
        assert!(matches!(r, Err(GpuError::OutOfMemory { .. })));
    }

    #[test]
    fn upload_download_roundtrip_with_times() {
        let gpu = VirtualGpu::gtx480();
        let (buf, t_up) = gpu.upload_atomic_f32(&[1.0, 2.0, 3.0]);
        let (back, t_down) = gpu.download(&buf);
        assert_eq!(back, vec![1.0, 2.0, 3.0]);
        assert!(t_up > 0.0 && t_down > 0.0);
    }

    #[test]
    fn workers_clamped_to_sm_count() {
        let gpu = VirtualGpu::gtx480().with_workers(1000);
        assert_eq!(gpu.workers, gpu.spec().sm_count as usize);
        let gpu = VirtualGpu::gtx480().with_workers(3);
        assert_eq!(gpu.workers, 3);
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery.
    // ------------------------------------------------------------------

    use crate::fault::{FaultKind, FaultPlan};
    use std::time::Duration;

    /// Runs saxpy (a=2, x=i, y0=0) on `gpu`, returning the image.
    fn saxpy_frame(gpu: &VirtualGpu, n: usize) -> Result<Vec<f32>, GpuError> {
        let (x, _) = gpu.try_upload((0..n).map(|i| i as f32).collect::<Vec<_>>())?;
        let y = gpu.alloc_atomic_f32(n);
        let k = Saxpy {
            a: 2.0,
            x: &x,
            y: &y,
            n,
        };
        gpu.launch(
            "saxpy",
            &k,
            LaunchConfig::new(n.div_ceil(128) as u32, 128u32),
        )?;
        Ok(gpu.try_download(&y)?.0)
    }

    #[test]
    fn fault_plan_none_is_invisible() {
        let clean = VirtualGpu::gtx480().with_workers(4);
        let chaos = VirtualGpu::gtx480()
            .with_workers(4)
            .with_fault_plan(Arc::new(FaultPlan::none()))
            .with_watchdog(Duration::from_secs(30));
        let a = saxpy_frame(&clean, 4096).unwrap();
        let b = saxpy_frame(&chaos, 4096).unwrap();
        assert_eq!(a, b);
        assert_eq!(chaos.diagnostics(), GpuDiagnostics::default());
    }

    #[test]
    fn injected_panic_is_caught_and_device_recovers_bit_identically() {
        let clean = VirtualGpu::gtx480().with_workers(4);
        let expected = saxpy_frame(&clean, 4096).unwrap();

        let gpu = VirtualGpu::gtx480()
            .with_workers(4)
            .with_fault_plan(Arc::new(FaultPlan::single(FaultKind::WorkerPanic, 0, 2)));
        let err = saxpy_frame(&gpu, 4096).expect_err("launch 0 must fail");
        assert!(matches!(err, GpuError::WorkerPanic(_)), "got {err:?}");
        assert_eq!(gpu.diagnostics().panics_caught, 1);

        // The fault is one-shot: the very next frame is clean and
        // bit-identical to the fault-free device.
        let retried = saxpy_frame(&gpu, 4096).expect("retry must succeed");
        assert_eq!(retried, expected);
    }

    #[test]
    fn injected_oom_surfaces_on_try_upload() {
        let gpu = VirtualGpu::gtx480().with_fault_plan(Arc::new(FaultPlan::single(
            FaultKind::AllocOom,
            0,
            0,
        )));
        let err = saxpy_frame(&gpu, 256).expect_err("upload must report OOM");
        assert!(matches!(err, GpuError::OutOfMemory { .. }), "got {err:?}");
        // The failed attempt never armed a launch, so the retry is still
        // launch 0 — and the fault is spent.
        assert!(saxpy_frame(&gpu, 256).is_ok());
    }

    #[test]
    fn transfer_corruption_caught_by_checksum_and_device_data_survives() {
        let clean = VirtualGpu::gtx480().with_workers(4);
        let expected = saxpy_frame(&clean, 8192).unwrap();

        let gpu = VirtualGpu::gtx480()
            .with_workers(4)
            .with_fault_plan(Arc::new(FaultPlan::single(
                FaultKind::TransferCorrupt,
                0,
                1,
            )));
        let n = 8192;
        let (x, _) = gpu
            .try_upload((0..n).map(|i| i as f32).collect::<Vec<_>>())
            .unwrap();
        let y = gpu.alloc_atomic_f32(n);
        let k = Saxpy {
            a: 2.0,
            x: &x,
            y: &y,
            n,
        };
        gpu.launch("saxpy", &k, LaunchConfig::new(64u32, 128u32))
            .unwrap();
        let err = gpu
            .try_download(&y)
            .expect_err("checksum must catch the flip");
        assert!(
            matches!(err, GpuError::TransferCorrupted { chunk: 1 }),
            "got {err:?}"
        );
        assert_eq!(gpu.diagnostics().checksum_catches, 1);
        // Verification is non-destructive: the device image is intact, so
        // re-downloading (fault spent) recovers the exact frame.
        let (host, _) = gpu.try_download(&y).expect("second download is clean");
        assert_eq!(host, expected);
    }

    /// One deposit per element, `y[i] += fill_value(i)`, on both paths:
    /// `run_block` makes the thread path's deposits through the block's
    /// deposit list, so a batched host-bound launch writes the host buffer.
    struct Fill<'a> {
        y: &'a GlobalAtomicF32,
    }

    fn fill_value(i: usize) -> f32 {
        (i % 97) as f32 * 0.25
    }

    impl Kernel for Fill<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            let i = ctx.block_linear() * ctx.block_dim.count() + ctx.thread_linear();
            if i < self.y.len() {
                ctx.atomic_add_global(self.y, i, fill_value(i));
            }
        }

        fn run_block<'k>(&'k self, ctx: &mut BlockCtx<'k, '_>) -> bool {
            let n = ctx.block_dim.count();
            let start = ctx.block_linear() * n;
            let acc = ctx.shadow.accumulator(self.y);
            for i in start..(start + n).min(self.y.len()) {
                acc.add(i, fill_value(i));
            }
            true
        }
    }

    #[test]
    fn host_bound_transfer_corruption_is_caught_in_the_download_paths_chunk() {
        let n = 3 * MERGE_TILE + 100;
        let cfg = LaunchConfig::new(n.div_ceil(128) as u32, 128u32);
        let expected: Vec<f32> = (0..n).map(fill_value).collect();
        let run = |mode: ExecMode| {
            let gpu = VirtualGpu::gtx480()
                .with_workers(4)
                .with_fault_plan(Arc::new(FaultPlan::single(
                    FaultKind::TransferCorrupt,
                    0,
                    5,
                )));
            let y = gpu.alloc_atomic_f32(n);
            let mut host = Vec::new();
            let (_, download) = gpu
                .launch_into_host("fill", &Fill { y: &y }, cfg, mode, &y, &mut host)
                .unwrap();
            let on_host = download.written.is_some();
            let err = download.finish().expect_err("checksum must catch the flip");
            assert_eq!(gpu.diagnostics().checksum_catches, 1);
            // The fault is spent: a relaunch recovers the exact frame.
            y.fill_zero();
            let (_, download) = gpu
                .launch_into_host("fill", &Fill { y: &y }, cfg, mode, &y, &mut host)
                .unwrap();
            download.finish().expect("second transfer is clean");
            assert_eq!(host, expected, "{mode:?}");
            (err, on_host)
        };
        let (fused, on_host) = run(ExecMode::Batched);
        assert!(on_host, "the batched launch must write the host buffer");
        let (device, on_host) = run(ExecMode::Reference);
        assert!(!on_host, "the reference launch must keep the device image");
        assert!(
            matches!(fused, GpuError::TransferCorrupted { chunk: 5 }),
            "got {fused:?}"
        );
        assert_eq!(format!("{fused:?}"), format!("{device:?}"));
    }

    #[test]
    fn stuck_lane_times_out_within_deadline_and_pool_rebuilds() {
        let clean = VirtualGpu::gtx480().with_workers(3);
        let expected = saxpy_frame(&clean, 4096).unwrap();

        let stall = Duration::from_millis(300);
        let gpu = VirtualGpu::gtx480()
            .with_workers(3)
            .with_watchdog(Duration::from_millis(30))
            .with_fault_plan(Arc::new(
                FaultPlan::single(FaultKind::StuckLane, 0, 0).with_stall(stall),
            ));
        let start = std::time::Instant::now();
        let err = saxpy_frame(&gpu, 4096).expect_err("stuck lane must time out");
        assert!(
            start.elapsed() < stall,
            "watchdog must fire before the stall ends"
        );
        assert!(
            matches!(err, GpuError::LaunchTimeout { deadline_ms: 30 }),
            "got {err:?}"
        );
        assert_eq!(gpu.diagnostics().timeouts, 1);

        // The very next launch rebuilds the pool and recovers bit-exactly.
        let retried = saxpy_frame(&gpu, 4096).expect("retry after rebuild");
        assert_eq!(retried, expected);
        assert_eq!(gpu.diagnostics().pool_rebuilds, 1);
    }

    #[test]
    fn texture_bind_fault_fires_once() {
        let gpu = VirtualGpu::gtx480().with_fault_plan(Arc::new(FaultPlan::single(
            FaultKind::TextureBindFail,
            0,
            0,
        )));
        let r = gpu.bind_texture(4, 4, 1, vec![0.0; 16]);
        assert!(matches!(r, Err(GpuError::TextureBind(_))));
        assert!(gpu.bind_texture(4, 4, 1, vec![0.0; 16]).is_ok());
    }

    #[test]
    fn telemetry_records_launch_traces_with_lane_events() {
        let sink = Arc::new(GpuTelemetry::new());
        let expected = saxpy_frame(&VirtualGpu::gtx480().with_workers(4), 4096).unwrap();
        // Both builder orders: rebuilding the pool for a new width must
        // keep the lane rings recording.
        let devices = [
            VirtualGpu::gtx480()
                .with_workers(4)
                .with_telemetry(Arc::clone(&sink)),
            VirtualGpu::gtx480()
                .with_telemetry(Arc::clone(&sink))
                .with_workers(4),
        ];
        for gpu in &devices {
            let traced = saxpy_frame(gpu, 4096).unwrap();
            assert_eq!(traced, expected, "telemetry must not perturb results");

            let launches = sink.take_launches();
            assert_eq!(launches.len(), 1);
            let t = &launches[0];
            assert_eq!(t.name, "saxpy");
            assert_eq!(t.mode, "batched");
            assert_eq!(t.launch, 0);
            assert!(t.end_us >= t.start_us);
            let (d0, d1) = t.dispatch_us.expect("dispatch window stamped");
            assert!(d0 >= t.start_us && d1 >= d0);
            let (m0, m1) = t.merge_us.expect("batched launch stamps a merge");
            assert!(m0 >= d1 && m1 >= m0);
            assert!(t.modeled_kernel_s > 0.0);
            assert!(
                t.lane_events
                    .iter()
                    .any(|e| e.kind == crate::telemetry::LaneEventKind::Launch),
                "lane events must include the publish: {:?}",
                t.lane_events
            );
            assert!(t.lane_events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
            assert_eq!(t.events_dropped, 0);
            assert!(sink.is_empty(), "take_launches drains the sink");
        }
    }

    /// Spawn dispatch — the retry ladder's first rung, reached through the
    /// dispatch override — must be observationally identical to pooled
    /// dispatch in both executors: same counters, modeled time and image.
    #[test]
    fn dispatch_override_matches_pooled_results() {
        let run = |gpu: &VirtualGpu| {
            let n = 4096;
            let (x, _) = gpu.upload((0..n).map(|i| i as f32).collect::<Vec<_>>());
            let (y, _) = gpu.upload_atomic_f32(&vec![0.5f32; n]);
            let k = Saxpy {
                a: 2.0,
                x: &x,
                y: &y,
                n,
            };
            let p = gpu
                .launch("saxpy", &k, LaunchConfig::new(32u32, 128u32))
                .unwrap();
            (p.counters, p.time_s, gpu.download(&y).0)
        };
        for mode in [ExecMode::Reference, ExecMode::Batched] {
            let gpu = VirtualGpu::gtx480().with_workers(4).with_exec_mode(mode);
            let pooled = run(&gpu);
            gpu.set_dispatch_override(true);
            let spawned = run(&gpu);
            gpu.set_dispatch_override(false);
            let pooled_again = run(&gpu);
            assert_eq!(
                pooled, spawned,
                "ladder rung 1 must be bit-identical ({mode:?})"
            );
            assert_eq!(pooled, pooled_again);
        }
    }
}
