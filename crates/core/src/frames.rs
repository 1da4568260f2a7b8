//! Frame sequences: the deployed star simulator as one object.
//!
//! "The developed code is currently used for simulating complex star images
//! in a realistic large-scale star simulator" (paper §V) — i.e. as a box
//! that, given a clock and an attitude trajectory, emits sensor frames in
//! real time. [`FrameSequencer`] wires the whole workspace together:
//! sky catalogue → [`starfield::AttitudeDynamics`] propagation → FOV
//! retrieval → the persistent [`crate::AdaptiveSession`] (lookup table
//! resident across frames) → one [`SimulationReport`] per frame, with the
//! slew-dependent smear applied automatically when it matters.
//!
//! Two frame-loop schedules are offered. [`FrameSequencer::run_frames`] is
//! the sequential reference: each frame's star generation, upload, kernel
//! and download run back to back on the calling thread.
//! [`FrameSequencer::run_frames_pipelined`] double-buffers the loop —
//! frame `N+1`'s attitude propagation, FOV retrieval and star upload run
//! on a producer thread while frame `N`'s kernel and download execute on
//! the caller — and is required to be *bit-identical* to the sequential
//! schedule: same images, same counters, same modeled times, for every
//! seed, worker count and kernel backend.
//!
//! Every schedule renders through the session's one frame path
//! ([`crate::AdaptiveSession::render`], `render_into` and
//! `render_prepared_into` share it), so the session's retry policy, shed
//! floor and cancel token apply to [`FrameSequencer::next_frame`] exactly
//! as to the bursts.

use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

use gpusim::{GpuDiagnostics, VirtualGpu};
use psf::smear::SmearedGaussianPsf;
use starfield::dynamics::AttitudeDynamics;
use starfield::fov::SkyCatalog;
use starfield::projection::Camera;

use crate::config::{PsfKind, SimConfig};
use crate::error::SimError;
use crate::report::SimulationReport;
use crate::resilience::{CancelToken, ResilienceReport, RetryPolicy};
use crate::session::{AdaptiveSession, FrameTiming, LutCache, LutCacheStats, PreparedStars};
use crate::streams::{frame_overlap_estimate, StreamedEstimate};
use crate::telemetry::{maybe_span, FrameTelemetry, Telemetry};

/// A clocked, attitude-propagating frame source.
pub struct FrameSequencer {
    sky: SkyCatalog,
    camera: Camera,
    dynamics: AttitudeDynamics,
    base_config: SimConfig,
    /// Exposure time per frame, seconds (sets the smear length).
    exposure_s: f64,
    /// Frame period, seconds.
    frame_dt: f64,
    session: AdaptiveSession,
    time_s: f64,
    /// Shared LUT cache, when attached: pipelined bursts (re)validate the
    /// table off the render critical path and reports carry its counters.
    lut_cache: Option<Arc<LutCache>>,
    /// The host frame buffer every burst renders into, sized on first use
    /// and reused for the sequencer's lifetime — the steady state
    /// allocates nothing.
    host: Vec<f32>,
}

impl FrameSequencer {
    /// Creates a sequencer on `gpu` — the injection point for fault plans,
    /// watchdog deadlines, and worker counts. `config.width/height` must
    /// match the camera.
    ///
    /// The smear PSF is engaged automatically whenever the commanded rate
    /// streaks stars by more than half a pixel over the exposure.
    pub fn on_device(
        gpu: VirtualGpu,
        sky: SkyCatalog,
        camera: Camera,
        dynamics: AttitudeDynamics,
        config: SimConfig,
        exposure_s: f64,
        frame_dt: f64,
    ) -> Result<Self, SimError> {
        check_camera_and_exposure(&camera, &config, exposure_s, frame_dt)?;
        let session = AdaptiveSession::on(
            gpu,
            Self::frame_config(&config, &camera, &dynamics, exposure_s),
        )?;
        Ok(FrameSequencer {
            sky,
            camera,
            dynamics,
            base_config: config,
            exposure_s,
            frame_dt,
            session,
            time_s: 0.0,
            lut_cache: None,
            host: Vec::new(),
        })
    }

    /// Wraps an already-open session — the server path, where the session
    /// was opened through a shared tenant-attributed [`LutCache`]
    /// ([`AdaptiveSession::builder`] with
    /// [`lut_cache`](crate::SessionBuilder::lut_cache)) before the
    /// sequencer exists. The session's config becomes the base config; the
    /// attitude rate must not engage the smear PSF (the session's lookup
    /// table was built for the base optics), or construction fails.
    pub fn on_session(
        session: AdaptiveSession,
        sky: SkyCatalog,
        camera: Camera,
        dynamics: AttitudeDynamics,
        exposure_s: f64,
        frame_dt: f64,
    ) -> Result<Self, SimError> {
        let base_config = session.config().clone();
        check_camera_and_exposure(&camera, &base_config, exposure_s, frame_dt)?;
        if Self::frame_config(&base_config, &camera, &dynamics, exposure_s) != base_config {
            return Err(SimError::InvalidConfig(
                "attitude rate engages the smear PSF, but the session's lookup \
                 table was built for the unsmeared optics; open the session on \
                 the smeared config or slow the slew"
                    .into(),
            ));
        }
        Ok(FrameSequencer {
            sky,
            camera,
            dynamics,
            base_config,
            exposure_s,
            frame_dt,
            session,
            time_s: 0.0,
            lut_cache: None,
            host: Vec::new(),
        })
    }

    /// The per-frame config: the base config plus the rate-derived smear.
    fn frame_config(
        base: &SimConfig,
        camera: &Camera,
        dynamics: &AttitudeDynamics,
        exposure_s: f64,
    ) -> SimConfig {
        let mut config = base.clone();
        let streak = dynamics.streak_length_px(camera.focal_px, exposure_s) as f32;
        if streak > 0.5 {
            // Image-plane drift direction of a boresight star: with the
            // boresight on +z, d(dir_body)/dt = −ω × ẑ = (−ω_y, +ω_x, 0),
            // so the streak runs at atan2(ω_x, −ω_y) from image +x.
            let angle = (dynamics.omega[0]).atan2(-dynamics.omega[1]) as f32;
            config.psf = PsfKind::Smeared {
                length: streak,
                angle,
            };
            // Grow the ROI to keep the streak's energy, staying under the
            // device's thread-block cap.
            let margin = SmearedGaussianPsf::new(config.sigma, streak, 0.0).margin_for_energy(0.95);
            config.roi_side = (2 * margin + 1).clamp(config.roi_side, 32);
        }
        config
    }

    /// Enables the bounded-retry degradation ladder for every frame,
    /// whether rendered by [`Self::next_frame`] or in a burst.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.session.set_retry_policy(Some(policy));
        self
    }

    /// Attaches a telemetry sink: every frame records spans, metrics and
    /// device launch traces, and [`Self::run_frames`] reports carry a
    /// [`FrameTelemetry`] rollup.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.session.set_telemetry(Some(telemetry));
        self
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.session.telemetry()
    }

    /// Attaches or detaches the telemetry sink in place — servers shed
    /// telemetry detail under load by detaching it, without rebuilding
    /// the sequencer.
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.session.set_telemetry(telemetry);
    }

    /// The underlying session (shed floor, diagnostics, config).
    pub fn session(&self) -> &AdaptiveSession {
        &self.session
    }

    /// Sets the session's load-shedding floor (see
    /// [`AdaptiveSession::set_shed_floor`]).
    pub fn set_shed_floor(&self, floor: crate::resilience::Rung) {
        self.session.set_shed_floor(floor);
    }

    /// Attaches a shared [`LutCache`]. Pipelined bursts prefetch (and
    /// revalidate) the lookup table on the producer thread before the
    /// first frame — off the kernel/download critical path — and every
    /// [`ThroughputReport`] carries the cache's hit/miss/eviction
    /// counters plus the time that prefetch took.
    pub fn with_lut_cache(mut self, cache: Arc<LutCache>) -> Self {
        self.lut_cache = Some(cache);
        self
    }

    /// Cumulative resilience accounting for the underlying session.
    pub fn resilience_report(&self) -> ResilienceReport {
        self.session.resilience_report()
    }

    /// Simulation time of the *next* frame, seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// The active per-frame configuration.
    pub fn config(&self) -> SimConfig {
        Self::frame_config(
            &self.base_config,
            &self.camera,
            &self.dynamics,
            self.exposure_s,
        )
    }

    /// Renders the next frame and advances the clock and attitude.
    pub fn next_frame(&mut self) -> Result<Frame, SimError> {
        let _frame_span = maybe_span(self.session.telemetry(), "frame");
        let attitude = self.dynamics.attitude;
        let config = self.config();
        let star_gen = maybe_span(self.session.telemetry(), "star-gen");
        let catalog = self
            .sky
            .view(attitude, &self.camera, config.roi_side as f32);
        drop(star_gen);
        let report = self.session.render(&catalog)?;
        let frame = Frame {
            index: (self.time_s / self.frame_dt).round() as u64,
            time_s: self.time_s,
            attitude,
            stars_in_view: catalog.len(),
            report,
        };
        self.dynamics.step(self.frame_dt);
        self.time_s += self.frame_dt;
        Ok(frame)
    }

    /// Whether the modeled per-frame cost fits the frame period — the
    /// real-time criterion of the paper's introduction.
    pub fn meets_real_time(&self, frame: &Frame) -> bool {
        frame.report.app_time_s <= self.frame_dt
    }

    /// Renders `n` frames back-to-back through the zero-allocation path
    /// ([`AdaptiveSession::render_into`]) and reports sustained host
    /// throughput. The clock and attitude advance exactly as with
    /// [`Self::next_frame`]; only the per-frame `SimulationReport` (and its
    /// image allocation) is skipped — one pixel buffer serves all frames.
    pub fn run_frames(&mut self, n: usize) -> Result<ThroughputReport, SimError> {
        assert!(n > 0, "need at least one frame");
        let mut totals = BurstTotals::default();
        let mut produce_busy_s = 0.0;
        let mut consume_busy_s = 0.0;
        let start = std::time::Instant::now();
        for _ in 0..n {
            let _frame_span = maybe_span(self.session.telemetry(), "frame");
            let t0 = Instant::now();
            let attitude = self.dynamics.attitude;
            let config = self.config();
            let star_gen = maybe_span(self.session.telemetry(), "star-gen");
            let catalog = self
                .sky
                .view(attitude, &self.camera, config.roi_side as f32);
            drop(star_gen);
            produce_busy_s += t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let timing = self.session.render_into(&catalog, &mut self.host)?;
            consume_busy_s += t1.elapsed().as_secs_f64();
            totals.absorb(&timing);
            self.dynamics.step(self.frame_dt);
            self.time_s += self.frame_dt;
        }
        let elapsed_s = start.elapsed().as_secs_f64();
        Ok(self.throughput_report(totals, produce_busy_s, consume_busy_s, elapsed_s, 0.0))
    }

    /// Renders `n` frames through the frame-pipelined schedule: a scoped
    /// producer thread runs frame `N+1`'s attitude propagation, FOV
    /// retrieval, star generation and star upload while the calling thread
    /// executes frame `N`'s kernel and download. The consumer renders each
    /// frame synchronously on the session's own device image into the
    /// sequencer's host buffer, so the steady state performs no new
    /// allocation.
    ///
    /// **Invariant:** the emitted images, device counters and modeled
    /// times are bit-equal to [`Self::run_frames`] for every seed, worker
    /// count and [`gpusim::KernelBackend`]; faults retry and degrade
    /// through the same [`RetryPolicy`] ladder on the consuming thread, in
    /// frame order, so recovery is bit-identical on rungs 0–1 too.
    pub fn run_frames_pipelined(&mut self, n: usize) -> Result<ThroughputReport, SimError> {
        let token = CancelToken::new();
        self.run_frames_pipelined_observed(n, &token, |_| {})
    }

    /// [`Self::run_frames_pipelined`] with an observer: `on_frame` runs on
    /// the consuming thread after each frame completes, seeing the frame's
    /// pixels in place. Cancelling `token` (from the observer or another
    /// thread) stops production; frames already in flight drain
    /// deterministically, the clock stops exactly after the last completed
    /// frame, and the burst returns [`SimError::Cancelled`]. A later burst
    /// (or [`Self::next_frame`]) resumes bit-identically with where an
    /// uninterrupted run would have been.
    pub fn run_frames_pipelined_observed(
        &mut self,
        n: usize,
        token: &CancelToken,
        mut on_frame: impl FnMut(&PipelinedFrame<'_>),
    ) -> Result<ThroughputReport, SimError> {
        assert!(n > 0, "need at least one frame");
        // Let the retry ladder see the burst's token: a deadline expiring
        // mid-retry stops burning attempts at the next between-attempt
        // checkpoint instead of descending the whole ladder first.
        self.session.set_cancel_token(Some(token.clone()));
        let session = &self.session;
        let host = &mut self.host;
        let sky = &self.sky;
        let camera = &self.camera;
        let base_config = &self.base_config;
        let exposure_s = self.exposure_s;
        let frame_dt = self.frame_dt;
        let start_time_s = self.time_s;
        let start_dynamics = self.dynamics;
        let lut_cache = self.lut_cache.clone();

        let mut totals = BurstTotals::default();
        let mut consume_busy_s = 0.0;
        let mut completed = 0usize;
        let mut error: Option<SimError> = None;
        let mut produce_busy_s = 0.0;
        let mut lut_prefetch_s = 0.0;
        let mut produced: Result<(), SimError> = Ok(());

        let start = Instant::now();
        std::thread::scope(|scope| {
            // Producer stage: stars for frame N+1 while frame N renders.
            // Capacity 1 bounds the producer to at most two prepared
            // frames ahead of the render stage (one queued, one in hand).
            let (tx, rx) = sync_channel::<PreparedStars>(1);
            let producer = scope.spawn(move || -> (f64, f64, Result<(), SimError>) {
                let mut busy_s = 0.0;
                let mut prefetch_s = 0.0;
                if let Some(cache) = &lut_cache {
                    let t0 = Instant::now();
                    let span = maybe_span(session.telemetry(), "lut-prefetch");
                    let result = cache.prefetch(session.gpu(), session.config());
                    drop(span);
                    prefetch_s = t0.elapsed().as_secs_f64();
                    if let Err(e) = result {
                        return (busy_s, prefetch_s, Err(e));
                    }
                }
                let mut dynamics = start_dynamics;
                for _ in 0..n {
                    if token.is_cancelled() {
                        break;
                    }
                    let t0 = Instant::now();
                    let produce_span = maybe_span(session.telemetry(), "frame-produce");
                    let attitude = dynamics.attitude;
                    let config = Self::frame_config(base_config, camera, &dynamics, exposure_s);
                    let star_gen = maybe_span(session.telemetry(), "star-gen");
                    let catalog = sky.view(attitude, camera, config.roi_side as f32);
                    drop(star_gen);
                    let prepared = session.prepare_stars(&catalog);
                    drop(produce_span);
                    dynamics.step(frame_dt);
                    busy_s += t0.elapsed().as_secs_f64();
                    if tx.send(prepared).is_err() {
                        break; // consumer stopped early
                    }
                }
                (busy_s, prefetch_s, Ok(()))
            });

            // Consumer stage (this thread): kernel + download for frame N.
            while let Ok(prepared) = rx.recv() {
                let t0 = Instant::now();
                let frame_span = maybe_span(session.telemetry(), "frame");
                match session.render_prepared(&prepared, host) {
                    Ok(timing) => {
                        drop(frame_span);
                        totals.absorb(&timing);
                        let time_s = start_time_s + completed as f64 * frame_dt;
                        let frame = PipelinedFrame {
                            index: (time_s / frame_dt).round() as u64,
                            time_s,
                            stars_in_view: prepared.star_count(),
                            pixels: host,
                            timing,
                        };
                        completed += 1;
                        consume_busy_s += t0.elapsed().as_secs_f64();
                        on_frame(&frame);
                    }
                    Err(e) => {
                        drop(frame_span);
                        consume_busy_s += t0.elapsed().as_secs_f64();
                        error = Some(e);
                        break;
                    }
                }
            }
            drop(rx); // unblock a producer mid-send
            let (busy_s, prefetch_s, result) = producer.join().expect("producer thread panicked");
            produce_busy_s = busy_s;
            lut_prefetch_s = prefetch_s;
            produced = result;
        });
        let elapsed_s = start.elapsed().as_secs_f64();
        self.session.set_cancel_token(None);

        // The producer propagated its own attitude copy (possibly a frame
        // ahead); re-step the sequencer's state to exactly the completed
        // frames so a later burst resumes bit-identically.
        let mut dynamics = start_dynamics;
        for _ in 0..completed {
            dynamics.step(frame_dt);
        }
        self.dynamics = dynamics;
        self.time_s = start_time_s + completed as f64 * frame_dt;

        if let Some(e) = error {
            return Err(e);
        }
        produced?;
        if completed < n {
            // Distinguish an expired deadline budget from an operator
            // cancel; the drain semantics above were identical either way.
            return Err(token.cancel_error());
        }
        Ok(self.throughput_report(
            totals,
            produce_busy_s,
            consume_busy_s,
            elapsed_s,
            lut_prefetch_s,
        ))
    }

    /// The report of a completed burst: latency percentiles over the
    /// per-frame wall times, the mean modeled frame time, the overlap
    /// accounting, and the session's resilience, diagnostics, cache and
    /// telemetry state as of the end of the burst.
    fn throughput_report(
        &self,
        mut totals: BurstTotals,
        produce_busy_s: f64,
        consume_busy_s: f64,
        elapsed_s: f64,
        lut_prefetch_s: f64,
    ) -> ThroughputReport {
        let frames = totals.latencies_s.len();
        totals.latencies_s.sort_by(f64::total_cmp);
        ThroughputReport {
            frames,
            elapsed_s,
            p50_ms: percentile_ms(&totals.latencies_s, 50.0),
            p99_ms: percentile_ms(&totals.latencies_s, 99.0),
            mean_app_time_s: totals.app_time_s / frames as f64,
            resilience: self.session.resilience_report(),
            diagnostics: self.session.diagnostics(),
            overlap: Some(overlap_report(
                frames,
                &totals,
                produce_busy_s,
                consume_busy_s,
                elapsed_s,
            )),
            lut_cache: self.lut_cache.as_ref().map(|c| c.stats()),
            lut_prefetch_s,
            telemetry: self
                .session
                .telemetry()
                .map(|t| t.frame_telemetry())
                .map(Box::new),
        }
    }
}

/// The construction checks [`FrameSequencer::on_device`] and
/// [`FrameSequencer::on_session`] share: the camera must match the
/// config's image size, and `0 < exposure ≤ frame period`.
fn check_camera_and_exposure(
    camera: &Camera,
    config: &SimConfig,
    exposure_s: f64,
    frame_dt: f64,
) -> Result<(), SimError> {
    if (camera.width, camera.height) != (config.width, config.height) {
        return Err(SimError::InvalidConfig(format!(
            "camera {}x{} does not match config {}x{}",
            camera.width, camera.height, config.width, config.height
        )));
    }
    if !(exposure_s > 0.0 && frame_dt > 0.0 && exposure_s <= frame_dt) {
        return Err(SimError::InvalidConfig(format!(
            "need 0 < exposure ({exposure_s}) ≤ frame period ({frame_dt})"
        )));
    }
    Ok(())
}

/// Per-frame results summed over a burst: host latencies for the
/// percentiles, modeled frame time for the mean, and modeled per-phase
/// totals for the overlap estimate.
#[derive(Debug, Default)]
struct BurstTotals {
    latencies_s: Vec<f64>,
    app_time_s: f64,
    upload_s: f64,
    kernel_s: f64,
    serial_s: f64,
}

impl BurstTotals {
    fn absorb(&mut self, timing: &FrameTiming) {
        self.latencies_s.push(timing.wall_time_s);
        self.app_time_s += timing.app_time_s;
        self.upload_s += timing.star_upload_s;
        self.kernel_s += timing.kernel_s;
        self.serial_s += timing.serial_transfer_s;
    }
}

/// Builds the overlap section of a [`ThroughputReport`] from the burst's
/// modeled phase totals and measured stage-busy times.
fn overlap_report(
    frames: usize,
    totals: &BurstTotals,
    produce_busy_s: f64,
    consume_busy_s: f64,
    elapsed_s: f64,
) -> OverlapReport {
    let modeled = frame_overlap_estimate(frames, totals.upload_s, totals.kernel_s, totals.serial_s);
    OverlapReport {
        modeled_efficiency: {
            let smaller = totals.upload_s.min(totals.kernel_s);
            if smaller <= 0.0 {
                0.0
            } else {
                (modeled.saved_s / smaller).clamp(0.0, 1.0)
            }
        },
        modeled,
        produce_busy_s,
        consume_busy_s,
        measured_efficiency: {
            let smaller = produce_busy_s.min(consume_busy_s);
            if smaller <= 0.0 {
                0.0
            } else {
                ((produce_busy_s + consume_busy_s - elapsed_s).max(0.0) / smaller).clamp(0.0, 1.0)
            }
        },
    }
}

/// Nearest-rank percentile of sorted per-frame latencies, in milliseconds.
fn percentile_ms(sorted_s: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted_s.is_empty());
    let rank = (q / 100.0 * sorted_s.len() as f64).ceil() as usize;
    sorted_s[rank.clamp(1, sorted_s.len()) - 1] * 1e3
}

/// Sustained host throughput over a [`FrameSequencer::run_frames`] burst.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Frames rendered.
    pub frames: usize,
    /// Host wall-clock for the whole burst, seconds.
    pub elapsed_s: f64,
    /// Median per-frame host latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-frame host latency, milliseconds.
    pub p99_ms: f64,
    /// Mean modeled (virtual-GPU) time per frame, seconds.
    pub mean_app_time_s: f64,
    /// Resilience accounting: faults seen, retries spent, rungs used —
    /// cumulative for the session as of the end of the burst (all-zero on
    /// a fault-free run).
    pub resilience: ResilienceReport,
    /// Device resilience counters at the end of the burst, so frame-loop
    /// callers see pool rebuilds / checksum catches / arena drops without
    /// holding a device reference.
    pub diagnostics: GpuDiagnostics,
    /// Modeled-vs-measured overlap accounting for the burst: how much of
    /// the producer stage (star gen + upload) the pipeline could hide
    /// behind the consumer stage (kernel + download), and how much it did.
    pub overlap: Option<OverlapReport>,
    /// Hit/miss/eviction counters of the attached [`LutCache`]
    /// ([`FrameSequencer::with_lut_cache`]); `None` without a cache.
    pub lut_cache: Option<LutCacheStats>,
    /// Wall-clock the pipelined producer spent prefetching the lookup
    /// table before the first frame — LUT work amortized off the render
    /// critical path. Zero for sequential bursts or without a cache.
    pub lut_prefetch_s: f64,
    /// Telemetry rollup (span stages, launch counts, metrics) when a sink
    /// is attached ([`FrameSequencer::with_telemetry`]); `None` otherwise.
    /// Boxed: the rollup is much larger than the scalar fields.
    pub telemetry: Option<Box<FrameTelemetry>>,
}

impl ThroughputReport {
    /// Sustained frames per second (host wall-clock).
    pub fn fps(&self) -> f64 {
        self.frames as f64 / self.elapsed_s
    }
}

/// Overlap accounting for one frame burst: the modeled software-pipeline
/// bound over the burst's phase totals, next to what the host actually
/// overlapped.
#[derive(Debug, Clone, Copy)]
pub struct OverlapReport {
    /// The modeled pipeline bound ([`frame_overlap_estimate`]) over the
    /// burst's star-upload / kernel / serial-transfer totals.
    pub modeled: StreamedEstimate,
    /// `modeled.saved_s` over the smaller of the two overlappable phase
    /// totals, in `[0, 1]`: 1 means the smaller phase disappears entirely
    /// behind the larger.
    pub modeled_efficiency: f64,
    /// Host wall-clock the producer stage (attitude propagation, FOV
    /// retrieval, star generation, star upload) was busy, seconds.
    pub produce_busy_s: f64,
    /// Host wall-clock the consumer stage (kernel + download) was busy,
    /// seconds.
    pub consume_busy_s: f64,
    /// Measured overlap: busy time hidden by running the stages
    /// concurrently, over the smaller stage's busy time, in `[0, 1]`.
    /// Sequential bursts measure ≈ 0; a perfectly overlapped pipeline
    /// measures ≈ 1 (single-core hosts report ≈ 0 either way — the model
    /// above is the capacity estimate).
    pub measured_efficiency: f64,
}

/// One frame as observed in flight by
/// [`FrameSequencer::run_frames_pipelined_observed`]. Borrows the
/// sequencer's host buffer: the pixels are valid for the callback's
/// duration only.
#[derive(Debug)]
pub struct PipelinedFrame<'a> {
    /// Frame number since the sequencer started.
    pub index: u64,
    /// Simulation time the frame was taken, seconds.
    pub time_s: f64,
    /// Stars the FOV retrieval placed on (or near) the sensor.
    pub stars_in_view: usize,
    /// The rendered image, row-major `width × height`.
    pub pixels: &'a [f32],
    /// Per-frame timing decomposition (bit-equal to the sequential path).
    pub timing: FrameTiming,
}

/// One emitted sensor frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame number since the sequencer started.
    pub index: u64,
    /// Simulation time the frame was taken, seconds.
    pub time_s: f64,
    /// Attitude at the start of the exposure.
    pub attitude: starfield::Attitude,
    /// Stars the FOV retrieval placed on (or near) the sensor.
    pub stars_in_view: usize,
    /// The rendering report (image + timings).
    pub report: SimulationReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfield::generator::synthetic_sky;
    use starfield::Attitude;

    fn camera() -> Camera {
        Camera::from_fov(10.0f64.to_radians(), 256, 256).unwrap()
    }

    fn sequencer(omega: [f64; 3]) -> FrameSequencer {
        FrameSequencer::on_device(
            VirtualGpu::gtx480(),
            synthetic_sky(30_000, 0.0, 6.0, 3),
            camera(),
            AttitudeDynamics::new(Attitude::pointing(1.0, 0.2, 0.0), omega),
            SimConfig::new(256, 256, 10),
            0.1,
            0.5,
        )
        .unwrap()
    }

    #[test]
    fn emits_frames_and_advances_time() {
        let mut seq = sequencer([0.0; 3]);
        let f0 = seq.next_frame().unwrap();
        let f1 = seq.next_frame().unwrap();
        assert_eq!(f0.index, 0);
        assert_eq!(f1.index, 1);
        assert_eq!(f0.time_s, 0.0);
        assert!((f1.time_s - 0.5).abs() < 1e-12);
        assert!(f0.stars_in_view > 0);
        assert!(seq.meets_real_time(&f0), "virtual GPU is far under budget");
    }

    #[test]
    fn stationary_attitude_renders_identical_frames() {
        let mut seq = sequencer([0.0; 3]);
        let f0 = seq.next_frame().unwrap();
        let f1 = seq.next_frame().unwrap();
        assert_eq!(f0.report.image, f1.report.image);
    }

    #[test]
    fn slew_moves_the_field_between_frames() {
        let mut seq = sequencer([0.002, 0.0, 0.0]); // gentle slew, no smear
        let f0 = seq.next_frame().unwrap();
        let f1 = seq.next_frame().unwrap();
        assert_ne!(f0.report.image, f1.report.image, "field must drift");
    }

    #[test]
    fn fast_slew_engages_the_smear_psf_and_grows_the_roi() {
        // 1°/s through a ~1465-px focal length over 0.1 s ≈ 2.6 px streak.
        let seq = sequencer([1.0f64.to_radians(), 0.0, 0.0]);
        let cfg = seq.config();
        assert!(
            matches!(cfg.psf, PsfKind::Smeared { length, .. } if length > 1.0),
            "expected smear, got {:?}",
            cfg.psf
        );
        assert!(cfg.roi_side >= 10);
        // A stationary sequencer keeps the point PSF.
        let still = sequencer([0.0; 3]);
        assert!(matches!(still.config().psf, PsfKind::Point));
    }

    #[test]
    fn smear_angle_tracks_the_slew_axis() {
        // Rotation about body x drifts boresight stars along image +y
        // (angle π/2); about body y, along image −x (angle π).
        let about_x = sequencer([1.0f64.to_radians(), 0.0, 0.0]);
        let PsfKind::Smeared { angle, .. } = about_x.config().psf else {
            panic!("expected smear")
        };
        assert!(
            (angle - std::f32::consts::FRAC_PI_2).abs() < 1e-6,
            "angle {angle}"
        );
        let about_y = sequencer([0.0, 1.0f64.to_radians(), 0.0]);
        let PsfKind::Smeared { angle, .. } = about_y.config().psf else {
            panic!("expected smear")
        };
        assert!(
            (angle.abs() - std::f32::consts::PI).abs() < 1e-6,
            "angle {angle}"
        );
    }

    #[test]
    fn run_frames_reports_throughput_and_advances_the_clock() {
        let mut seq = sequencer([0.002, 0.0, 0.0]);
        let report = seq.run_frames(5).unwrap();
        assert_eq!(report.frames, 5);
        assert!(report.elapsed_s > 0.0);
        assert!(report.fps() > 0.0);
        assert!(report.p50_ms > 0.0);
        assert!(report.p99_ms >= report.p50_ms);
        assert!(report.mean_app_time_s > 0.0);
        assert!(
            (seq.time_s() - 2.5).abs() < 1e-12,
            "clock advanced 5 frames"
        );
        // The throughput loop and the report loop see the same sky.
        let f5 = seq.next_frame().unwrap();
        assert_eq!(f5.index, 5);
    }

    #[test]
    fn run_frames_matches_next_frame_timings() {
        let mut by_report = sequencer([0.0; 3]);
        let mut by_burst = sequencer([0.0; 3]);
        let frame = by_report.next_frame().unwrap();
        let burst = by_burst.run_frames(3).unwrap();
        // Stationary attitude: every burst frame models identically to the
        // reported frame (up to the mean's summation rounding).
        let rel = (burst.mean_app_time_s - frame.report.app_time_s).abs() / frame.report.app_time_s;
        assert!(rel < 1e-12, "relative deviation {rel}");
    }

    #[test]
    fn run_frames_recovers_from_faults_with_a_retry_policy() {
        use crate::resilience::RetryPolicy;
        use gpusim::{FaultKind, FaultPlan};
        use std::sync::Arc;
        use std::time::Duration;

        let mut clean = sequencer([0.002, 0.0, 0.0]);
        let baseline = clean.run_frames(4).unwrap();
        assert_eq!(baseline.resilience, ResilienceReport::default());

        let gpu = VirtualGpu::gtx480().with_fault_plan(Arc::new(FaultPlan::single(
            FaultKind::WorkerPanic,
            1,
            2,
        )));
        let mut seq = FrameSequencer::on_device(
            gpu,
            synthetic_sky(30_000, 0.0, 6.0, 3),
            camera(),
            AttitudeDynamics::new(Attitude::pointing(1.0, 0.2, 0.0), [0.002, 0.0, 0.0]),
            SimConfig::new(256, 256, 10),
            0.1,
            0.5,
        )
        .unwrap()
        .with_retry_policy(RetryPolicy {
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        });
        let report = seq.run_frames(4).unwrap();
        assert_eq!(report.frames, 4);
        assert_eq!(report.resilience.panics, 1);
        assert_eq!(report.resilience.retries, 1);
        assert_eq!(
            report.resilience.rung_frames,
            [3, 1, 0, 0],
            "one frame degraded to spawn dispatch, the rest stayed configured"
        );
    }

    #[test]
    fn construction_validation() {
        let sky = synthetic_sky(100, 0.0, 6.0, 1);
        let dynamics = AttitudeDynamics::new(Attitude::IDENTITY, [0.0; 3]);
        // Camera/config mismatch.
        assert!(FrameSequencer::on_device(
            VirtualGpu::gtx480(),
            sky.clone(),
            camera(),
            dynamics,
            SimConfig::new(128, 128, 10),
            0.1,
            0.5,
        )
        .is_err());
        // Exposure longer than the frame period.
        assert!(FrameSequencer::on_device(
            VirtualGpu::gtx480(),
            sky,
            camera(),
            dynamics,
            SimConfig::new(256, 256, 10),
            1.0,
            0.5,
        )
        .is_err());
    }
}
