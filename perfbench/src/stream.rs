//! The frame-stream workloads: `FrameSequencer::run_frames_pipelined`
//! over a dense or a sparse sky.
//!
//! * `paper-stream` — the paper's test-1 headline as a stream: 2^13 stars
//!   on a dense lattice in a 10° FOV, 1024², ROI 10. Kernel-bound: the
//!   launch (per-star dispatch plus shadow merge) dominates the frame.
//! * `sparse-wide` — 2^8 stars on 4096² (`MAX_IMAGE_DIM`), ROI 10. The
//!   64 MiB frame is far larger than a core's L2, so the per-frame cost
//!   scales with pixels (download, image path), not stars.
//!
//! Both run the point PSF, the batched executor, the scalar backend and
//! the default worker count. The platform drifts by the same number of
//! pixels per frame on both shapes, slow enough that the smear PSF never
//! engages and every star stays on the sensor for the whole run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use starsim::field::dynamics::AttitudeDynamics;
use starsim::field::{Attitude, Camera, SkyCatalog, SkyStar, StarCatalog};
use starsim::gpu::{GlobalAtomicF32, VirtualGpu};
use starsim::image::{compare, ImageF32};
use starsim::sim::server::{digest_fold, DIGEST_SEED};
use starsim::sim::validate::{criterion_for, Criterion};
use starsim::sim::{
    AdaptiveSession, AdaptiveSimulator, CancelToken, FrameSequencer, FrameTiming, PipelinedFrame,
    PsfKind, SequentialSimulator, SimConfig, Simulator, Telemetry,
};

use crate::measure::{median, process_cpu_s, ratio, window_medians, Outcome, Window};
use crate::trace::Trace;
use crate::Args;

/// The scene every stream shares with `starsimd`: a 10° FOV, 0.05 s
/// exposures every 0.1 s.
pub const FOV_DEG: f64 = 10.0;
pub const EXPOSURE_S: f64 = 0.05;
pub const FRAME_DT_S: f64 = 0.1;
/// Attitude rate at 1024 px; scaled by `1024 / width` so the image-plane
/// drift per frame is the same on every shape: about 0.03 px per frame,
/// so every frame differs while no star leaves the sensor within a few
/// thousand frames — the work per frame stays the same for the whole run.
const DRIFT_RAD_S_AT_1024: f64 = 5e-5;
/// Frames of the warm-up burst, whose digest is checked against the
/// sequential loop.
const CHECK_FRAMES: usize = 4;
/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The shape of one stream workload.
#[derive(Clone, Copy)]
pub struct Shape {
    pub stars: usize,
    pub width: usize,
    pub roi: usize,
    /// Sky fields per run, each on its own sequencer. A sequencer's speed
    /// depends on where its large buffers land in memory (one in four
    /// runs ~30% faster on a 2-vCPU KVM guest), so a run averages over
    /// several.
    pub fields: usize,
    /// Frames per pipelined burst in the timed phase.
    pub burst: usize,
}

impl Shape {
    pub fn paper(smoke: bool) -> Shape {
        if smoke {
            Shape {
                stars: 1 << 10,
                width: 256,
                roi: 10,
                fields: 2,
                burst: 8,
            }
        } else {
            Shape {
                stars: 1 << 13,
                width: 1024,
                roi: 10,
                fields: 16,
                burst: 16,
            }
        }
    }

    pub fn sparse(smoke: bool) -> Shape {
        if smoke {
            Shape {
                stars: 1 << 6,
                width: 1024,
                roi: 10,
                fields: 1,
                burst: 8,
            }
        } else {
            Shape {
                stars: 1 << 8,
                width: 4096,
                roi: 10,
                fields: 2,
                burst: 64,
            }
        }
    }
}

/// A sky with exactly `stars` stars on a plastic-number lattice over the
/// central 84% of the field of view around (ra 0, dec 0) — the same dense,
/// low-discrepancy layout as the pipeline experiment. The seed shifts the
/// lattice and so every position and magnitude.
fn dense_sky(stars: usize, fov_rad: f64, seed: u64) -> SkyCatalog {
    const PHI1: f64 = 0.754_877_666_246_692_8;
    const PHI2: f64 = 0.569_840_290_998_053_2;
    let offset = (seed % 4096) as f64 * PHI2;
    (0..stars)
        .map(|i| {
            let t = i as f64 + offset;
            let ra = ((t * PHI1).fract() - 0.5) * 0.84 * fov_rad;
            let dec = ((t * PHI2).fract() - 0.5) * 0.84 * fov_rad;
            let mag = 6.0 * ((t * PHI1 * 7.0).fract() as f32);
            SkyStar::new(ra, dec, mag)
        })
        .collect()
}

/// Everything the program receives for one stream of frames.
pub struct Scene {
    pub sky: SkyCatalog,
    pub camera: Camera,
    pub dynamics: AttitudeDynamics,
    pub config: SimConfig,
}

impl Scene {
    fn new(shape: Shape, seed: u64) -> Scene {
        let fov = FOV_DEG.to_radians();
        let config = SimConfig::new(shape.width, shape.width, shape.roi);
        let camera = Camera::from_fov(fov, shape.width, shape.width).expect("valid camera");
        let drift = DRIFT_RAD_S_AT_1024 * 1024.0 / shape.width as f64;
        Scene {
            sky: dense_sky(shape.stars, fov, seed),
            camera,
            dynamics: AttitudeDynamics::new(Attitude::pointing(0.0, 0.0, 0.0), [drift, 0.0, 0.0]),
            config,
        }
    }

    fn sequencer(&self) -> FrameSequencer {
        FrameSequencer::on_device(
            VirtualGpu::gtx480(),
            self.sky.clone(),
            self.camera,
            self.dynamics,
            self.config.clone(),
            EXPOSURE_S,
            FRAME_DT_S,
        )
        .expect("stream sequencer")
    }

    pub fn view(&self, attitude: Attitude) -> StarCatalog {
        self.sky
            .view(attitude, &self.camera, self.config.roi_side as f32)
    }
}

/// Digest of one frame: image bits, launch counters and modeled time.
fn frame_digest(hash: u64, pixels: &[f32], timing_counters: &str, app_time_s: f64) -> u64 {
    let mut h = hash;
    for p in pixels {
        h = digest_fold(h, &p.to_bits().to_le_bytes());
    }
    h = digest_fold(h, timing_counters.as_bytes());
    digest_fold(h, &app_time_s.to_bits().to_le_bytes())
}

fn pipelined_digest(hash: u64, frame: &PipelinedFrame<'_>) -> u64 {
    let counters = format!("{:?}", frame.timing.counters);
    frame_digest(hash, frame.pixels, &counters, frame.timing.app_time_s)
}

fn timing_digest(hash: u64, pixels: &[f32], timing: &FrameTiming) -> u64 {
    frame_digest(
        hash,
        pixels,
        &format!("{:?}", timing.counters),
        timing.app_time_s,
    )
}

/// Largest absolute pixel error of `pixels` against the sequential
/// simulator on the same in-view catalogue, normalized by the reference
/// peak, over the bound the program holds its adaptive path to
/// (`validate::criterion_for`): the LUT's magnitude-bin quantization plus
/// its snap of each star to the nearest phase centre.
pub fn pixel_err_ratio(catalog: &StarCatalog, config: &SimConfig, pixels: Vec<f32>) -> f64 {
    let reference = SequentialSimulator::new()
        .simulate(catalog, config)
        .expect("sequential reference");
    let frame = ImageF32::from_data(config.width, config.height, pixels);
    let peak = reference
        .image
        .data()
        .iter()
        .copied()
        .fold(0.0f32, f32::max);
    let bound = match criterion_for("adaptive-session", config).expect("adaptive criterion") {
        Criterion::PeakNormalized(bound) => bound,
        other => panic!("unexpected adaptive criterion {other:?}"),
    };
    let err = compare(&reference.image, &frame, 0.0).max_abs / peak.max(1e-20);
    f64::from(err) / f64::from(bound)
}

/// The sequential reference: the digest of the first `CHECK_FRAMES`
/// frames of `FrameSequencer::next_frame`, plus frame 0's pixel error.
fn reference(scene: &Scene, sample_pixels: bool, out: &mut Outcome) -> u64 {
    let mut seq = scene.sequencer();
    let mut h = DIGEST_SEED;
    for i in 0..CHECK_FRAMES {
        let f = seq.next_frame().expect("sequential frame");
        let counters = format!("{:?}", f.report.profile.kernels[0].counters);
        h = frame_digest(h, f.report.image.data(), &counters, f.report.app_time_s);
        if i == 0 && sample_pixels {
            let catalog = scene.view(f.attitude);
            out.set("starfield.stars_in_view", catalog.len() as f64);
            let err = pixel_err_ratio(&catalog, &scene.config, f.report.image.data().to_vec());
            out.check(err <= 1.0, || format!("pixel_err_ratio {err} exceeds 1"));
            out.set("check.pixel_err_ratio", err);
        }
    }
    out.check(seq.config().psf == PsfKind::Point, || {
        "the drift engaged the smear PSF".into()
    });
    h
}

/// Builds a sequencer and runs the warm-up burst, checking its digest.
/// Returns the sequencer and the burst's mean modeled frame time.
fn setup(scene: &Scene, expected: u64, out: &mut Outcome) -> (FrameSequencer, f64) {
    let mut seq = scene.sequencer();
    let mut h = DIGEST_SEED;
    let report = seq
        .run_frames_pipelined_observed(CHECK_FRAMES, &CancelToken::new(), |f| {
            h = pipelined_digest(h, f)
        })
        .expect("warm-up burst");
    out.check(h == expected, || {
        format!("pipelined digest {h:#x} differs from the sequential {expected:#x}")
    });
    (seq, report.mean_app_time_s)
}

pub fn run(shape: Shape, args: &Args, out: &mut Outcome) {
    // Field j's lattice comes from seed·fields + j, so fields never
    // repeat across seeds.
    let scenes: Vec<Scene> = (0..shape.fields as u64)
        .map(|j| {
            Scene::new(
                shape,
                args.seed.wrapping_mul(shape.fields as u64).wrapping_add(j),
            )
        })
        .collect();
    out.param("stars", shape.stars);
    out.param("image", format!("{0}x{0}", shape.width));
    out.param("roi_side", shape.roi);
    out.param("sky_fields", shape.fields);
    out.param("burst_frames", shape.burst);
    out.param("psf", "point");
    out.param("exec_mode", format!("{:?}", scenes[0].config.exec_mode));
    out.param("backend", format!("{:?}", scenes[0].config.backend));
    out.param("workers", "default");
    let expected: Vec<u64> = scenes
        .iter()
        .enumerate()
        .map(|(j, scene)| reference(scene, j == 0, out))
        .collect();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept: Vec<FrameSequencer> = Vec::new();
    for _ in 0..SETUPS {
        kept.clear(); // one set of sequencers alive at a time
        let t0 = Instant::now();
        for (j, (scene, &digest)) in scenes.iter().zip(&expected).enumerate() {
            let (seq, modeled_s) = setup(scene, digest, out);
            if j == 0 {
                out.set("gpusim.modeled_frame_ms", modeled_s * 1e3);
            }
            kept.push(seq);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setup_s));
    out.param("setups", SETUPS);

    if args.trace {
        traced(&scenes[0], &mut kept[0], shape, args, expected[0], out);
    } else {
        timed(&mut kept, shape, args, out);
    }
    for (scene, seq) in scenes.iter().zip(&kept) {
        let last = scene.view(scene.dynamics.at(seq.time_s()));
        out.check(last.len() == shape.stars, || {
            format!(
                "{} of {} stars left in view at the end",
                last.len(),
                shape.stars
            )
        });
    }
}

/// The untraced timed phase: pipelined bursts, round robin over the sky
/// fields, in whole rounds until `--seconds` pass. Each round (every
/// field once) is one window of the metrics.
fn timed(seqs: &mut [FrameSequencer], shape: Shape, args: &Args, out: &mut Outcome) {
    let token = CancelToken::new();
    let n = shape.burst as u64;
    let mut windows = Vec::new();
    let t0 = Instant::now();
    while windows.is_empty() || t0.elapsed() < args.seconds {
        let mut w = Window::default();
        let cpu0 = process_cpu_s();
        for seq in seqs.iter_mut() {
            let result = seq.run_frames_pipelined_observed(shape.burst, &token, |f| {
                w.latencies_ms.push(f.timing.wall_time_s * 1e3)
            });
            out.attempted += n;
            w.ops += n;
            match result {
                Ok(report) => {
                    w.seconds += report.elapsed_s;
                    let faults = report.diagnostics.total() + report.resilience.faults_seen;
                    if faults > 0 {
                        out.failed += n;
                        out.failures
                            .push(format!("burst saw {faults} device faults"));
                    }
                }
                Err(e) => {
                    out.failed += n;
                    out.failures.push(format!("burst failed: {e}"));
                }
            }
        }
        w.cpu_s = process_cpu_s() - cpu0;
        windows.push(w);
    }
    window_medians(&windows, out);
}

/// The per-frame layer calls of one stream, driven by the benchmark in
/// the order the pipelined loop makes them, on one session. Traced frames
/// attach the program's existing telemetry sink (whose device half
/// stamps the launch windows); untraced frames detach it. Both kinds run
/// on the same session and buffers, so their difference is the tracing
/// cost alone.
struct FrameDriver {
    session: AdaptiveSession,
    telemetry: Arc<Telemetry>,
    image: GlobalAtomicF32,
    host: Vec<f32>,
}

impl FrameDriver {
    fn new(config: &SimConfig) -> FrameDriver {
        let session = AdaptiveSession::on(VirtualGpu::gtx480(), config.clone()).expect("session");
        FrameDriver {
            image: session.alloc_frame_image(),
            session,
            telemetry: Telemetry::new(),
            host: Vec::new(),
        }
    }

    /// One untraced frame; returns its wall time, microseconds.
    fn plain_frame(&mut self, sky: &SkyCatalog, camera: &Camera, attitude: Attitude) -> f64 {
        self.session.set_telemetry(None);
        let t0 = Instant::now();
        let roi = self.session.config().roi_side as f32;
        let catalog = sky.view(attitude, camera, roi);
        let prepared = self.session.prepare_stars(&catalog);
        self.session
            .render_prepared_into(&prepared, &self.image, &mut self.host)
            .expect("untraced frame");
        t0.elapsed().as_secs_f64() * 1e6
    }

    /// One traced frame: spans around each layer call plus the device's
    /// launch windows. Returns the frame's timing and its wall time
    /// including the trace bookkeeping, microseconds.
    fn traced_frame(
        &mut self,
        trace: &mut Trace,
        op: u64,
        sky: &SkyCatalog,
        camera: &Camera,
        attitude: Attitude,
    ) -> (FrameTiming, f64) {
        self.session
            .set_telemetry(Some(Arc::clone(&self.telemetry)));
        let t0 = Instant::now();
        let roi = self.session.config().roi_side as f32;
        let root = trace.open("frame", None, op);
        let span = trace.open("starfield.view", Some(root), op);
        let catalog = sky.view(attitude, camera, roi);
        trace.close(span);
        let span = trace.open("core.prepare_stars", Some(root), op);
        let prepared = self.session.prepare_stars(&catalog);
        trace.close(span);
        let render = trace.open("core.render_prepared_into", Some(root), op);
        let timing = self
            .session
            .render_prepared_into(&prepared, &self.image, &mut self.host)
            .expect("traced frame");
        trace.close(render);
        trace.close(root);
        for launch in self.telemetry.gpu_sink().take_launches() {
            let l = trace.push(
                "gpusim.launch",
                launch.start_us,
                launch.end_us,
                Some(render),
                op,
            );
            if let Some((a, b)) = launch.dispatch_us {
                trace.push("gpusim.dispatch", a, b, Some(l), op);
            }
            if let Some((a, b)) = launch.merge_us {
                trace.push("gpusim.merge", a, b, Some(l), op);
            }
        }
        (timing, t0.elapsed().as_secs_f64() * 1e6)
    }
}

/// Runs frames of the scene through a [`FrameDriver`] for `budget`,
/// alternating untraced and traced calls on the same attitudes, and
/// fills the per-frame layer metrics. Returns the traced frames' digest
/// over the first `CHECK_FRAMES`.
pub fn trace_frames(scene: &Scene, budget: Duration, trace: &mut Trace, out: &mut Outcome) -> u64 {
    let (sky, camera, mut dynamics) = (&scene.sky, &scene.camera, scene.dynamics);
    let mut driver = FrameDriver::new(&scene.config);
    let (mut plain_us, mut traced_us) = (Vec::new(), Vec::new());
    let mut first: Option<FrameTiming> = None;
    let mut digest = DIGEST_SEED;
    let t0 = Instant::now();
    let mut frame = 0u64;
    while frame < CHECK_FRAMES as u64 || t0.elapsed() < budget {
        let attitude = dynamics.attitude;
        plain_us.push(driver.plain_frame(sky, camera, attitude));
        let (timing, us) = driver.traced_frame(trace, frame, sky, camera, attitude);
        traced_us.push(us);
        if frame < CHECK_FRAMES as u64 {
            digest = timing_digest(digest, &driver.host, &timing);
        }
        first.get_or_insert(timing);
        dynamics.step(FRAME_DT_S);
        frame += 1;
    }
    out.attempted += 2 * frame;
    let self_us = trace.median_self_us();
    let get = |name: &str| self_us.get(name).copied().unwrap_or(0.0);
    out.set("starfield.view_us", get("starfield.view"));
    out.set("core.prepare_us", get("core.prepare_stars"));
    out.set(
        "core.render_us",
        trace.median_dur_us("core.render_prepared_into"),
    );
    out.set("core.download_us", get("core.render_prepared_into"));
    out.set("gpusim.launch_us", trace.median_dur_us("gpusim.launch"));
    out.set("gpusim.launch_self_us", get("gpusim.launch"));
    out.set("gpusim.dispatch_us", get("gpusim.dispatch"));
    out.set("gpusim.merge_us", get("gpusim.merge"));
    out.set("trace.op_us", trace.median_dur_us("frame"));
    let (_, unaccounted) = trace.unaccounted_share();
    out.set("trace.unaccounted_share", unaccounted);
    out.set(
        "trace.overhead_ratio",
        median(&traced_us) / median(&plain_us) - 1.0,
    );

    let t = first.expect("at least one frame");
    let c = &t.counters;
    out.set("gpusim.modeled_kernel_ms", t.kernel_s * 1e3);
    out.set(
        "gpusim.modeled_transfer_ms",
        (t.star_upload_s + t.serial_transfer_s) * 1e3,
    );
    out.set(
        "gpusim.tex_hit_ratio",
        ratio(c.tex_hits as f64, c.tex_fetches as f64),
    );
    out.set(
        "gpusim.global_tx_per_req",
        ratio(c.global_transactions as f64, c.global_requests as f64),
    );
    out.set(
        "gpusim.atomic_conflict_ratio",
        ratio(c.atomic_conflicts as f64, c.atomic_requests as f64),
    );
    out.set("gpusim.warps", c.warps as f64);
    out.set("gpusim.faults", driver.session.diagnostics().total() as f64);
    out.param("traced_frames", frame);
    digest
}

/// Pipelined bursts of `burst` frames for `budget`: the medians of the
/// producer and consumer busy times and of the measured overlap.
pub fn overlap_bursts(seq: &mut FrameSequencer, burst: usize, budget: Duration, out: &mut Outcome) {
    let (mut produce, mut consume, mut overlap) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while produce.is_empty() || t0.elapsed() < budget {
        let report = seq.run_frames_pipelined(burst).expect("pipelined burst");
        out.attempted += burst as u64;
        let o = report.overlap.expect("pipelined bursts report overlap");
        produce.push(o.produce_busy_s);
        consume.push(o.consume_busy_s);
        overlap.push(o.measured_efficiency);
    }
    out.set("frames.produce_busy_s", median(&produce));
    out.set("frames.consume_busy_s", median(&consume));
    out.set("frames.overlap_efficiency", median(&overlap));
}

/// Median wall time of `reps` calls, milliseconds.
pub fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The traced run: layer spans over the same frames the stream renders,
/// then pipelined bursts for the producer/consumer overlap.
fn traced(
    scene: &Scene,
    seq: &mut FrameSequencer,
    shape: Shape,
    args: &Args,
    expected: u64,
    out: &mut Outcome,
) {
    let builder = AdaptiveSimulator::new();
    out.set(
        "psf.lut_build_ms",
        time_ms(3, || {
            builder.build_lut(&scene.config).expect("lookup table")
        }),
    );

    let mut trace = Trace::default();
    let digest = trace_frames(scene, args.seconds.mul_f64(0.7), &mut trace, out);
    out.check(digest == expected, || {
        format!("traced-loop digest {digest:#x} differs from the sequential {expected:#x}")
    });

    overlap_bursts(seq, shape.burst, args.seconds.mul_f64(0.3), out);
    out.set("core.retries", seq.resilience_report().retries as f64);
    trace.save(args);
}
