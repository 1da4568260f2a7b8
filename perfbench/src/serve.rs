//! The `serve-mixed` workload: an in-process `starsimd` on loopback with
//! the default `ServerConfig`, driven by two closed-loop clients (each
//! waits for its reply before sending the next request, like a
//! hardware-in-the-loop caller).
//!
//! * `hot` holds one session (512², ROI 10, 20 000 sky stars) and sends
//!   4-frame `Render` bursts: always a LUT-cache hit, render-dominated.
//! * `churn` runs `OpenSession` → 1-frame `Render` → `CloseSession` per
//!   request on 256² with 5 000 sky stars and an ROI side drawn by seed
//!   from eight even sides — twice the per-tenant quota of four, so about
//!   half the opens hit the LUT cache and half build a table.
//!
//! It is the only workload that reaches the protocol, admission, server,
//! LUT cache and session set-up layers.

use std::time::Instant;

use starsim::field::dynamics::AttitudeDynamics;
use starsim::field::generator::synthetic_sky;
use starsim::field::{Attitude, Camera};
use starsim::gpu::VirtualGpu;
use starsim::sim::protocol::{Message, RenderDone, SessionSpec};
use starsim::sim::server::{digest_fold, DIGEST_SEED};
use starsim::sim::{
    AdaptiveSession, AdaptiveSimulator, CancelToken, Client, FrameSequencer, ServerConfig,
    ServerHandle, StarServer,
};

use simrng::Rng64;

use crate::measure::{median, percentile, process_cpu_s, ratio, window_medians, Outcome, Window};
use crate::stream::{
    overlap_bursts, pixel_err_ratio, time_ms, trace_frames, Scene, EXPOSURE_S, FOV_DEG, FRAME_DT_S,
};
use crate::trace::Trace;
use crate::Args;

/// Frames per hot `Render` burst.
const HOT_FRAMES: u32 = 4;
/// The churn client's ROI sides: twice the default per-tenant quota.
const CHURN_ROIS: [u32; 8] = [6, 8, 10, 12, 14, 16, 18, 20];
/// Churn requests in each set-up's warm-up.
const CHURN_WARMUP: usize = 4;
/// Independent set-ups per run; `setup_s` is their median. A set-up is
/// cheap but noisy: each connect waits up to one 25 ms accept-poll
/// interval of the server, so a run takes many.
const SETUPS: usize = 15;
/// Windows of the timed phase; the timed metrics are medians over them.
const WINDOWS: usize = 8;
/// In the traced run, every this-many hot requests one `Monitor` call.
const MONITOR_EVERY: u64 = 8;
/// Churn request ids start here, apart from hot ones.
const CHURN_OP_BASE: u64 = 1 << 32;

struct Specs {
    hot: SessionSpec,
    churn: SessionSpec,
}

impl Specs {
    fn new(smoke: bool, seed: u64) -> Specs {
        let spec = |side: u32, stars: u32, tenant: &str| SessionSpec {
            width: side,
            height: side,
            roi_side: 10,
            stars,
            seed,
            backend: 0,
            tenant: tenant.into(),
        };
        if smoke {
            Specs {
                hot: spec(128, 2_000, "hot"),
                churn: spec(64, 1_000, "churn"),
            }
        } else {
            Specs {
                hot: spec(512, 20_000, "hot"),
                churn: spec(256, 5_000, "churn"),
            }
        }
    }
}

/// What one churn request observed.
struct ChurnSample {
    done: Instant,
    hit: bool,
    total_ms: f64,
    open_us: f64,
}

/// One connection-pair against one server: the hot session and the
/// churn RNG.
struct Rig {
    server: ServerHandle,
    hot: Client,
    churn: Client,
    session: u64,
    rng: Rng64,
    /// The hot session's first burst.
    first: RenderDone,
}

fn expect_done(
    reply: Result<Message, impl std::fmt::Display>,
    frames: u32,
) -> Result<RenderDone, String> {
    match reply {
        Ok(Message::RenderDone(d)) if d.completed == frames && !d.deadline_missed => Ok(d),
        Ok(other) => Err(format!("unexpected render reply {other:?}")),
        Err(e) => Err(format!("render failed: {e}")),
    }
}

fn open(client: &mut Client, spec: &SessionSpec) -> Result<(u64, bool), String> {
    match client.request(&Message::OpenSession(spec.clone())) {
        Ok(Message::SessionOpen {
            session,
            lut_cache_hit,
        }) => Ok((session, lut_cache_hit)),
        Ok(other) => Err(format!("unexpected open reply {other:?}")),
        Err(e) => Err(format!("open failed: {e}")),
    }
}

/// Microseconds since `t0`.
fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// One churn request: open → 1-frame render → close, with spans when
/// traced.
fn churn_request(
    client: &mut Client,
    spec: &SessionSpec,
    rng: &mut Rng64,
    trace: Option<(&mut Trace, u64)>,
) -> Result<ChurnSample, String> {
    let mut spec = spec.clone();
    spec.roi_side = CHURN_ROIS[rng.range_usize(0, CHURN_ROIS.len())];
    let t0 = Instant::now();
    match trace {
        None => {
            let t_open = Instant::now();
            let (session, hit) = open(client, &spec)?;
            let open_us = us(t_open);
            expect_done(client.render(session, 1, 0), 1)?;
            client
                .close_session(session)
                .map_err(|e| format!("close failed: {e}"))?;
            Ok(ChurnSample {
                done: Instant::now(),
                hit,
                total_ms: us(t0) / 1e3,
                open_us,
            })
        }
        Some((trace, op)) => {
            let root = trace.open("churn.request", None, op);
            let span = trace.open("client.open", Some(root), op);
            let (session, hit) = open(client, &spec)?;
            trace.close(span);
            let open_us = trace.spans[span].dur_us() as f64;
            let span = trace.open("client.render", Some(root), op);
            let done = expect_done(client.render(session, 1, 0), 1)?;
            trace.close(span);
            trace.push_reported("server.burst", done.wall_us, span);
            let span = trace.open("client.close", Some(root), op);
            client
                .close_session(session)
                .map_err(|e| format!("close failed: {e}"))?;
            trace.close(span);
            trace.close(root);
            Ok(ChurnSample {
                done: Instant::now(),
                hit,
                total_ms: us(t0) / 1e3,
                open_us,
            })
        }
    }
}

/// Boots a server, opens the hot session, renders its first burst and
/// warms the churn path.
fn setup(specs: &Specs, seed: u64, out: &mut Outcome) -> Rig {
    let server = StarServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind server");
    let mut hot = Client::connect(server.addr()).expect("connect hot client");
    let mut churn = Client::connect(server.addr()).expect("connect churn client");
    let (session, _) = open(&mut hot, &specs.hot).expect("open the hot session");
    let first =
        expect_done(hot.render(session, HOT_FRAMES, 0), HOT_FRAMES).expect("first hot burst");
    let mut rng = Rng64::new(seed ^ 0x5eed_c4a2);
    for _ in 0..CHURN_WARMUP {
        let r = churn_request(&mut churn, &specs.churn, &mut rng, None);
        out.check(r.is_ok(), || {
            format!("warm-up churn request: {}", r.err().unwrap_or_default())
        });
    }
    Rig {
        server,
        hot,
        churn,
        session,
        rng,
        first,
    }
}

/// The hot session's scene as `starsimd` builds it: `spec.seed` fixes a
/// synthetic sky, a 10° FOV points at (ra 1.0, dec 0.2) and drifts at
/// 5e-4 rad/s.
fn hot_scene(spec: &SessionSpec) -> Scene {
    let config = spec.validate().expect("valid hot spec");
    Scene {
        sky: synthetic_sky(spec.stars as usize, 0.0, 6.0, spec.seed),
        camera: Camera::from_fov(FOV_DEG.to_radians(), config.width, config.height)
            .expect("valid camera"),
        dynamics: AttitudeDynamics::new(Attitude::pointing(1.0, 0.2, 0.0), [5e-4, 0.0, 0.0]),
        config,
    }
}

/// An in-process replica of the server's hot session.
fn replica_sequencer(scene: &Scene) -> FrameSequencer {
    let session = AdaptiveSession::on(VirtualGpu::gtx480(), scene.config.clone()).expect("session");
    FrameSequencer::on_session(
        session,
        scene.sky.clone(),
        scene.camera,
        scene.dynamics,
        EXPOSURE_S,
        FRAME_DT_S,
    )
    .expect("replica sequencer")
}

/// Checks the replica renders the server's first burst bit for bit, then
/// measures frame 0's pixel error against the sequential simulator.
fn check_replica(replica: &Scene, first: &RenderDone, out: &mut Outcome) -> FrameSequencer {
    let mut seq = replica_sequencer(replica);
    let mut digest = DIGEST_SEED;
    let mut frame0 = Vec::new();
    seq.run_frames_pipelined_observed(HOT_FRAMES as usize, &CancelToken::new(), |f| {
        for p in f.pixels {
            digest = digest_fold(digest, &p.to_bits().to_le_bytes());
        }
        if frame0.is_empty() {
            frame0 = f.pixels.to_vec();
        }
    })
    .expect("replica burst");
    out.check(digest == first.digest, || {
        format!(
            "replica digest {digest:#x} differs from the server's {:#x}",
            first.digest
        )
    });
    let catalog = replica.view(replica.dynamics.attitude);
    out.set("starfield.stars_in_view", catalog.len() as f64);
    let err = pixel_err_ratio(&catalog, &replica.config, frame0);
    out.check(err <= 1.0, || format!("pixel_err_ratio {err} exceeds 1"));
    out.set("check.pixel_err_ratio", err);
    seq
}

/// Per-client results of the timed phase.
#[derive(Default)]
struct Loop {
    /// Untraced hot round trips: (completion, milliseconds).
    hot_ms: Vec<(Instant, f64)>,
    hot_traced_ms: Vec<(Instant, f64)>,
    churn: Vec<ChurnSample>,
    failures: Vec<String>,
    attempted: u64,
    trace: Trace,
}

/// The hot client's closed loop. Traced runs alternate untraced and
/// traced requests so the overhead is measured on the same stream.
fn hot_loop(client: &mut Client, session: u64, until: Instant, traced: bool) -> Loop {
    let mut l = Loop::default();
    let mut op = 0u64;
    while Instant::now() < until {
        let spans = traced && op % 2 == 1;
        let t0 = Instant::now();
        let result = if spans {
            let root = l.trace.open("request", None, op);
            let span = l.trace.open("client.render", Some(root), op);
            let r = expect_done(client.render(session, HOT_FRAMES, 0), HOT_FRAMES);
            l.trace.close(span);
            if let Ok(done) = &r {
                l.trace.push_reported("server.burst", done.wall_us, span);
            }
            l.trace.close(root);
            r
        } else {
            expect_done(client.render(session, HOT_FRAMES, 0), HOT_FRAMES)
        };
        let ms = us(t0) / 1e3;
        l.attempted += 1;
        match result {
            Ok(_) if spans => l.hot_traced_ms.push((Instant::now(), ms)),
            Ok(_) => l.hot_ms.push((Instant::now(), ms)),
            Err(e) => l.failures.push(e),
        }
        if traced && op.is_multiple_of(MONITOR_EVERY) {
            let span = l.trace.open("client.monitor", None, op);
            let m = client.monitor();
            l.trace.close(span);
            l.attempted += 1;
            if let Err(e) = m {
                l.failures.push(format!("monitor failed: {e}"));
            }
        }
        op += 1;
    }
    l
}

fn churn_loop(
    client: &mut Client,
    spec: &SessionSpec,
    rng: &mut Rng64,
    until: Instant,
    traced: bool,
) -> Loop {
    let mut l = Loop::default();
    let mut op = CHURN_OP_BASE;
    while Instant::now() < until {
        let trace = traced.then_some((&mut l.trace, op));
        let r = churn_request(client, spec, rng, trace);
        l.attempted += 1;
        match r {
            Ok(sample) => l.churn.push(sample),
            Err(e) => l.failures.push(e),
        }
        op += 1;
    }
    l
}

pub fn run(args: &Args, out: &mut Outcome) {
    let specs = Specs::new(args.smoke, args.seed);
    out.param(
        "hot",
        format!(
            "{0}x{0} roi {1} stars {2} x{HOT_FRAMES} frames",
            specs.hot.width, specs.hot.roi_side, specs.hot.stars
        ),
    );
    out.param(
        "churn",
        format!(
            "{0}x{0} roi {CHURN_ROIS:?} stars {1}",
            specs.churn.width, specs.churn.stars
        ),
    );
    out.param("clients", "2 closed-loop (hot, churn)");

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept: Option<Rig> = None;
    let mut first_digest = None;
    for _ in 0..SETUPS {
        if let Some(rig) = kept.take() {
            shutdown(rig);
        }
        let t0 = Instant::now();
        let rig = setup(&specs, args.seed, out);
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(first) = first_digest {
            out.check(rig.first.digest == first, || {
                format!(
                    "set-ups disagree on the first hot burst: {:#x} vs {first:#x}",
                    rig.first.digest
                )
            });
        }
        first_digest = Some(rig.first.digest);
        kept = Some(rig);
    }
    out.set("setup_s", median(&setup_s));
    out.param("setups", SETUPS);
    let mut rig = kept.expect("SETUPS >= 1");
    out.set(
        "gpusim.modeled_frame_ms",
        rig.first.app_time_us as f64 / f64::from(HOT_FRAMES) / 1e3,
    );

    let timed_for = if args.trace {
        args.seconds.mul_f64(0.6)
    } else {
        args.seconds
    };
    let t0 = Instant::now();
    let until = t0 + timed_for;
    let (hot, churn, cpu_s) = std::thread::scope(|scope| {
        let (hot_client, session) = (&mut rig.hot, rig.session);
        let hot = scope.spawn(move || hot_loop(hot_client, session, until, args.trace));
        let (churn_client, rng, churn_spec) = (&mut rig.churn, &mut rig.rng, &specs.churn);
        let churn =
            scope.spawn(move || churn_loop(churn_client, churn_spec, rng, until, args.trace));
        // Process CPU at each window boundary.
        let cpu_s: Vec<f64> = (0..=WINDOWS)
            .map(|k| {
                let at = t0 + timed_for.mul_f64(k as f64 / WINDOWS as f64);
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                process_cpu_s()
            })
            .collect();
        (
            hot.join().expect("hot client"),
            churn.join().expect("churn client"),
            cpu_s,
        )
    });
    let requests = hot.attempted + churn.attempted;
    out.attempted += requests;
    out.failed += (hot.failures.len() + churn.failures.len()) as u64;
    out.failures
        .extend(hot.failures.iter().chain(&churn.failures).cloned());
    let window_of = |at: Instant| {
        let k = (at.duration_since(t0).as_secs_f64() / timed_for.as_secs_f64() * WINDOWS as f64)
            as usize;
        (k < WINDOWS).then_some(k)
    };
    let mut windows: Vec<Window> = (0..WINDOWS)
        .map(|k| Window {
            seconds: timed_for.as_secs_f64() / WINDOWS as f64,
            cpu_s: cpu_s[k + 1] - cpu_s[k],
            ..Window::default()
        })
        .collect();
    for &(at, ms) in &hot.hot_ms {
        if let Some(k) = window_of(at) {
            windows[k].ops += 1;
            windows[k].latencies_ms.push(ms);
        }
    }
    for at in hot
        .hot_traced_ms
        .iter()
        .map(|&(at, _)| at)
        .chain(churn.churn.iter().map(|s| s.done))
    {
        if let Some(k) = window_of(at) {
            windows[k].ops += 1;
        }
    }
    window_medians(&windows, out);
    out.param("hot_samples", hot.hot_ms.len());
    out.param("churn_samples", churn.churn.len());

    let by_hit = |hit: bool, f: fn(&ChurnSample) -> f64| -> Vec<f64> {
        churn.churn.iter().filter(|s| s.hit == hit).map(f).collect()
    };
    let all_churn: Vec<f64> = churn.churn.iter().map(|s| s.total_ms).collect();
    out.set(
        "serve.open_req_hit_p50_ms",
        median(&by_hit(true, |s| s.total_ms)),
    );
    out.set(
        "serve.open_req_miss_p50_ms",
        median(&by_hit(false, |s| s.total_ms)),
    );
    out.set("serve.open_req_p95_ms", percentile(&all_churn, 95.0));
    out.set("server.open_us", median(&by_hit(true, |s| s.open_us)));
    out.set("server.open_miss_us", median(&by_hit(false, |s| s.open_us)));

    // The hot session renders bit-identically to a fresh one of the same
    // spec, and the in-process replica to both.
    let fresh = open(&mut rig.hot, &specs.hot).and_then(|(session, _)| {
        let done = expect_done(rig.hot.render(session, HOT_FRAMES, 0), HOT_FRAMES);
        rig.hot
            .close_session(session)
            .map_err(|e| format!("close failed: {e}"))?;
        done
    });
    let first_digest = rig.first.digest;
    out.check(matches!(&fresh, Ok(d) if d.digest == first_digest), || {
        format!(
            "fresh-session burst {fresh:?} differs from the hot session's first {first_digest:#x}"
        )
    });
    let replica = hot_scene(&specs.hot);
    let mut replica_seq = check_replica(&replica, &rig.first, out);

    if args.trace {
        let mut trace = hot.trace;
        trace.append(churn.trace);
        server_layers(&rig.server, &trace, &hot.hot_ms, &hot.hot_traced_ms, out);
        replica_layers(&replica, &mut replica_seq, &specs, args, out);
        trace.save(args);
    }
    shutdown(rig);
}

/// Median of timestamped latencies.
fn ms_median(samples: &[(Instant, f64)]) -> f64 {
    median(&samples.iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
}

fn shutdown(rig: Rig) {
    let Rig {
        server, hot, churn, ..
    } = rig;
    drop((hot, churn));
    server.shutdown();
}

/// Layer metrics of the protocol, server, admission and LUT cache.
fn server_layers(
    server: &ServerHandle,
    trace: &Trace,
    hot_ms: &[(Instant, f64)],
    hot_traced_ms: &[(Instant, f64)],
    out: &mut Outcome,
) {
    let self_us = trace.median_self_us();
    let get = |name: &str| self_us.get(name).copied().unwrap_or(0.0);
    out.set("server.monitor_us", trace.median_dur_us("client.monitor"));
    out.set("server.close_us", trace.median_dur_us("client.close"));
    out.set("server.request_self_us", get("client.render"));
    out.set("trace.op_us", trace.median_dur_us("request"));
    let (_, unaccounted) = trace.unaccounted_share();
    out.set("trace.unaccounted_share", unaccounted);
    out.set(
        "trace.overhead_ratio",
        ms_median(hot_traced_ms) / ms_median(hot_ms) - 1.0,
    );

    let adm = server.admission().stats();
    out.set("admission.admitted", adm.admitted as f64);
    out.set(
        "admission.reject_ratio",
        ratio(adm.rejected as f64, (adm.admitted + adm.rejected) as f64),
    );
    out.set("server.handler_panics", server.handler_panics() as f64);
    out.set("server.deadline_misses", server.deadline_misses() as f64);
    let lut = server.lut_cache().stats();
    out.set(
        "lut_cache.hit_ratio",
        ratio(lut.hits as f64, (lut.hits + lut.misses) as f64),
    );
    out.set("lut_cache.evictions", lut.evictions as f64);
}

/// The per-frame layers of the hot scene, measured on the in-process
/// replica (the server's own devices carry no telemetry sink).
fn replica_layers(
    replica: &Scene,
    seq: &mut FrameSequencer,
    specs: &Specs,
    args: &Args,
    out: &mut Outcome,
) {
    let builder = AdaptiveSimulator::new();
    let optics: Vec<f64> = std::iter::once(replica.config.clone())
        .chain(CHURN_ROIS.iter().map(|&roi| {
            let mut spec = specs.churn.clone();
            spec.roi_side = roi;
            spec.validate().expect("valid churn spec")
        }))
        .map(|config| time_ms(1, || builder.build_lut(&config).expect("lookup table")))
        .collect();
    out.set("psf.lut_build_ms", median(&optics));
    let (stars, seed) = (specs.churn.stars as usize, specs.churn.seed);
    out.set(
        "starfield.sky_build_us",
        time_ms(5, || synthetic_sky(stars, 0.0, 6.0, seed)) * 1e3,
    );

    let mut frame_trace = Trace::default();
    let mut frame_out = Outcome::default();
    trace_frames(
        replica,
        args.seconds.mul_f64(0.25),
        &mut frame_trace,
        &mut frame_out,
    );
    // The request-level trace owns the op, unaccounted and overhead
    // figures; the replica contributes the per-frame layers only.
    for (name, value) in frame_out.values {
        if !name.starts_with("trace.") {
            out.set(name, value);
        }
    }
    out.attempted += frame_out.attempted;

    overlap_bursts(seq, HOT_FRAMES as usize, args.seconds.mul_f64(0.1), out);
    out.set("core.retries", seq.resilience_report().retries as f64);
}
