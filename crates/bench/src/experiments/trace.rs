//! Telemetry benchmark: the cost of the tracing layer and a Perfetto
//! trace export.
//!
//! Two questions, answered in one run and recorded in `BENCH_PR4.json`:
//!
//! 1. **What does observability cost when it is on?** A session with a
//!    full [`Telemetry`] sink attached (spans on every pipeline stage,
//!    lane-event rings recording, launch traces draining) must track the
//!    telemetry-off baseline of the same workload within noise (the PR
//!    gate is ≤ 3%, same shape and method as the chaos gate).
//! 2. **Is the exported trace real?** The Chrome trace-event JSON written
//!    by the run is parsed back (with the in-tree parser), and the file
//!    must contain nested host spans for at least six distinct pipeline
//!    stages plus per-lane launch instants from the worker pool's rings.

use std::path::PathBuf;
use std::time::Instant;

use gpusim::{DeviceSpec, VirtualGpu};
use starfield::catalog::StarCatalog;
use starfield::FieldGenerator;
use starsim_core::telemetry::{parse_json, write_chrome_trace, JsonValue};
use starsim_core::{AdaptiveSession, LutCache, Telemetry};

use super::format::{write_json_object, Json, Table};
use super::Context;

/// Headline shape: the paper's test-1 workload at 2^13 stars (the same
/// shape the chaos and pipeline gates measure).
const IMAGE_SIZE: usize = 1024;
const ROI_SIDE: usize = 10;
const STAR_COUNT: usize = 1 << 13;

/// The acceptance floor on distinct host pipeline stages in the trace.
const MIN_STAGES: usize = 6;

fn catalog(seed: u64) -> StarCatalog {
    FieldGenerator::new(IMAGE_SIZE, IMAGE_SIZE).generate(STAR_COUNT, seed)
}

/// A pooled+reuse session at the headline shape, with or without a sink.
fn session(
    ctx: &Context,
    workers: usize,
    telemetry: Option<&std::sync::Arc<Telemetry>>,
) -> AdaptiveSession {
    let mut config = ctx.sim_config(IMAGE_SIZE, IMAGE_SIZE, ROI_SIDE);
    config.workers = Some(workers);
    match telemetry {
        None => AdaptiveSession::on(VirtualGpu::gtx480(), config).expect("session"),
        Some(t) => {
            let cache = LutCache::new();
            AdaptiveSession::on_telemetry(
                VirtualGpu::gtx480(),
                config,
                Some(&cache),
                std::sync::Arc::clone(t),
            )
            .expect("telemetry session")
        }
    }
}

/// Best-of-`reps` sustained fps over `frames` identical frames. With a
/// sink, every frame is additionally wrapped in a `frame` span — span
/// recording is part of the measured cost.
fn sustained_fps(
    session: &AdaptiveSession,
    cat: &StarCatalog,
    frames: usize,
    reps: usize,
    telemetry: Option<&std::sync::Arc<Telemetry>>,
) -> f64 {
    let mut host = Vec::new();
    session.render_into(cat, &mut host).expect("warmup");
    let mut best = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..frames {
            let _frame = telemetry.map(|t| t.span("frame"));
            session.render_into(cat, &mut host).expect("render");
        }
        let fps = frames as f64 / start.elapsed().as_secs_f64();
        best = best.max(fps);
    }
    best
}

/// Shape facts extracted from the parsed trace file.
struct TraceShape {
    valid: bool,
    host_stages: usize,
    nested_spans: usize,
    lane_instants: usize,
    lane_launches: usize,
}

fn inspect_trace(text: &str) -> TraceShape {
    let mut shape = TraceShape {
        valid: false,
        host_stages: 0,
        nested_spans: 0,
        lane_instants: 0,
        lane_launches: 0,
    };
    let Ok(doc) = parse_json(text) else {
        return shape;
    };
    let Some(events) = doc.get("traceEvents").and_then(JsonValue::as_array) else {
        return shape;
    };
    shape.valid = true;
    let mut stages = std::collections::BTreeSet::new();
    for e in events {
        let ph = e.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        let pid = e.get("pid").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let name = e.get("name").and_then(JsonValue::as_str).unwrap_or("");
        if ph == "X" && pid == 1.0 {
            stages.insert(name.to_string());
            let parent = e
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            if parent != 0.0 {
                shape.nested_spans += 1;
            }
        }
        if ph == "i" {
            shape.lane_instants += 1;
            if name == "launch" {
                shape.lane_launches += 1;
            }
        }
    }
    shape.host_stages = stages.len();
    shape
}

/// Runs the overhead measurement and the trace export + parse-back
/// validation; writes the trace file and `BENCH_PR4.json`.
pub fn run(ctx: &Context) -> Table {
    let frames = if ctx.quick { 6 } else { 24 };
    let reps = if ctx.quick { 2 } else { 3 };
    let workers = ctx
        .workers
        .unwrap_or(DeviceSpec::gtx480().sm_count as usize);

    // 1. Telemetry-off vs telemetry-on throughput (the ≤3% gate).
    eprintln!("trace: baseline ({frames} frames, {workers} workers) ...");
    let cat = catalog(ctx.seed);
    let baseline_fps = sustained_fps(&session(ctx, workers, None), &cat, frames, reps, None);

    eprintln!("trace: telemetry-on ({frames} frames) ...");
    let telemetry = Telemetry::new();
    let observed = {
        // Star generation is a pipeline stage too: regenerate the catalog
        // under a span so the trace shows it (outside the timed loop, as
        // the frame loop reuses the catalog in both measured runs).
        let _gen = telemetry.span("star-gen");
        catalog(ctx.seed)
    };
    let traced_session = session(ctx, workers, Some(&telemetry));
    let telemetry_fps = sustained_fps(&traced_session, &observed, frames, reps, Some(&telemetry));
    let overhead_pct = (1.0 - telemetry_fps / baseline_fps) * 100.0;
    let gate_ok = overhead_pct <= 3.0;
    if !gate_ok {
        eprintln!("trace: WARNING: telemetry overhead {overhead_pct:.2}% exceeds the 3% gate");
    }

    // 2. Export the trace and parse it back.
    let trace_path: PathBuf = ctx
        .trace_path
        .clone()
        .unwrap_or_else(|| ctx.out_path("trace.json"));
    write_chrome_trace(&telemetry, &trace_path).expect("write trace");
    let text = std::fs::read_to_string(&trace_path).expect("read trace back");
    let shape = inspect_trace(&text);
    let stages_ok = shape.valid && shape.host_stages >= MIN_STAGES && shape.nested_spans > 0;
    eprintln!(
        "trace: wrote {} ({} bytes, {} host stages, {} lane events)",
        trace_path.display(),
        text.len(),
        shape.host_stages,
        shape.lane_instants
    );

    let ft = telemetry.frame_telemetry();
    if ctx.metrics {
        print!("{}", ft.render());
    }

    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["baseline_fps".into(), format!("{baseline_fps:.2}")]);
    t.row(vec!["telemetry_fps".into(), format!("{telemetry_fps:.2}")]);
    t.row(vec!["overhead_pct".into(), format!("{overhead_pct:.2}")]);
    t.row(vec!["gate_ok".into(), gate_ok.to_string()]);
    t.row(vec!["spans".into(), ft.spans_recorded.to_string()]);
    t.row(vec!["host_stages".into(), shape.host_stages.to_string()]);
    t.row(vec!["stages_ok".into(), stages_ok.to_string()]);
    t.row(vec!["gpu_launches".into(), ft.gpu_launches.to_string()]);
    t.row(vec!["lane_events".into(), shape.lane_instants.to_string()]);
    t.row(vec![
        "lane_launches".into(),
        shape.lane_launches.to_string(),
    ]);
    t.row(vec!["trace_valid".into(), shape.valid.to_string()]);

    let _ = write_json_object(
        &ctx.out_path("BENCH_PR4.json"),
        &[
            ("workload", Json::Str("test1/2^13".into())),
            ("frames", Json::Int(frames as u64)),
            ("workers", Json::Int(workers as u64)),
            ("baseline_fps", Json::f3(baseline_fps)),
            ("telemetry_fps", Json::f3(telemetry_fps)),
            ("overhead_pct", Json::f3(overhead_pct)),
            ("gate_ok", Json::Bool(gate_ok)),
            ("spans", Json::Int(ft.spans_recorded as u64)),
            ("host_stages", Json::Int(shape.host_stages as u64)),
            ("stages_ok", Json::Bool(stages_ok)),
            ("gpu_launches", Json::Int(ft.gpu_launches as u64)),
            ("lane_events", Json::Int(shape.lane_instants as u64)),
            ("lane_launches", Json::Int(shape.lane_launches as u64)),
            ("nested_spans", Json::Int(shape.nested_spans as u64)),
            ("trace_valid", Json::Bool(shape.valid)),
        ],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_study_runs_quick_and_writes_artefacts() {
        let dir = std::env::temp_dir().join("starsim_trace_bench");
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = Context {
            quick: true,
            out_dir: dir.clone(),
            workers: Some(2),
            trace_path: Some(dir.join("trace.json")),
            ..Default::default()
        };
        let t = run(&ctx);
        assert_eq!(t.len(), 11, "eleven metric rows");

        let json = std::fs::read_to_string(dir.join("BENCH_PR4.json")).unwrap();
        for key in [
            "baseline_fps",
            "telemetry_fps",
            "overhead_pct",
            "\"stages_ok\": true",
            "\"trace_valid\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }

        let text = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        let shape = inspect_trace(&text);
        assert!(shape.valid);
        assert!(
            shape.host_stages >= MIN_STAGES,
            "only {} host stages",
            shape.host_stages
        );
        assert!(shape.nested_spans > 0, "spans must nest");
        assert!(shape.lane_launches > 0, "lane launch instants missing");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
