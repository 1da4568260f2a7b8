//! starsim's benchmark: one workload per run, end-to-end metrics with
//! `--trace 0`, per-layer metrics from a separate traced run with
//! `--trace 1`. Every run checks the program's outputs; any failed check
//! counts in `failed` and makes the exit code 1.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-stream --seed 1 --seconds 10 --trace 0 [--smoke] [--trace-dir DIR]
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is the run context. See `perfbench/README.md` for the
//! workloads, the metric definitions and the held-out seed.

mod measure;
mod serve;
mod stream;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use measure::{json_num, json_str, load_avg_1m, peak_rss_mb, Outcome};

/// The seed runs use unless told otherwise.
const DEFAULT_SEED: u64 = 1;
/// Reserved for checking a later change's claim: never use it while
/// developing that change.
const HELD_OUT_SEED: u64 = 7_919;

const WORKLOADS: [&str; 3] = ["paper-stream", "sparse-wide", "serve-mixed"];

/// End-to-end metrics, reported by every workload. An "op" is a frame on
/// the stream workloads and a request on serve-mixed.
const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics. A workload that never calls a layer reports 0 for
/// its metrics.
const PER_LAYER: [(&str, &str); 44] = [
    ("check.pixel_err_ratio", "ratio"),
    ("gpusim.modeled_frame_ms", "ms"),
    ("starfield.view_us", "us"),
    ("starfield.stars_in_view", "count"),
    ("starfield.sky_build_us", "us"),
    ("psf.lut_build_ms", "ms"),
    ("core.prepare_us", "us"),
    ("core.render_us", "us"),
    ("core.download_us", "us"),
    ("core.retries", "count"),
    ("frames.produce_busy_s", "s"),
    ("frames.consume_busy_s", "s"),
    ("frames.overlap_efficiency", "ratio"),
    ("gpusim.launch_us", "us"),
    ("gpusim.launch_self_us", "us"),
    ("gpusim.dispatch_us", "us"),
    ("gpusim.merge_us", "us"),
    ("gpusim.modeled_kernel_ms", "ms"),
    ("gpusim.modeled_transfer_ms", "ms"),
    ("gpusim.tex_hit_ratio", "ratio"),
    ("gpusim.global_tx_per_req", "ratio"),
    ("gpusim.atomic_conflict_ratio", "ratio"),
    ("gpusim.warps", "count"),
    ("gpusim.faults", "count"),
    ("server.monitor_us", "us"),
    ("server.open_us", "us"),
    ("server.open_miss_us", "us"),
    ("server.close_us", "us"),
    ("server.request_self_us", "us"),
    ("server.handler_panics", "count"),
    ("server.deadline_misses", "count"),
    ("serve.open_req_hit_p50_ms", "ms"),
    ("serve.open_req_miss_p50_ms", "ms"),
    ("serve.open_req_p95_ms", "ms"),
    ("admission.admitted", "count"),
    ("admission.reject_ratio", "ratio"),
    ("lut_cache.hit_ratio", "ratio"),
    ("lut_cache.evictions", "count"),
    ("trace.op_us", "us"),
    ("trace.unaccounted_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("run.fail_ratio", "ratio"),
    ("run.attempted", "count"),
    ("run.load_avg_1m", "load"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub smoke: bool,
    pub trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
        smoke: false,
        trace_dir: Some(PathBuf::from(".perfbench_out")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The run context: host, toolchain, build, inputs and sample counts.
fn context(args: &Args, out: &Outcome, load_start: f64, load_end: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    let mut fields = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("seconds", json_num(args.seconds.as_secs_f64())),
        ("trace", args.trace.to_string()),
        ("smoke", args.smoke.to_string()),
        ("nproc", nproc.to_string()),
        ("rustc", json_str(&command_line("rustc", &["--version"]))),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit", json_str(&commit)),
        ("load_avg_1m_start", json_num(load_start)),
        ("load_avg_1m_end", json_num(load_end)),
        ("attempted", out.attempted.to_string()),
        ("failed", out.failed.to_string()),
    ];
    let params: Vec<String> = out
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    fields.push(("params", format!("{{{}}}", params.join(", "))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"context\": {{{}}}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let load_start = load_avg_1m();
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "paper-stream" => stream::run(stream::Shape::paper(args.smoke), &args, &mut out),
        "sparse-wide" => stream::run(stream::Shape::sparse(args.smoke), &args, &mut out),
        _ => serve::run(&args, &mut out),
    }
    out.set("peak_rss_mb", peak_rss_mb());
    let load_end = load_avg_1m();
    out.set(
        "run.fail_ratio",
        measure::ratio(out.failed as f64, out.attempted as f64),
    );
    out.set("run.attempted", out.attempted as f64);
    out.set("run.load_avg_1m", load_end);

    for failure in &out.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|&(name, unit)| {
            let value = match out.values.get(name) {
                Some(&v) => v,
                None if args.trace => 0.0, // the workload never calls this layer
                None => panic!("workload {} did not report {name}", args.workload),
            };
            eprintln!("perfbench: {name:<30} {value:>16.6} {unit}");
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    println!("{}", context(&args, &out, load_start, load_end));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
