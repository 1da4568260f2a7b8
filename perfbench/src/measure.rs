//! Statistics and process readings shared by every workload.

use std::collections::BTreeMap;

/// Nearest-rank percentile `q` (0–100] of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// User + system CPU time of this process (every thread, living or
/// joined), seconds. Linux reports it in clock ticks of `USER_HZ`, which
/// is 100 on every mainstream kernel.
pub fn process_cpu_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated, utime and stime being the 12th and
    // 13th of them.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(sys)) => (user + sys) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The 1-minute load average.
pub fn load_avg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// One window of a timed phase: its ops, their latencies and the CPU the
/// process spent.
#[derive(Default)]
pub struct Window {
    pub seconds: f64,
    pub ops: u64,
    pub cpu_s: f64,
    pub latencies_ms: Vec<f64>,
}

/// Sets the timed end-to-end metrics as medians over windows of the run,
/// so a stall of the host for a few seconds moves one window, not the
/// result: throughput, nearest-rank p50 and p95 latency, CPU per op.
pub fn window_medians(windows: &[Window], out: &mut Outcome) {
    let each =
        |f: &dyn Fn(&Window) -> f64| -> f64 { median(&windows.iter().map(f).collect::<Vec<_>>()) };
    out.set("ops_per_s", each(&|w| w.ops as f64 / w.seconds));
    out.set("op_p50_ms", each(&|w| percentile(&w.latencies_ms, 50.0)));
    out.set("op_p95_ms", each(&|w| percentile(&w.latencies_ms, 95.0)));
    out.set(
        "cpu_ms_per_op",
        each(&|w| w.cpu_s * 1e3 / w.ops.max(1) as f64),
    );
    out.param("windows", windows.len());
    let samples = windows.iter().map(|w| w.latencies_ms.len()).min();
    out.param("latency_samples_per_window_min", samples.unwrap_or(0));
}

/// Named metric values one workload produced, plus the run's operation
/// accounting.
#[derive(Default)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub failures: Vec<String>,
    /// Workload parameters and sample counts for the run context.
    pub params: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn param(&mut self, name: &'static str, value: impl ToString) {
        self.params.push((name, value.to_string()));
    }

    /// Counts one checked operation; a failed check counts as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 100.0);
        assert_eq!(percentile(&s, 95.0), 190.0);
        assert_eq!(percentile(&[3.0], 95.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(load_avg_1m() >= 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {}
        assert!(process_cpu_s() > 0.0);
    }
}
