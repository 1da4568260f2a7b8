//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer,
//! plus the launch windows the device's own `GpuTelemetry` sink stamps.
//! All timestamps are microseconds on the process-wide telemetry clock
//! (`gpusim::telemetry::now_us`), so device and host spans nest on one
//! timeline. Spans stay in memory and are written out at the end.

use std::collections::BTreeMap;
use std::path::Path;

use starsim::gpu::telemetry::now_us;

use crate::measure::{json_str, median};
use crate::Args;

/// One span: a call into a layer (or a device-stamped window).
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    /// The frame index (streams) or request id (serve) it belongs to.
    pub op: u64,
    /// True when the duration was reported by the server: its position
    /// inside the parent is unknown, so it starts at the parent's start.
    pub reported: bool,
}

impl Span {
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Opens a span now; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        self.push(name, now_us(), 0, parent, op)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_us = now_us();
    }

    /// Records a finished span with known bounds.
    pub fn push(
        &mut self,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            op,
            reported: false,
        });
        self.spans.len() - 1
    }

    /// Records a child whose duration the server reported.
    pub fn push_reported(&mut self, name: &'static str, dur_us: u64, parent: usize) -> usize {
        let (start_us, op) = (self.spans[parent].start_us, self.spans[parent].op);
        let span = self.push(name, start_us, start_us + dur_us, Some(parent), op);
        self.spans[span].reported = true;
        span
    }

    /// Moves `other`'s spans into this trace.
    pub fn append(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus its children's.
    fn self_us(&self) -> Vec<u64> {
        let mut child_us = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        self.spans
            .iter()
            .zip(child_us)
            .map(|(s, c)| s.dur_us().saturating_sub(c))
            .collect()
    }

    /// Per span name, the median over ops of the span's self time summed
    /// within each op, microseconds.
    pub fn median_self_us(&self) -> BTreeMap<&'static str, f64> {
        let mut per_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (s, self_us) in self.spans.iter().zip(self.self_us()) {
            *per_op.entry((s.name, s.op)).or_default() += self_us;
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), us) in per_op {
            by_name.entry(name).or_default().push(us as f64);
        }
        by_name.into_iter().map(|(n, v)| (n, median(&v))).collect()
    }

    /// Per span name, the median duration, microseconds.
    pub fn median_dur_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us() as f64)
            .collect();
        median(&d)
    }

    /// Total root-span time and the share of it no child layer accounts
    /// for (the roots' own self time).
    pub fn unaccounted_share(&self) -> (u64, f64) {
        let self_us = self.self_us();
        let (mut total, mut unaccounted) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(self_us) {
            if s.parent.is_none() {
                total += s.dur_us();
                unaccounted += own;
            }
        }
        let share = if total > 0 {
            unaccounted as f64 / total as f64
        } else {
            0.0
        };
        (total, share)
    }

    /// Writes the spans to `trace-<workload>-<seed>.json` in the run's
    /// trace directory; a failure to write only warns.
    pub fn save(&self, args: &Args) {
        if let Some(dir) = &args.trace_dir {
            let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
            if let Err(e) = self.write(&path) {
                eprintln!("perfbench: could not write {}: {e}", path.display());
            }
        }
    }

    /// Writes every span as JSON.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}, \"op\": {}, \"reported\": {}}}{}\n",
                json_str(s.name),
                s.start_us,
                s.end_us,
                s.op,
                s.reported,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::default();
        let root = t.push("frame", 0, 100, None, 0);
        let render = t.push("render", 10, 90, Some(root), 0);
        t.push("launch", 20, 80, Some(render), 0);
        let m = t.median_self_us();
        assert_eq!(m["frame"], 20.0);
        assert_eq!(m["render"], 20.0);
        assert_eq!(m["launch"], 60.0);
        let (total, share) = t.unaccounted_share();
        assert_eq!(total, 100);
        assert!((share - 0.2).abs() < 1e-12);
    }
}
