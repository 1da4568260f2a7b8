//! Session amortization study: with the lookup table resident across
//! frames (the paper's realistic deployed-simulator mode), the adaptive
//! design's non-kernel penalty vanishes and the inflection point with it.

use gpusim::VirtualGpu;
use starfield::workload;
use starsim_core::{AdaptiveSession, ParallelSimulator, Simulator};

use super::format::{ms, Table};
use super::Context;

/// Sweeps star counts comparing per-frame session cost against both
/// one-shot GPU simulators.
pub fn run(ctx: &Context) -> Table {
    let exponents: Vec<u32> = if ctx.quick {
        vec![8, 10, 12]
    } else {
        vec![8, 10, 12, 13, 14, 16]
    };
    let config = ctx.sim_config(1024, 1024, 10);
    let session = AdaptiveSession::on(VirtualGpu::gtx480(), config.clone()).expect("session");
    let par = ParallelSimulator::new();

    let mut t = Table::new(vec![
        "stars",
        "parallel_ms",
        "adaptive_oneshot_ms",
        "session_frame_ms",
        "session_winner_everywhere",
    ]);
    for exp in exponents {
        eprintln!("session: 2^{exp} stars ...");
        let w = workload::test1(exp, ctx.seed);
        let ada = starsim_core::AdaptiveSimulator::new()
            .simulate(&w.catalog, &config)
            .expect("adaptive");
        let rp = par.simulate(&w.catalog, &config).expect("parallel");
        let frame = session.render(&w.catalog).expect("session frame");
        let wins = frame.app_time_s < rp.app_time_s && frame.app_time_s < ada.app_time_s;
        t.row(vec![
            format!("2^{exp}"),
            ms(rp.app_time_s),
            ms(ada.app_time_s),
            ms(frame.app_time_s),
            if wins { "yes" } else { "no" }.to_string(),
        ]);
    }
    let _ = t.write_csv(&ctx.out_path("session.csv"));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_study_runs_quick() {
        let ctx = Context {
            quick: true,
            out_dir: std::env::temp_dir().join("starsim_session"),
            ..Default::default()
        };
        assert_eq!(run(&ctx).len(), 3);
    }
}
