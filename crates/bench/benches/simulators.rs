//! End-to-end comparison of the three simulators on one mid-scale
//! workload — the wall-time analogue of paper Fig. 9's middle.

include!("common/harness.rs");

use gpusim::VirtualGpu;
use starfield::FieldGenerator;
use starsim_core::{
    AdaptiveSession, AdaptiveSimulator, ParallelSimulator, PixelCentricSimulator,
    SequentialSimulator, SimConfig, Simulator,
};

fn bench_three_simulators() {
    let catalog = FieldGenerator::new(512, 512).generate(2048, 3);
    let config = SimConfig::new(512, 512, 10);

    let seq = SequentialSimulator::new();
    bench("simulators_2048stars_512px/sequential", || {
        seq.simulate(&catalog, &config).unwrap()
    });
    let par = ParallelSimulator::new();
    bench("simulators_2048stars_512px/parallel", || {
        par.simulate(&catalog, &config).unwrap()
    });
    let ada = AdaptiveSimulator::new();
    bench("simulators_2048stars_512px/adaptive", || {
        ada.simulate(&catalog, &config).unwrap()
    });
}

fn bench_pixel_centric_ablation() {
    // Small frame: the rejected design is O(pixels × stars).
    let catalog = FieldGenerator::new(128, 128).generate(256, 5);
    let config = SimConfig::new(128, 128, 10);

    let star = ParallelSimulator::new();
    bench("decomposition_ablation/star_centric", || {
        star.simulate(&catalog, &config).unwrap()
    });
    let pixel = PixelCentricSimulator::new();
    bench("decomposition_ablation/pixel_centric", || {
        pixel.simulate(&catalog, &config).unwrap()
    });
}

fn bench_session_frames() {
    // Per-frame cost of the persistent adaptive session (setup excluded).
    let catalog = FieldGenerator::new(512, 512).generate(2048, 3);
    let config = SimConfig::new(512, 512, 10);
    let session = AdaptiveSession::on(VirtualGpu::gtx480(), config).unwrap();
    bench("session/adaptive_session_frame", || {
        session.render(&catalog).unwrap()
    });
}

fn main() {
    bench_three_simulators();
    bench_pixel_centric_ablation();
    bench_session_frames();
}
