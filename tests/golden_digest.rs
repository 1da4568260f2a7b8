//! Golden digests of batched adaptive frames.
//!
//! Each digest hashes three frames rendered by one `AdaptiveSession`:
//! every image bit, every `Counters` field, the kernel's modeled time and
//! the frame's modeled application time. The pinned values were computed
//! with the per-texel texture-cache simulation, before the batched fast
//! path learned to replay a whole LUT layer on the cache in one step, so
//! this suite holds that optimisation to bit-identical output.
//!
//! The matrix covers ROI sides whose layers are line-aligned (7, 10, 16),
//! not line-aligned (1, 3) and wider than the cache's ways (32), every
//! sub-pixel phase count that changes the layer arithmetic, both kernel
//! backends and two multi-worker counts. The catalogues span the whole
//! image, so many ROIs are edge-clipped, and are dense enough (1000 stars
//! over 15 SMs) that blocks on one SM hit each other's LUT lines.
//! Reference mode is left out because its multi-worker image bits are not
//! reproducible run to run, and single-worker batched runs because the
//! planned fix for that (ROADMAP.md, item 1) changes their accumulation
//! order.
//!
//! A second matrix renders the paper's headline frame (2^13 stars on
//! 1024², ROI 10 and 16), whose deposits spread over many 8192-value merge
//! tiles with rows from several SMs in each. Its digests were computed
//! with the dense per-role shadow merge, before deposits became
//! tile-bucketed lists merged on every pool lane, so it holds that change
//! to bit-identical output too.

use gpusim::{Counters, ExecMode, KernelBackend, VirtualGpu};
use starfield::FieldGenerator;
use starsim_core::{AdaptiveSession, SimConfig, SimulationReport};

const SIDES: [usize; 6] = [1, 3, 7, 10, 16, 32];
const PHASES: [usize; 3] = [1, 2, 4];
const BACKENDS: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Simd];
const WORKERS: [usize; 2] = [2, 15];
const FRAMES: u64 = 3;
const STARS: usize = 1000;
const WIDTH: usize = 128;
const HEIGHT: usize = 96;

/// `(side, phases, backend, workers, digest)`, in matrix order.
const GOLDEN: [(usize, usize, &str, usize, u64); 72] = [
    (1, 1, "scalar", 2, 0x110d6d47591aefba),
    (1, 1, "scalar", 15, 0x110d6d47591aefba),
    (1, 1, "simd", 2, 0x110d6d47591aefba),
    (1, 1, "simd", 15, 0x110d6d47591aefba),
    (1, 2, "scalar", 2, 0x92f8871c2f2017ad),
    (1, 2, "scalar", 15, 0x92f8871c2f2017ad),
    (1, 2, "simd", 2, 0x92f8871c2f2017ad),
    (1, 2, "simd", 15, 0x92f8871c2f2017ad),
    (1, 4, "scalar", 2, 0x092eef8abbe521c6),
    (1, 4, "scalar", 15, 0x092eef8abbe521c6),
    (1, 4, "simd", 2, 0x092eef8abbe521c6),
    (1, 4, "simd", 15, 0x092eef8abbe521c6),
    (3, 1, "scalar", 2, 0x4fe46c303459aba1),
    (3, 1, "scalar", 15, 0x4fe46c303459aba1),
    (3, 1, "simd", 2, 0x4fe46c303459aba1),
    (3, 1, "simd", 15, 0x4fe46c303459aba1),
    (3, 2, "scalar", 2, 0xeb10ce8b1b10f302),
    (3, 2, "scalar", 15, 0xeb10ce8b1b10f302),
    (3, 2, "simd", 2, 0xeb10ce8b1b10f302),
    (3, 2, "simd", 15, 0xeb10ce8b1b10f302),
    (3, 4, "scalar", 2, 0x13cfb86bd4a568c1),
    (3, 4, "scalar", 15, 0x13cfb86bd4a568c1),
    (3, 4, "simd", 2, 0x13cfb86bd4a568c1),
    (3, 4, "simd", 15, 0x13cfb86bd4a568c1),
    (7, 1, "scalar", 2, 0x371eff0ca6067168),
    (7, 1, "scalar", 15, 0x371eff0ca6067168),
    (7, 1, "simd", 2, 0x371eff0ca6067168),
    (7, 1, "simd", 15, 0x371eff0ca6067168),
    (7, 2, "scalar", 2, 0x1af5a767740237fb),
    (7, 2, "scalar", 15, 0x1af5a767740237fb),
    (7, 2, "simd", 2, 0x1af5a767740237fb),
    (7, 2, "simd", 15, 0x1af5a767740237fb),
    (7, 4, "scalar", 2, 0xd0b551e726b9f9d8),
    (7, 4, "scalar", 15, 0xd0b551e726b9f9d8),
    (7, 4, "simd", 2, 0xd0b551e726b9f9d8),
    (7, 4, "simd", 15, 0xd0b551e726b9f9d8),
    (10, 1, "scalar", 2, 0x38faa266709b4045),
    (10, 1, "scalar", 15, 0x38faa266709b4045),
    (10, 1, "simd", 2, 0x38faa266709b4045),
    (10, 1, "simd", 15, 0x38faa266709b4045),
    (10, 2, "scalar", 2, 0xf30862e2b0e6b61b),
    (10, 2, "scalar", 15, 0xf30862e2b0e6b61b),
    (10, 2, "simd", 2, 0xf30862e2b0e6b61b),
    (10, 2, "simd", 15, 0xf30862e2b0e6b61b),
    (10, 4, "scalar", 2, 0x3fd53188cab467fe),
    (10, 4, "scalar", 15, 0x3fd53188cab467fe),
    (10, 4, "simd", 2, 0x3fd53188cab467fe),
    (10, 4, "simd", 15, 0x3fd53188cab467fe),
    (16, 1, "scalar", 2, 0x85f5284421ad0184),
    (16, 1, "scalar", 15, 0x85f5284421ad0184),
    (16, 1, "simd", 2, 0x85f5284421ad0184),
    (16, 1, "simd", 15, 0x85f5284421ad0184),
    (16, 2, "scalar", 2, 0xcd67cf58083a0709),
    (16, 2, "scalar", 15, 0xcd67cf58083a0709),
    (16, 2, "simd", 2, 0xcd67cf58083a0709),
    (16, 2, "simd", 15, 0xcd67cf58083a0709),
    (16, 4, "scalar", 2, 0x42757625e42d435f),
    (16, 4, "scalar", 15, 0x42757625e42d435f),
    (16, 4, "simd", 2, 0x42757625e42d435f),
    (16, 4, "simd", 15, 0x42757625e42d435f),
    (32, 1, "scalar", 2, 0xa5d8dd4b6b00007e),
    (32, 1, "scalar", 15, 0xa5d8dd4b6b00007e),
    (32, 1, "simd", 2, 0xa5d8dd4b6b00007e),
    (32, 1, "simd", 15, 0xa5d8dd4b6b00007e),
    (32, 2, "scalar", 2, 0xfbeb6a9e974170e3),
    (32, 2, "scalar", 15, 0xfbeb6a9e974170e3),
    (32, 2, "simd", 2, 0xfbeb6a9e974170e3),
    (32, 2, "simd", 15, 0xfbeb6a9e974170e3),
    (32, 4, "scalar", 2, 0x76086e719063cff8),
    (32, 4, "scalar", 15, 0x76086e719063cff8),
    (32, 4, "simd", 2, 0x76086e719063cff8),
    (32, 4, "simd", 15, 0x76086e719063cff8),
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hash_counters(h: &mut Fnv, c: &Counters) {
    // Destructured so a new counter field fails to compile here instead of
    // silently escaping the digest.
    let Counters {
        flops_add,
        flops_mul,
        flops_fma,
        flops_special,
        arith_issues,
        special_issues,
        tex_requests,
        global_requests,
        global_transactions,
        shared_requests,
        shared_conflicts,
        tex_fetches,
        tex_hits,
        atomic_requests,
        atomic_conflicts,
        branches,
        divergent_branches,
        barriers,
        threads,
        warps,
        shared_hazards,
    } = *c;
    for v in [
        flops_add,
        flops_mul,
        flops_fma,
        flops_special,
        arith_issues,
        special_issues,
        tex_requests,
        global_requests,
        global_transactions,
        shared_requests,
        shared_conflicts,
        tex_fetches,
        tex_hits,
        atomic_requests,
        atomic_conflicts,
        branches,
        divergent_branches,
        barriers,
        threads,
        warps,
        shared_hazards,
    ] {
        h.u64(v);
    }
}

fn hash_frame(h: &mut Fnv, r: &SimulationReport) {
    for v in r.image.data() {
        h.u64(u64::from(v.to_bits()));
    }
    assert_eq!(r.profile.kernels.len(), 1);
    hash_counters(h, &r.profile.kernels[0].counters);
    h.u64(r.profile.kernels[0].time_s.to_bits());
    h.u64(r.app_time_s.to_bits());
}

/// The digest of `FRAMES` frames of `stars` stars on a `width`×`height`
/// image, with `cfg` taken from `SimConfig::new` and then adjusted by
/// `tweak`.
fn digest_frames(
    width: usize,
    height: usize,
    stars: usize,
    side: usize,
    backend: KernelBackend,
    workers: usize,
    tweak: impl FnOnce(&mut SimConfig),
) -> u64 {
    let mut cfg = SimConfig::new(width, height, side);
    cfg.backend = backend;
    cfg.exec_mode = ExecMode::Batched;
    cfg.workers = Some(workers);
    tweak(&mut cfg);
    let session = AdaptiveSession::on(VirtualGpu::gtx480(), cfg).expect("session");
    let mut h = Fnv::new();
    for frame in 0..FRAMES {
        let catalog = FieldGenerator::new(width, height).generate(stars, 100 + frame);
        hash_frame(&mut h, &session.render(&catalog).expect("render"));
    }
    h.0
}

fn digest(side: usize, phases: usize, backend: KernelBackend, workers: usize) -> u64 {
    digest_frames(WIDTH, HEIGHT, STARS, side, backend, workers, |cfg| {
        cfg.lut_phases = phases
    })
}

#[test]
fn batched_adaptive_frames_match_the_golden_digests() {
    let mut computed = Vec::new();
    for side in SIDES {
        for phases in PHASES {
            for backend in BACKENDS {
                for workers in WORKERS {
                    let d = digest(side, phases, backend, workers);
                    computed.push((side, phases, backend.as_str(), workers, d));
                }
            }
        }
    }
    let table: String = computed
        .iter()
        .map(|(s, p, b, w, d)| format!("    ({s}, {p}, {b:?}, {w}, {d:#018x}),\n"))
        .collect();
    assert!(
        computed[..] == GOLDEN[..],
        "digests differ from the pinned values; computed:\n{table}"
    );
}

/// The paper's headline frame: 2^13 stars on 1024², an image of 128
/// merge tiles of 8192 values, each holding ROI rows from several SMs.
const BIG_SIDE: usize = 1024;
const BIG_STARS: usize = 1 << 13;
const BIG_SIDES: [usize; 2] = [10, 16];

/// `(side, backend, workers, digest)` at [`BIG_SIDE`]², default phases,
/// in matrix order.
const GOLDEN_MULTI_TILE: [(usize, &str, usize, u64); 8] = [
    (10, "scalar", 2, 0xc74ad77800954a62),
    (10, "scalar", 15, 0xc74ad77800954a62),
    (10, "simd", 2, 0xc74ad77800954a62),
    (10, "simd", 15, 0xc74ad77800954a62),
    (16, "scalar", 2, 0x7b5c4968940b4a9b),
    (16, "scalar", 15, 0x7b5c4968940b4a9b),
    (16, "simd", 2, 0x7b5c4968940b4a9b),
    (16, "simd", 15, 0x7b5c4968940b4a9b),
];

#[test]
fn multi_tile_frames_match_the_golden_digests() {
    let mut computed = Vec::new();
    for side in BIG_SIDES {
        for backend in BACKENDS {
            for workers in WORKERS {
                let d = digest_frames(
                    BIG_SIDE,
                    BIG_SIDE,
                    BIG_STARS,
                    side,
                    backend,
                    workers,
                    |_| {},
                );
                computed.push((side, backend.as_str(), workers, d));
            }
        }
    }
    let table: String = computed
        .iter()
        .map(|(s, b, w, d)| format!("    ({s}, {b:?}, {w}, {d:#018x}),\n"))
        .collect();
    assert!(
        computed[..] == GOLDEN_MULTI_TILE[..],
        "digests differ from the pinned values; computed:\n{table}"
    );
}
