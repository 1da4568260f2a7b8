//! Texture memory: layered 2-D `f32` textures with point sampling, clamp
//! addressing, and a block-linear (Morton) internal layout.
//!
//! The adaptive simulator binds its lookup table to texture memory for two
//! reasons the paper gives (§III-C): texture fetches "capitalize 2D
//! locality", and the texture cache speeds up repeated accesses. The 2-D
//! locality benefit comes from the hardware storing texels along a
//! space-filling curve so that spatially close texels share cache lines —
//! we reproduce that with a Morton-order address swizzle, which the cache
//! simulator then sees.

use crate::error::GpuError;
use crate::memory::cache::CacheFootprint;
use crate::memory::global::AddressSpace;

/// A layered 2-D texture of `f32` texels (a CUDA 2-D layered texture, or
/// equivalently the paper's 3-D lookup table bound as magnitude-layer ×
/// ROI-row × ROI-column).
#[derive(Debug)]
pub struct Texture {
    base_addr: u64,
    width: usize,
    height: usize,
    layers: usize,
    /// Power-of-two pitch used by the Morton swizzle.
    pitch_pow2: usize,
    /// Texel storage, layer-major, row-major inside a layer (the logical
    /// view; addresses are swizzled separately).
    data: Vec<f32>,
    /// Cache-line footprint of one whole layer fetched in row-major order
    /// (see [`Self::with_layer_footprint`]); `None` until computed or when
    /// layer bases are not line-aligned.
    layer_footprint: Option<LayerFootprint>,
}

/// Every layer's row-major fetch sequence touches the same lines relative
/// to the layer's base line, because layer bases are line-aligned.
#[derive(Debug)]
struct LayerFootprint {
    footprint: CacheFootprint,
    base_line: u64,
    lines_per_layer: u64,
}

impl Texture {
    /// Binds `data` (layer-major, row-major) as a `layers × height × width`
    /// texture inside `space`, enforcing the device's texture-memory budget.
    ///
    /// `budget_bytes` is the remaining texture memory; binding fails with
    /// [`GpuError::OutOfMemory`] when exceeded (paper §IV-D: the lookup
    /// table must "be successfully bound into the GPU texture memory").
    pub fn bind(
        space: &AddressSpace,
        width: usize,
        height: usize,
        layers: usize,
        data: Vec<f32>,
        budget_bytes: usize,
    ) -> Result<Self, GpuError> {
        if width == 0 || height == 0 || layers == 0 {
            return Err(GpuError::Other(format!(
                "texture dimensions must be positive: {layers}×{height}×{width}"
            )));
        }
        if data.len() != width * height * layers {
            return Err(GpuError::TransferMismatch(format!(
                "texture data has {} texels, dimensions imply {}",
                data.len(),
                width * height * layers
            )));
        }
        let bytes = data.len() * 4;
        if bytes > budget_bytes {
            return Err(GpuError::OutOfMemory {
                requested: bytes,
                available: budget_bytes,
                space: "texture",
            });
        }
        let pitch_pow2 = width.max(height).next_power_of_two();
        // Reserve swizzled (padded) address range so Morton addresses of
        // distinct layers never collide.
        let base_addr = space.alloc(layers * pitch_pow2 * pitch_pow2 * 4);
        Ok(Texture {
            base_addr,
            width,
            height,
            layers,
            pitch_pow2,
            data,
            layer_footprint: None,
        })
    }

    /// Computes, once, the `line_bytes` cache-line footprint of fetching a
    /// whole layer in row-major order — the order a block whose lanes map
    /// one-to-one onto the texels fetches it. Skipped (the texture keeps
    /// no footprint) when layer bases are not line-aligned, e.g. for tiny
    /// layers that share a line: then the line pattern varies by layer.
    pub fn with_layer_footprint(mut self, line_bytes: usize) -> Self {
        let layer_bytes = (self.pitch_pow2 * self.pitch_pow2 * 4) as u64;
        let line = line_bytes as u64;
        if self.base_addr.is_multiple_of(line) && layer_bytes.is_multiple_of(line) {
            let offsets = (0..self.height).flat_map(|y| {
                (0..self.width).map(move |x| (morton2(x as u32, y as u32) * 4) as u64)
            });
            self.layer_footprint = Some(LayerFootprint {
                footprint: CacheFootprint::of_offsets(line_bytes, offsets),
                base_line: self.base_addr / line,
                lines_per_layer: layer_bytes / line,
            });
        }
        self
    }

    /// The whole-layer footprint (see [`Self::with_layer_footprint`]) and
    /// the base line of `layer` (clamped like [`Self::fetch`]), if the
    /// footprint was computed.
    pub fn layer_footprint(&self, layer: usize) -> Option<(&CacheFootprint, u64)> {
        let lf = self.layer_footprint.as_ref()?;
        let l = layer.min(self.layers - 1) as u64;
        Some((&lf.footprint, lf.base_line + l * lf.lines_per_layer))
    }

    /// The texel rows of `layer` (clamped like [`Self::fetch`]), top to
    /// bottom, each `width` texels in ascending x.
    pub fn rows(&self, layer: usize) -> std::slice::ChunksExact<'_, f32> {
        let texels = self.width * self.height;
        let l = layer.min(self.layers - 1);
        self.data[l * texels..(l + 1) * texels].chunks_exact(self.width)
    }

    /// Texture width (texels per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Texture height (rows per layer).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Layer count.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Payload size in bytes (excluding swizzle padding).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// Point-sampled fetch with clamp addressing: out-of-range coordinates
    /// clamp to the border texel, like CUDA's `cudaAddressModeClamp`.
    /// Returns `(value, swizzled device address)`; the executor feeds the
    /// address to the worker's texture cache.
    #[inline]
    pub fn fetch(&self, layer: usize, x: i64, y: i64) -> (f32, u64) {
        let l = layer.min(self.layers - 1);
        let xi = x.clamp(0, self.width as i64 - 1) as usize;
        let yi = y.clamp(0, self.height as i64 - 1) as usize;
        let value = self.data[(l * self.height + yi) * self.width + xi];
        let addr = self.base_addr
            + ((l * self.pitch_pow2 * self.pitch_pow2 + morton2(xi as u32, yi as u32)) * 4) as u64;
        (value, addr)
    }
}

/// Interleaves the bits of `x` and `y` into a Morton (Z-order) index.
#[inline]
fn morton2(x: u32, y: u32) -> usize {
    (spread_bits(x) | (spread_bits(y) << 1)) as usize
}

/// Spreads the low 16 bits of `v` into the even bit positions.
#[inline]
fn spread_bits(v: u32) -> u64 {
    let mut v = v as u64 & 0xFFFF;
    v = (v | (v << 8)) & 0x00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333;
    v = (v | (v << 1)) & 0x5555_5555;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tex(w: usize, h: usize, l: usize) -> Texture {
        let space = AddressSpace::new();
        let data: Vec<f32> = (0..w * h * l).map(|i| i as f32).collect();
        Texture::bind(&space, w, h, l, data, usize::MAX).unwrap()
    }

    #[test]
    fn fetch_returns_logical_values() {
        let t = tex(4, 3, 2);
        assert_eq!(t.fetch(0, 0, 0).0, 0.0);
        assert_eq!(t.fetch(0, 3, 2).0, 11.0);
        assert_eq!(t.fetch(1, 0, 0).0, 12.0);
        assert_eq!(t.fetch(1, 2, 1).0, 12.0 + 6.0);
        assert_eq!((t.width(), t.height(), t.layers()), (4, 3, 2));
        assert_eq!(t.size_bytes(), 4 * 3 * 2 * 4);
    }

    #[test]
    fn clamp_addressing() {
        let t = tex(4, 4, 1);
        assert_eq!(t.fetch(0, -5, 0).0, t.fetch(0, 0, 0).0);
        assert_eq!(t.fetch(0, 9, 2).0, t.fetch(0, 3, 2).0);
        assert_eq!(t.fetch(0, 1, -1).0, t.fetch(0, 1, 0).0);
        assert_eq!(t.fetch(5, 1, 1).0, t.fetch(0, 1, 1).0, "layer clamps too");
    }

    #[test]
    fn morton_addresses_are_unique_per_texel() {
        let t = tex(8, 8, 2);
        let mut seen = std::collections::HashSet::new();
        for l in 0..2 {
            for y in 0..8 {
                for x in 0..8 {
                    let (_, addr) = t.fetch(l, x, y);
                    assert!(seen.insert(addr), "duplicate address for ({l},{x},{y})");
                }
            }
        }
    }

    #[test]
    fn morton_preserves_2d_locality() {
        // A 2×2 texel quad must span fewer distinct 64-byte lines than a
        // row-major layout would for tall quads: specifically, the 4 texels
        // of an aligned 4×4 block fit one 64-byte line (16 texels × 4 B).
        let t = tex(16, 16, 1);
        let line = |addr: u64| addr / 64;
        let base = t.fetch(0, 0, 0).1;
        for y in 0..4 {
            for x in 0..4 {
                let (_, addr) = t.fetch(0, x, y);
                assert_eq!(line(addr), line(base), "4×4 block should share a line");
            }
        }
        // Whereas rows 0 and 8 are far apart.
        assert_ne!(line(t.fetch(0, 0, 8).1), line(base));
    }

    #[test]
    fn spread_bits_known_values() {
        assert_eq!(spread_bits(0b11), 0b101);
        assert_eq!(spread_bits(0b101), 0b10001);
        assert_eq!(morton2(1, 0), 0b01);
        assert_eq!(morton2(0, 1), 0b10);
        assert_eq!(morton2(3, 3), 0b1111);
    }

    #[test]
    fn budget_enforced() {
        let space = AddressSpace::new();
        let data = vec![0.0f32; 1024];
        let err = Texture::bind(&space, 32, 32, 1, data, 1024).unwrap_err();
        match err {
            GpuError::OutOfMemory {
                requested,
                available,
                space,
            } => {
                assert_eq!(requested, 4096);
                assert_eq!(available, 1024);
                assert_eq!(space, "texture");
            }
            other => panic!("expected OutOfMemory, got {other}"),
        }
    }

    #[test]
    fn dimension_validation() {
        let space = AddressSpace::new();
        assert!(Texture::bind(&space, 0, 4, 1, vec![], usize::MAX).is_err());
        assert!(Texture::bind(&space, 2, 2, 1, vec![0.0; 3], usize::MAX).is_err());
    }

    #[test]
    fn rows_are_the_fetched_values() {
        let t = tex(4, 3, 2);
        for l in 0..3 {
            for (y, row) in t.rows(l).enumerate() {
                let fetched: Vec<f32> = (0..4).map(|x| t.fetch(l, x, y as i64).0).collect();
                assert_eq!(row, &fetched[..], "layer {l} row {y}");
            }
            assert_eq!(t.rows(l).count(), 3);
        }
    }

    #[test]
    fn layer_footprint_replays_every_layer_exactly() {
        use crate::memory::cache::CacheSim;
        let space = AddressSpace::new();
        let (side, layers) = (10, 5);
        let data = vec![0.0f32; side * side * layers];
        let t = Texture::bind(&space, side, side, layers, data, usize::MAX)
            .unwrap()
            .with_layer_footprint(128);
        let mut stepped = CacheSim::new(12 * 1024, 128, 16);
        let mut replayed = stepped.clone();
        for layer in [0, 3, 3, 1, 4, 0, 7] {
            let mut hits = 0;
            for y in 0..side as i64 {
                for x in 0..side as i64 {
                    hits += u64::from(stepped.access(t.fetch(layer, x, y).1));
                }
            }
            let (fp, base_line) = t.layer_footprint(layer).expect("aligned layers");
            assert_eq!(fp.lines().len(), 6, "ROI 10 spans 6 lines of 128 B");
            assert_eq!(replayed.replay(fp, base_line), Some(hits));
            assert_eq!(
                (replayed.hits(), replayed.misses()),
                (stepped.hits(), stepped.misses())
            );
        }
        // Lockstep afterwards: the replay left the same LRU state.
        for layer in 0..layers {
            for y in 0..side as i64 {
                for x in 0..side as i64 {
                    let addr = t.fetch(layer, x, y).1;
                    assert_eq!(replayed.access(addr), stepped.access(addr));
                }
            }
        }
    }

    #[test]
    fn unaligned_layers_get_no_footprint() {
        // Side 1 layers are 4 B apart and side 3 layers 64 B apart: with
        // 128 B lines several layers share a line, so no shared pattern.
        for side in [1, 3] {
            let t = tex(side, side, 4).with_layer_footprint(128);
            assert!(t.layer_footprint(0).is_none(), "side {side}");
        }
        assert!(tex(3, 3, 4)
            .with_layer_footprint(64)
            .layer_footprint(0)
            .is_some());
        assert!(
            tex(10, 10, 1).layer_footprint(0).is_none(),
            "computed only on request"
        );
    }
}
