//! Pixel-integrated Gaussian PSF — an accuracy extension.
//!
//! The paper samples μ(x, y) at the pixel centre (point sampling). A real
//! CCD pixel integrates the PSF over its unit square; for small σ the
//! difference is significant (a σ=0.5 star deposits ~80% of its energy in
//! one pixel, which point sampling badly misestimates). Because a 2-D
//! Gaussian separates, the integral over pixel `[x−½, x+½] × [y−½, y+½]` is
//! a product of two 1-D erf differences.

use crate::erf::erf;
use crate::gaussian::GaussianPsf;

/// Pixel-integrated Gaussian PSF.
///
/// [`Self::eval`] returns the *exact* fraction of the star's total energy
/// deposited into the unit pixel centred at `(x, y)`, rather than the
/// paper's point sample. Implements the same evaluation interface shape as
/// [`GaussianPsf`] so simulators can switch between sampling models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegratedGaussianPsf {
    sigma: f32,
    /// 1/(σ√2), hoisted out of the erf arguments.
    inv_sigma_sqrt2: f64,
}

impl IntegratedGaussianPsf {
    /// Creates a pixel-integrated PSF with standard deviation `sigma` pixels.
    ///
    /// # Panics
    /// Panics unless `sigma` is finite and positive.
    pub fn new(sigma: f32) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "PSF sigma must be positive and finite, got {sigma}"
        );
        IntegratedGaussianPsf {
            sigma,
            inv_sigma_sqrt2: 1.0 / (sigma as f64 * std::f64::consts::SQRT_2),
        }
    }

    /// The standard deviation in pixels.
    #[inline]
    pub fn sigma(&self) -> f32 {
        self.sigma
    }

    /// Energy fraction deposited into the unit pixel centred at `(x, y)` by
    /// a star centred at `(cx, cy)`.
    #[inline]
    pub fn eval(&self, x: f32, y: f32, cx: f32, cy: f32) -> f32 {
        (self.axis_integral((x - cx) as f64) * self.axis_integral((y - cy) as f64)) as f32
    }

    /// 1-D integral of the normalized Gaussian over `[d−½, d+½]`.
    #[inline]
    fn axis_integral(&self, d: f64) -> f64 {
        0.5 * (erf((d + 0.5) * self.inv_sigma_sqrt2) - erf((d - 0.5) * self.inv_sigma_sqrt2))
    }

    /// Adds `gain · μ(x0 + i, y)` into `acc[i]` for a contiguous pixel
    /// row through the [`crate::lanes`] vector layer: the row-constant y
    /// axis integral is computed once, and the x integrals evaluate the
    /// `f32` polynomial [`crate::lanes::erf_f32`] in one per-pixel loop
    /// the loop vectorizer turns into packed SIMD (see the `lanes` module
    /// notes on loop shape).
    ///
    /// The scalar [`Self::eval`] evaluates the same A&S 7.1.26 polynomial
    /// in `f64`; the per-pixel difference is `f32` rounding, ≤ 1e-6
    /// absolute on μ (see the `lanes` module contract).
    pub fn accumulate_row_lanes(
        &self,
        acc: &mut [f32],
        gain: f32,
        x0: f32,
        y: f32,
        cx: f32,
        cy: f32,
    ) {
        use crate::lanes::erf_f32;
        let inv = self.inv_sigma_sqrt2 as f32;
        let dy = y - cy;
        let ay = 0.5 * (erf_f32((dy + 0.5) * inv) - erf_f32((dy - 0.5) * inv));
        let a = gain * ay;
        let base = x0 - cx;
        for (i, slot) in acc.iter_mut().enumerate() {
            // i32 cast: see `GaussianPsf::accumulate_row_lanes`.
            let dx = base + i as i32 as f32;
            let ax = 0.5 * (erf_f32((dx + 0.5) * inv) - erf_f32((dx - 0.5) * inv));
            *slot += a * ax;
        }
    }

    /// Fills `out[i]` with the 1-D unit-pixel integral centred at
    /// `start + i` for a star axis coordinate `c` — one factor of the
    /// separable pixel integral, via [`crate::lanes::erf_f32`].
    ///
    /// μ is an exact product of the two axis integrals (the 2-D Gaussian
    /// separates), so a `side × side` ROI needs `4·side` erf evaluations
    /// instead of `4·side²`. Absolute factor error versus the `f64`
    /// [`Self::eval`] axis term is ≤ 1e-6 (two `erf_f32` approximations).
    pub fn axis_factors(&self, out: &mut [f32], start: f32, c: f32) {
        use crate::lanes::erf_f32;
        let inv = self.inv_sigma_sqrt2 as f32;
        let base = start - c;
        for (i, slot) in out.iter_mut().enumerate() {
            let d = base + i as i32 as f32;
            *slot = 0.5 * (erf_f32((d + 0.5) * inv) - erf_f32((d - 0.5) * inv));
        }
    }
}

/// Either PSF evaluation model, chosen by simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PsfModel {
    /// The paper's point-sampled Gaussian (eq. 2).
    Point(GaussianPsf),
    /// Pixel-integrated Gaussian (extension).
    Integrated(IntegratedGaussianPsf),
    /// Motion-smeared Gaussian for slewing sensors (extension; the blurred
    /// star images of the paper's reference \[9\]).
    Smeared(crate::smear::SmearedGaussianPsf),
    /// Moffat profile with realistic heavy wings (extension).
    Moffat(crate::moffat::MoffatPsf),
}

impl PsfModel {
    /// Point-sampled model with the given sigma.
    pub fn point(sigma: f32) -> Self {
        PsfModel::Point(GaussianPsf::new(sigma))
    }

    /// Pixel-integrated model with the given sigma.
    pub fn integrated(sigma: f32) -> Self {
        PsfModel::Integrated(IntegratedGaussianPsf::new(sigma))
    }

    /// Motion-smeared model: streak of `length` pixels at `angle` radians.
    pub fn smeared(sigma: f32, length: f32, angle: f32) -> Self {
        PsfModel::Smeared(crate::smear::SmearedGaussianPsf::new(sigma, length, angle))
    }

    /// Moffat model matched to a Gaussian of the given sigma by FWHM.
    pub fn moffat(sigma: f32, beta: f32) -> Self {
        PsfModel::Moffat(crate::moffat::MoffatPsf::with_gaussian_fwhm(sigma, beta))
    }

    /// The (equivalent) Gaussian standard deviation in pixels.
    pub fn sigma(&self) -> f32 {
        match self {
            PsfModel::Point(p) => p.sigma(),
            PsfModel::Integrated(p) => p.sigma(),
            PsfModel::Smeared(p) => p.sigma(),
            // Invert the FWHM matching of `moffat()`.
            PsfModel::Moffat(p) => {
                p.alpha() * 2.0 * (2f32.powf(1.0 / p.beta()) - 1.0).sqrt() / 2.354_82
            }
        }
    }

    /// Evaluates the intensity contribution rate at pixel `(x, y)` for a
    /// star centred at `(cx, cy)`.
    #[inline]
    pub fn eval(&self, x: f32, y: f32, cx: f32, cy: f32) -> f32 {
        match self {
            PsfModel::Point(p) => p.eval(x, y, cx, cy),
            PsfModel::Integrated(p) => p.eval(x, y, cx, cy),
            PsfModel::Smeared(p) => p.eval(x, y, cx, cy),
            PsfModel::Moffat(p) => p.eval(x, y, cx, cy),
        }
    }

    /// Adds `gain · μ(x0 + i, y)` into `acc[i]` for a contiguous pixel
    /// row — the SIMD-backend entry point of the batched kernels. Every
    /// slot receives exactly one add, the contract the batched executor's
    /// deposit rows rely on for bit-identical merges.
    ///
    /// Point and Integrated Gaussians ride the [`crate::lanes`] vector
    /// layer (bounded approximation error, documented per method); the
    /// Smeared and Moffat extensions have no vector path yet and fall
    /// back to the exact scalar [`Self::eval`] per pixel, so selecting the
    /// SIMD backend never changes *their* results at all.
    #[inline]
    pub fn accumulate_row(&self, acc: &mut [f32], gain: f32, x0: f32, y: f32, cx: f32, cy: f32) {
        match self {
            PsfModel::Point(p) => p.accumulate_row_lanes(acc, gain, x0, y, cx, cy),
            PsfModel::Integrated(p) => p.accumulate_row_lanes(acc, gain, x0, y, cx, cy),
            PsfModel::Smeared(_) | PsfModel::Moffat(_) => {
                for (i, slot) in acc.iter_mut().enumerate() {
                    *slot += gain * self.eval(x0 + i as f32, y, cx, cy);
                }
            }
        }
    }

    /// Fills the two axis-factor vectors of a separable PSF and returns
    /// the overall scale `s` such that `μ(x0+i, y0+j) ≈ s · xs[i] · ys[j]`
    /// within the [`crate::lanes`] error contract — or `None` when the
    /// model does not separate (Smeared's rotated anisotropic Gaussian,
    /// Moffat's radial power law), in which case callers fall back to
    /// [`Self::accumulate_row`].
    ///
    /// This is the SIMD backend's per-block fast path: a `side × side` ROI
    /// costs `2·side` transcendental evaluations plus a pure multiply-add
    /// outer product, instead of `side²` transcendentals.
    ///
    /// # Panics
    /// Panics when `xs` and `ys` lengths differ.
    pub fn axis_factors(
        &self,
        xs: &mut [f32],
        ys: &mut [f32],
        x0: f32,
        y0: f32,
        cx: f32,
        cy: f32,
    ) -> Option<f32> {
        assert_eq!(xs.len(), ys.len(), "axis factor vectors must match");
        match self {
            PsfModel::Point(p) => {
                p.axis_factors(xs, x0, cx);
                p.axis_factors(ys, y0, cy);
                Some(p.peak())
            }
            PsfModel::Integrated(p) => {
                p.axis_factors(xs, x0, cx);
                p.axis_factors(ys, y0, cy);
                Some(1.0)
            }
            PsfModel::Smeared(_) | PsfModel::Moffat(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_energy_sums_to_one() {
        // Unlike point sampling, the integrated PSF sums to exactly 1 over
        // an unbounded grid — and very nearly 1 over ±6σ.
        for sigma in [0.5f32, 1.0, 2.0] {
            let psf = IntegratedGaussianPsf::new(sigma);
            let half = (6.0 * sigma).ceil() as i32;
            let mut sum = 0.0f64;
            for y in -half..=half {
                for x in -half..=half {
                    sum += psf.eval(x as f32, y as f32, 0.0, 0.0) as f64;
                }
            }
            assert!((sum - 1.0).abs() < 1e-5, "σ={sigma}: sum={sum}");
        }
    }

    #[test]
    fn sharp_psf_concentrates_in_centre_pixel() {
        let psf = IntegratedGaussianPsf::new(0.3);
        let centre = psf.eval(0.0, 0.0, 0.0, 0.0);
        // erf(0.5/(0.3√2))² ≈ 0.82 of the energy lands in the centre pixel.
        assert!(centre > 0.8, "σ=0.3 centre pixel got {centre}");
    }

    #[test]
    fn converges_to_point_sample_for_wide_psf() {
        // For σ ≫ 1 pixel the unit-square integral ≈ centre sample.
        let sigma = 10.0;
        let point = GaussianPsf::new(sigma);
        let integ = IntegratedGaussianPsf::new(sigma);
        for (x, y) in [(0.0f32, 0.0f32), (3.0, 4.0), (7.5, -2.0)] {
            let a = point.eval(x, y, 0.0, 0.0);
            let b = integ.eval(x, y, 0.0, 0.0);
            assert!(
                (a - b).abs() / a < 2e-3,
                "σ={sigma} at ({x},{y}): point={a} integrated={b}"
            );
        }
    }

    #[test]
    fn symmetry() {
        let psf = IntegratedGaussianPsf::new(1.5);
        let a = psf.eval(2.0, 3.0, 0.0, 0.0);
        assert!((a - psf.eval(-2.0, 3.0, 0.0, 0.0)).abs() < 1e-12);
        assert!((a - psf.eval(3.0, 2.0, 0.0, 0.0)).abs() < 1e-12);
        assert!((a - psf.eval(-3.0, -2.0, 0.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn model_enum_dispatch() {
        let p = PsfModel::point(2.0);
        let i = PsfModel::integrated(2.0);
        assert_eq!(p.sigma(), 2.0);
        assert_eq!(i.sigma(), 2.0);
        // Both models agree loosely at σ=2.
        let a = p.eval(1.0, 1.0, 0.0, 0.0);
        let b = i.eval(1.0, 1.0, 0.0, 0.0);
        assert!((a - b).abs() / a < 0.05);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_bad_sigma() {
        let _ = IntegratedGaussianPsf::new(-1.0);
    }
}
