//! Portable SIMD lane layer for the batched kernels' interior-ROI loops.
//!
//! `std::simd` is nightly-only and the workspace builds offline with no
//! dependencies, so this module provides the minimum the fast paths need:
//! branch-free polynomial approximations of `exp` and `erf` whose callers
//! the loop vectorizer turns into packed SIMD, a fixed-width
//! array-of-lanes `f32` type ([`F32x8`]) for explicit chunked adds, and
//! the loop-shape rules that make autovectorization actually fire.
//!
//! # Loop shape: what vectorizes and what silently does not
//!
//! The kernels lean on LLVM's *loop* vectorizer, not its SLP (straight
//! line) vectorizer, because the two have very different power on this
//! code. Empirically (inspected on x86-64 SSE2 baseline, rustc 1.95):
//!
//! * Manually unrolled 8-lane chunks (`[f32; 8].map(exp_f32)` and
//!   friends) do **not** get re-rolled into packed ops — SLP gives up on
//!   the long transcendental chains, and the result is 8× scalar code.
//!   A single per-pixel loop over a slice, by contrast, loop-vectorizes
//!   cleanly with a vector body and scalar epilogue.
//! * Every operation in the loop body must have a packed equivalent on
//!   the *baseline* target. Three scalar idioms that silently break this:
//!   `f32::round` (libm call without SSE4.1 `roundps` — use the
//!   1.5·2^23 magic-constant rounding instead), `as i32` float→int casts
//!   (Rust's saturating semantics emit compare+cmov chains — keep values
//!   in float or bit-twiddle instead), and 64-bit int→float conversions
//!   (`cvtsi2ss %rax` has no packed form — cast induction variables
//!   through `i32`).
//! * Branches must be reducible to selects: the flush-to-zero tail of
//!   [`exp_f32`] is an integer mask on the scale factor, and the sign of
//!   [`erf_f32`] is applied by XORing the sign bit, precisely so no
//!   `if` survives into the loop body.
//!
//! # Accuracy contract
//!
//! The scalar PSF implementations ([`crate::gaussian`], [`crate::erf`])
//! stay the accuracy baseline; the lane variants trade a bounded error for
//! throughput. The bounds are *measured* by the property sweeps in
//! `proptests.rs` over the full lookup-table input domain and asserted
//! there; the documented guarantees are:
//!
//! * [`exp_f32`]: relative error ≤ 1e-6 versus `f64` `exp` over the whole
//!   finite range (measured ≈ 2e-7); exact 0 below the flush threshold,
//!   where the true value is subnormal-or-zero anyway.
//! * [`erf_f32`]: absolute error ≤ 1e-6 versus the crate's `f64`
//!   [`crate::erf::erf`] (measured ≈ 3e-7 — the two share the same A&S
//!   7.1.26 polynomial, so the difference is `f32` rounding plus the `exp`
//!   approximation).
//!
//! Downstream, a Gaussian PSF row evaluated through these lanes differs
//! from the scalar row by ≤ 1e-6 *relative* per pixel, which is well
//! inside the parallel-vs-sequential image tolerance the simulators
//! already accept for accumulation-order differences.

/// Lane width of the portable vector type: 8 × f32 = one AVX2 register,
/// two NEON registers — wide enough to cover a paper-sized ROI row (10 px)
/// in two iterations, narrow enough that edge waste stays small.
pub const LANES: usize = 8;

/// A fixed-width vector of [`LANES`] `f32` values.
///
/// All operations are element-wise per-lane loops over the backing array;
/// with the lane count a compile-time constant the compiler unrolls and
/// vectorizes them into SIMD instructions where the target supports it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct F32x8(pub [f32; LANES]);

impl F32x8 {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        F32x8([v; LANES])
    }

    /// Lanes `f(0), f(1), …, f(LANES-1)`.
    #[inline(always)]
    pub fn from_fn(f: impl FnMut(usize) -> f32) -> Self {
        F32x8(std::array::from_fn(f))
    }

    /// Loads [`LANES`] values from the start of `src`.
    ///
    /// # Panics
    /// Panics when `src` is shorter than [`LANES`].
    #[inline(always)]
    pub fn load(src: &[f32]) -> Self {
        let mut out = [0.0f32; LANES];
        out.copy_from_slice(&src[..LANES]);
        F32x8(out)
    }

    /// The backing lanes.
    #[inline(always)]
    pub fn lanes(&self) -> &[f32; LANES] {
        &self.0
    }

    /// Element-wise `exp` (see [`exp_f32`] for the accuracy contract).
    #[inline(always)]
    pub fn exp(self) -> Self {
        F32x8(self.0.map(exp_f32))
    }

    /// Element-wise `erf` (see [`erf_f32`] for the accuracy contract).
    #[inline(always)]
    pub fn erf(self) -> Self {
        F32x8(self.0.map(erf_f32))
    }
}

impl std::ops::Add for F32x8 {
    type Output = F32x8;
    #[inline(always)]
    fn add(self, rhs: F32x8) -> F32x8 {
        F32x8(std::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }
}

impl std::ops::Sub for F32x8 {
    type Output = F32x8;
    #[inline(always)]
    fn sub(self, rhs: F32x8) -> F32x8 {
        F32x8(std::array::from_fn(|i| self.0[i] - rhs.0[i]))
    }
}

impl std::ops::Mul for F32x8 {
    type Output = F32x8;
    #[inline(always)]
    fn mul(self, rhs: F32x8) -> F32x8 {
        F32x8(std::array::from_fn(|i| self.0[i] * rhs.0[i]))
    }
}

impl std::ops::Neg for F32x8 {
    type Output = F32x8;
    #[inline(always)]
    fn neg(self) -> F32x8 {
        F32x8(self.0.map(|v| -v))
    }
}

/// Inputs below this flush to exactly `0.0`: `exp(-87.336) ≈ 1.18e-38` is
/// the smallest *normal* `f32`, and the Gaussian tails the kernels feed
/// through here are indistinguishable from zero at that magnitude.
#[allow(clippy::excessive_precision)] // written form documents the exact threshold
const EXP_FLUSH_BELOW: f32 = -87.336_544;
/// Inputs above this clamp: `exp(87)` ≈ 6.1e37 stays finite in `f32`.
const EXP_CLAMP_ABOVE: f32 = 87.0;

/// Branch-free polynomial `exp` for one lane.
///
/// Classic range reduction: `x = n·ln2 + r` with `|r| ≤ ln2/2`, a
/// degree-5 minimax polynomial (Cephes `expf` coefficients) for `e^r`, and
/// `2^n` assembled directly into the exponent bits.
///
/// The body is a single straight line of float and integer ops — no
/// branches, no float→int casts, no libm — because each of those defeats
/// the loop vectorizer that turns the per-pixel callers into packed SIMD:
///
/// * `f32::round` is a libm call on targets without SSE4.1 `roundps`;
///   rounding instead rides the 1.5·2^23 magic constant (adding it pushes
///   the integer part into the mantissa's last place — exact for
///   |v| < 2^22, and |x·log2e| ≤ 126 here — subtracting recovers the
///   rounded value).
/// * Rust's `as i32` float cast has saturating semantics that compile to
///   a compare+cmov chain; `2^n` is instead read straight out of the
///   magic-shifted float's bit pattern (`t = 1.5·2^23 + n` holds `n` in
///   its low mantissa bits, so `(t.to_bits() << 23) + (127 << 23)` *is*
///   the exponent field of `2^n`, with two's-complement wraparound
///   handling negative `n`).
/// * The flush-to-zero tail is an integer mask on the scale factor, not a
///   conditional.
///
/// Relative error ≤ 1e-6 versus `f64` `exp` (measured ≈ 2e-7); returns
/// exactly `0.0` below the subnormal threshold and stays finite above.
#[inline(always)]
pub fn exp_f32(x: f32) -> f32 {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    // ln2 split hi/lo so `x − n·ln2` stays exact through the reduction.
    // (the hi part is exactly representable: 355/512 = 0x1.63p-1)
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const C0: f32 = 1.987_569_2e-4;
    const C1: f32 = 1.398_199_9e-3;
    const C2: f32 = 8.333_452e-3;
    const C3: f32 = 4.166_579_6e-2;
    const C4: f32 = 1.666_666_6e-1;
    #[allow(clippy::excessive_precision)] // Cephes coefficient, kept verbatim
    const C5: f32 = 5.000_000_1e-1;
    const ROUND_MAGIC: f32 = 12_582_912.0; // 1.5 · 2^23

    // All-ones when the input is above the flush threshold, zero below.
    let keep = 0u32.wrapping_sub((x >= EXP_FLUSH_BELOW) as u32);
    let x = x.clamp(EXP_FLUSH_BELOW, EXP_CLAMP_ABOVE);
    let t = x * LOG2_E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    let r = x - n * LN2_HI - n * LN2_LO;
    let p = ((((C0 * r + C1) * r + C2) * r + C3) * r + C4) * r + C5;
    let y = p * r * r + r + 1.0;
    // 2^n from t's mantissa bits; n ∈ [-126, 126] after the clamp.
    let scale = f32::from_bits((t.to_bits() << 23).wrapping_add(127 << 23) & keep);
    y * scale
}

/// Branch-free `erf` for one lane: Abramowitz & Stegun 7.1.26 — the same
/// polynomial as the scalar [`crate::erf::erf`], evaluated in `f32` with
/// [`exp_f32`] replacing the libm call.
///
/// Absolute error ≤ 1e-6 versus the scalar `f64` implementation
/// (measured ≈ 3e-7).
#[inline(always)]
pub fn erf_f32(x: f32) -> f32 {
    #[allow(clippy::excessive_precision)] // A&S 7.1.26 coefficient, kept verbatim
    const A1: f32 = 0.254_829_59;
    const A2: f32 = -0.284_496_74;
    const A3: f32 = 1.421_413_7;
    const A4: f32 = -1.453_152;
    const A5: f32 = 1.061_405_4;
    const P: f32 = 0.327_591_1;

    let ax = x.abs();
    let t = 1.0 / (1.0 + P * ax);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * exp_f32(-ax * ax);
    // erf(−x) = −erf(x): apply x's sign bit directly (branch-free, so the
    // per-pixel callers stay loop-vectorizable).
    f32::from_bits(y.to_bits() ^ (x.to_bits() & 0x8000_0000))
}

/// `dst[i] += src[i]` over a whole span, in lane-width chunks.
///
/// The adaptive kernel folds each LUT row into the shadow accumulator
/// through this helper on both backends; each destination slot receives
/// exactly one add, so the result is bit-identical to a scalar per-pixel
/// loop.
#[inline]
pub fn accumulate(dst: &mut [f32], src: &[f32]) {
    let n = dst.len().min(src.len());
    let (mut i, full) = (0, n - n % LANES);
    while i < full {
        let s = F32x8::load(&src[i..]);
        let d = F32x8::load(&dst[i..]);
        dst[i..i + LANES].copy_from_slice((d + s).lanes());
        i += LANES;
    }
    while i < n {
        dst[i] += src[i];
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_matches_f64_reference() {
        let mut max_rel = 0.0f64;
        let mut x = -87.0f64;
        while x <= 20.0 {
            // Round the probe to f32 first: the contract is about the
            // approximation at representable inputs, not about the cast.
            let xf = x as f32;
            let got = exp_f32(xf) as f64;
            let want = (xf as f64).exp();
            max_rel = max_rel.max(((got - want) / want).abs());
            x += 0.003;
        }
        assert!(max_rel <= 1e-6, "exp rel error {max_rel}");
    }

    #[test]
    fn exp_flushes_and_clamps() {
        assert_eq!(exp_f32(-90.0), 0.0);
        assert_eq!(exp_f32(-1.0e9), 0.0);
        assert!(exp_f32(1.0e9).is_finite());
        assert!((exp_f32(0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn erf_matches_scalar_reference() {
        let mut max_abs = 0.0f64;
        let mut x = -6.0f64;
        while x <= 6.0 {
            let got = erf_f32(x as f32) as f64;
            let want = crate::erf::erf(x);
            max_abs = max_abs.max((got - want).abs());
            x += 0.001;
        }
        assert!(max_abs <= 1e-6, "erf abs error {max_abs}");
    }

    #[test]
    fn erf_odd_and_bounded() {
        for x in [0.1f32, 0.7, 1.5, 3.0, 5.5] {
            assert!((erf_f32(-x) + erf_f32(x)).abs() < 1e-6);
            assert!(erf_f32(x).abs() <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn vector_ops_are_element_wise() {
        let a = F32x8::from_fn(|i| i as f32);
        let b = F32x8::splat(2.0);
        assert_eq!((a + b).lanes()[3], 5.0);
        assert_eq!((a - b).lanes()[1], -1.0);
        assert_eq!((a * b).lanes()[4], 8.0);
        assert_eq!((-a).lanes()[2], -2.0);
        let e = (-(a * a)).exp();
        for (i, &v) in e.lanes().iter().enumerate() {
            let want = (-(i as f32 * i as f32)).exp();
            assert!((v - want).abs() <= 1e-6 * want.max(1e-12), "lane {i}");
        }
    }

    #[test]
    fn accumulate_adds_once_per_slot() {
        let src: Vec<f32> = (0..19).map(|i| i as f32 * 0.5).collect();
        let mut dst = vec![1.0f32; 19];
        accumulate(&mut dst, &src);
        for (i, &v) in dst.iter().enumerate() {
            assert_eq!(v, 1.0 + i as f32 * 0.5);
        }
    }
}
