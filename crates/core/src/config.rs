//! Simulation configuration shared by all simulators.

use gpusim::{ExecMode, KernelBackend};
use psf::integrated::PsfModel;
use psf::roi::Roi;
use psf::IntensityModel;

use crate::error::SimError;

/// Which PSF evaluation the simulators use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PsfKind {
    /// The paper's point-sampled Gaussian (eq. 2).
    Point,
    /// Pixel-integrated Gaussian (extension; see `psf::integrated`).
    Integrated,
    /// Motion-smeared Gaussian for slewing sensors (extension; see
    /// `psf::smear`). Remember to enlarge `roi_side` to cover the streak.
    Smeared {
        /// Streak length in pixels.
        length: f32,
        /// Streak direction, radians from +x.
        angle: f32,
    },
    /// Moffat profile with heavy wings, FWHM-matched to the configured
    /// sigma (extension; see `psf::moffat`).
    Moffat {
        /// Wing exponent β (> 1; smaller = heavier wings).
        beta: f32,
    },
}

/// Configuration of one star-image simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Image width, pixels.
    pub width: usize,
    /// Image height, pixels.
    pub height: usize,
    /// ROI side length, pixels (= thread-block side on the GPU).
    pub roi_side: usize,
    /// Gaussian PSF standard deviation δ, pixels.
    pub sigma: f32,
    /// Brightness proportionality factor `A` (paper eq. 1).
    pub a_factor: f32,
    /// Magnitude range `[min, max]` the simulator is rated for — fixes the
    /// adaptive simulator's lookup-table extent (paper §III-C).
    pub mag_range: (f32, f32),
    /// Magnitude bins of the adaptive lookup table.
    pub lut_mag_bins: usize,
    /// Sub-pixel phase bins per axis of the lookup table (1 = paper).
    pub lut_phases: usize,
    /// PSF evaluation model.
    pub psf: PsfKind,
    /// Virtual-GPU executor strategy for the kernels this config launches.
    /// Every mode yields identical counters and modeled times; `Batched` is
    /// the fast default, `Reference` the per-thread ground truth (image
    /// reproducibility per mode: see [`ExecMode`]).
    pub exec_mode: ExecMode,
    /// Arithmetic backend for the batched executors' interior fast paths.
    /// `Scalar` (default) is the accuracy baseline; `Simd` evaluates the
    /// PSF with lane-oriented polynomial kernels. Counters and modeled
    /// times are bit-equal across backends; only pixel values may differ,
    /// within the documented tolerance (see `psf::lanes`).
    pub backend: KernelBackend,
    /// Host worker threads for the executor (`None` = one per host core).
    /// Functional parallelism only — no effect on counters or modeled
    /// times. The device clamps values beyond its SM count with a warning.
    pub workers: Option<usize>,
    /// Run the static kernel analyzer (`gpusim::analyze`) at session
    /// setup: the pre-launch advisor vets the production kernel once —
    /// deny-level findings reject the session, predictions land in the
    /// metrics registry as gauges. Off by default; the frame hot path is
    /// never touched either way.
    pub analyze: bool,
}

impl Default for SimConfig {
    /// The paper's benchmark setup: 1024×1024 image, ROI 10, σ=2,
    /// magnitudes 0–15.
    fn default() -> Self {
        SimConfig {
            width: 1024,
            height: 1024,
            roi_side: 10,
            sigma: 2.0,
            a_factor: 1000.0,
            mag_range: (0.0, 15.0),
            // 128 bins over 15 magnitudes: the fixed-length brightness
            // array of §III-C at ~0.12-mag resolution. Build time and
            // upload size at this resolution reproduce the paper's Table I
            // non-kernel profile.
            lut_mag_bins: 128,
            lut_phases: 1,
            psf: PsfKind::Point,
            exec_mode: ExecMode::default(),
            backend: KernelBackend::default(),
            workers: None,
            analyze: false,
        }
    }
}

impl SimConfig {
    /// A config with the given image size and ROI side, defaults elsewhere.
    pub fn new(width: usize, height: usize, roi_side: usize) -> Self {
        SimConfig {
            width,
            height,
            roi_side,
            ..SimConfig::default()
        }
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.width == 0 || self.height == 0 {
            return Err(SimError::InvalidConfig(format!(
                "image must be non-empty, got {}x{}",
                self.width, self.height
            )));
        }
        if self.roi_side == 0 {
            return Err(SimError::InvalidConfig("ROI side must be positive".into()));
        }
        if !(self.sigma.is_finite() && self.sigma > 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "sigma must be positive, got {}",
                self.sigma
            )));
        }
        if !(self.a_factor.is_finite() && self.a_factor > 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "A factor must be positive, got {}",
                self.a_factor
            )));
        }
        if !(self.mag_range.0.is_finite() && self.mag_range.1.is_finite()) {
            return Err(SimError::InvalidConfig(format!(
                "magnitude range must be finite, got [{}, {}]",
                self.mag_range.0, self.mag_range.1
            )));
        }
        if self.mag_range.1 <= self.mag_range.0 {
            return Err(SimError::InvalidConfig(format!(
                "magnitude range must be non-empty: [{}, {}]",
                self.mag_range.0, self.mag_range.1
            )));
        }
        if self.mag_range.0 < 0.0 || self.mag_range.1 > 15.0 {
            return Err(SimError::InvalidConfig(format!(
                "magnitude range [{}, {}] exceeds the rated [0, 15] — the \
                 lookup table and brightness model are calibrated for the \
                 paper's magnitude scale; clamp the catalog or narrow the range",
                self.mag_range.0, self.mag_range.1
            )));
        }
        if self.lut_mag_bins == 0 || self.lut_phases == 0 {
            return Err(SimError::InvalidConfig(
                "lookup table needs ≥1 magnitude bin and ≥1 phase".into(),
            ));
        }
        if self.workers == Some(0) {
            return Err(SimError::InvalidConfig(
                "worker count must be positive (or None for auto)".into(),
            ));
        }
        Ok(())
    }

    /// Pixel count of the image.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// The [`IntensityModel`] this config describes.
    pub fn intensity_model(&self) -> IntensityModel {
        IntensityModel {
            a_factor: self.a_factor,
            psf: self.psf_model(),
            roi: Roi::new(self.roi_side),
        }
    }

    /// The PSF model this config describes.
    pub fn psf_model(&self) -> PsfModel {
        match self.psf {
            PsfKind::Point => PsfModel::point(self.sigma),
            PsfKind::Integrated => PsfModel::integrated(self.sigma),
            PsfKind::Smeared { length, angle } => PsfModel::smeared(self.sigma, length, angle),
            PsfKind::Moffat { beta } => PsfModel::moffat(self.sigma, beta),
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // mutate-one-field test style
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_benchmarks() {
        let c = SimConfig::default();
        assert_eq!((c.width, c.height), (1024, 1024));
        assert_eq!(c.roi_side, 10);
        assert_eq!(c.mag_range, (0.0, 15.0));
        assert!(c.validate().is_ok());
        assert_eq!(c.pixels(), 1 << 20);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = SimConfig::default();
        c.width = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.roi_side = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.sigma = -1.0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.a_factor = f32::NAN;
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.mag_range = (5.0, 5.0);
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.lut_mag_bins = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.mag_range = (f32::NAN, f32::NAN);
        assert!(c.validate().is_err(), "NaN range must not slip through");
        let mut c = SimConfig::default();
        c.mag_range = (-1.0, 10.0);
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.mag_range = (0.0, 16.0);
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("[0, 15]"), "actionable message, got: {msg}");
        let mut c = SimConfig::default();
        c.sigma = f32::NAN;
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.workers = Some(0);
        assert!(c.validate().is_err());
        c.workers = Some(4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn intensity_model_reflects_config() {
        let c = SimConfig::new(512, 256, 8);
        let m = c.intensity_model();
        assert_eq!(m.roi.side(), 8);
        assert_eq!(m.a_factor, 1000.0);
        assert_eq!(m.psf.sigma(), 2.0);
    }

    #[test]
    fn exec_mode_defaults_to_batched() {
        assert_eq!(SimConfig::default().exec_mode, ExecMode::Batched);
        let mut c = SimConfig::default();
        c.exec_mode = ExecMode::Reference;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn backend_defaults_to_scalar() {
        assert_eq!(SimConfig::default().backend, KernelBackend::Scalar);
        let mut c = SimConfig::default();
        c.backend = KernelBackend::Simd;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn integrated_psf_selectable() {
        let mut c = SimConfig::default();
        c.psf = PsfKind::Integrated;
        assert!(matches!(
            c.psf_model(),
            psf::integrated::PsfModel::Integrated(_)
        ));
    }
}
