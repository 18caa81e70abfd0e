//! Roofline analysis: formalizing "memory-bound".
//!
//! The paper takes for granted that its three kernels are memory-bound on
//! all four devices. The roofline model makes that checkable: a kernel
//! with arithmetic intensity `I` (flops per byte of compulsory DRAM
//! traffic) on a device with peak compute `P` (GFLOP/s) and STREAM
//! bandwidth `B` (GB/s) attains at most `min(P, I·B)`; it is
//! memory-bound iff `I` is below the ridge point `P / B`.
//!
//! # Example
//!
//! ```
//! use membound_core::roofline::{DeviceRoofline, KernelIntensity};
//! use membound_sim::Device;
//!
//! let spec = Device::MangoPiMqPro.spec();
//! let roof = DeviceRoofline::for_device(&spec, 1.3); // measured STREAM GB/s
//! let triad = KernelIntensity::stream_triad();
//! assert!(roof.is_memory_bound(triad.intensity()));
//! ```

use crate::blur::BlurConfig;
use crate::stream::StreamOp;
use crate::transpose::TransposeConfig;
use membound_sim::DeviceSpec;
use serde::{Deserialize, Serialize};

/// A device's roofline: peak compute vs. sustained memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceRoofline {
    /// Peak double-precision-equivalent compute in GFLOP/s across all
    /// cores (issue-width × FMA × vector lanes × frequency).
    pub peak_gflops: f64,
    /// Sustained memory bandwidth in GB/s (STREAM-measured, not nameplate).
    pub stream_gbps: f64,
}

impl DeviceRoofline {
    /// Build from a device model plus its measured STREAM bandwidth.
    ///
    /// Peak compute assumes one FMA pipe per issue slot dedicated to
    /// floating point (a deliberate *upper* bound: if a kernel is
    /// memory-bound against an optimistic peak, it is certainly
    /// memory-bound in reality).
    ///
    /// # Panics
    ///
    /// Panics if `stream_gbps` is not positive.
    #[must_use]
    pub fn for_device(spec: &DeviceSpec, stream_gbps: f64) -> Self {
        assert!(stream_gbps > 0.0, "bandwidth must be positive");
        let lanes = f64::from((spec.core.vector_bytes / 8).max(1));
        let flops_per_cycle = 2.0 * lanes; // one FMA per cycle per lane
        Self {
            peak_gflops: f64::from(spec.cores) * spec.core.freq_ghz * flops_per_cycle,
            stream_gbps,
        }
    }

    /// The ridge point in flops/byte: kernels below it are memory-bound.
    #[must_use]
    pub fn ridge_intensity(&self) -> f64 {
        self.peak_gflops / self.stream_gbps
    }

    /// Attainable GFLOP/s for a kernel of the given intensity.
    #[must_use]
    pub fn attainable_gflops(&self, intensity: f64) -> f64 {
        (intensity * self.stream_gbps).min(self.peak_gflops)
    }

    /// Whether a kernel of the given intensity is memory-bound here.
    #[must_use]
    pub fn is_memory_bound(&self, intensity: f64) -> bool {
        intensity < self.ridge_intensity()
    }
}

/// Arithmetic intensity of one kernel: useful flops per byte of
/// compulsory DRAM traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelIntensity {
    /// Kernel name for reports.
    pub kernel: String,
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes that must move between CPU and DRAM.
    pub bytes: f64,
}

impl KernelIntensity {
    /// Flops per byte.
    ///
    /// # Panics
    ///
    /// Panics if the byte count is zero.
    #[must_use]
    pub fn intensity(&self) -> f64 {
        assert!(self.bytes > 0.0, "kernel must move data");
        self.flops / self.bytes
    }

    /// A STREAM op (per §4.1's table: e.g. Triad does 2 flops per 24
    /// bytes).
    #[must_use]
    pub fn stream(op: StreamOp) -> Self {
        Self {
            kernel: format!("STREAM {}", op.label()),
            flops: f64::from(op.flops_per_iter()),
            bytes: op.bytes_per_iter() as f64,
        }
    }

    /// STREAM Triad, the canonical bandwidth probe.
    #[must_use]
    pub fn stream_triad() -> Self {
        Self::stream(StreamOp::Triad)
    }

    /// In-place transposition: pure data movement, zero flops.
    #[must_use]
    pub fn transpose(cfg: TransposeConfig) -> Self {
        Self {
            kernel: format!("transpose {}x{}", cfg.n, cfg.n),
            flops: 0.0,
            bytes: cfg.nominal_bytes() as f64,
        }
    }

    /// The 2-D blur: `2·F²` flops per pixel-channel over two image
    /// transfers.
    #[must_use]
    pub fn blur_2d(cfg: &BlurConfig) -> Self {
        Self {
            kernel: format!("blur 2-D F={}", cfg.filter_size),
            flops: 2.0 * cfg.taps_2d() as f64,
            bytes: cfg.nominal_bytes() as f64,
        }
    }

    /// The separable blur: `2·2F` flops per pixel-channel (both passes)
    /// over two image transfers plus the scratch round-trip.
    #[must_use]
    pub fn blur_separable(cfg: &BlurConfig) -> Self {
        let pixels = (cfg.height * cfg.width * cfg.channels) as f64;
        Self {
            kernel: format!("blur separable F={}", cfg.filter_size),
            flops: 2.0 * 2.0 * cfg.filter_size as f64 * pixels,
            // src in, tmp out+in, dst out.
            bytes: 2.0 * cfg.nominal_bytes() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membound_sim::Device;

    fn roof(device: Device) -> DeviceRoofline {
        // Use the measured STREAM bandwidth, as the §3.3 metric does —
        // the Xeon's separable-blur classification genuinely flips
        // between nameplate and measured bandwidth, so the distinction
        // matters.
        let spec = device.spec();
        let bw = crate::experiment::stream_dram_gbps(&membound_sim::Machine::new(spec.clone()));
        DeviceRoofline::for_device(&spec, bw)
    }

    #[test]
    fn ridge_points_are_positive_and_ordered_sensibly() {
        let mango = roof(Device::MangoPiMqPro);
        let xeon = roof(Device::IntelXeon4310T);
        assert!(mango.ridge_intensity() > 0.0);
        // The Xeon has far more compute per byte of bandwidth.
        assert!(xeon.ridge_intensity() > mango.ridge_intensity());
    }

    #[test]
    fn stream_and_transpose_are_memory_bound_on_all_devices() {
        let kernels = [
            KernelIntensity::stream(StreamOp::Copy),
            KernelIntensity::stream_triad(),
            KernelIntensity::transpose(TransposeConfig::new(8192)),
        ];
        for &device in Device::all() {
            let r = roof(device);
            for k in &kernels {
                assert!(
                    r.is_memory_bound(k.intensity()),
                    "{device}: {} (I = {:.3}) should be memory-bound (ridge {:.3})",
                    k.kernel,
                    k.intensity(),
                    r.ridge_intensity()
                );
            }
        }
    }

    #[test]
    fn separable_blur_classification_depends_on_the_device() {
        // On the vectorizing Xeon the separable blur is memory-bound; on
        // the scalar single-issue D1 its 4.75 flops/byte exceed the ridge
        // — which is exactly why Fig. 6's Mango Pi blur times are
        // issue-limited in the model.
        let k = KernelIntensity::blur_separable(&BlurConfig::paper());
        assert!(roof(Device::IntelXeon4310T).is_memory_bound(k.intensity()));
        assert!(!roof(Device::MangoPiMqPro).is_memory_bound(k.intensity()));
    }

    #[test]
    fn naive_2d_blur_is_compute_bound_where_the_ladder_predicts() {
        // The 2-D F=19 blur does 361 taps per output element — enough
        // intensity to be compute-bound on the scalar in-order boards,
        // which is exactly why its optimization story is about *both*
        // arithmetic (1D_kernels) and memory (Memory).
        let k = KernelIntensity::blur_2d(&BlurConfig::paper());
        let mango = roof(Device::MangoPiMqPro);
        assert!(
            !mango.is_memory_bound(k.intensity()),
            "2-D blur (I = {:.1}) exceeds the D1 ridge ({:.1})",
            k.intensity(),
            mango.ridge_intensity()
        );
    }

    #[test]
    fn attainable_performance_caps_at_both_roofs() {
        let r = DeviceRoofline {
            peak_gflops: 10.0,
            stream_gbps: 2.0,
        };
        assert_eq!(r.attainable_gflops(1.0), 2.0); // bandwidth roof
        assert_eq!(r.attainable_gflops(100.0), 10.0); // compute roof
        assert_eq!(r.ridge_intensity(), 5.0);
    }

    #[test]
    fn transpose_intensity_is_zero() {
        let k = KernelIntensity::transpose(TransposeConfig::new(1024));
        assert_eq!(k.intensity(), 0.0);
    }

    #[test]
    fn stream_intensities_match_section_4_1() {
        assert_eq!(KernelIntensity::stream(StreamOp::Copy).intensity(), 0.0);
        let triad = KernelIntensity::stream_triad();
        assert!((triad.intensity() - 2.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "move data")]
    fn zero_byte_kernel_rejected() {
        let k = KernelIntensity {
            kernel: "bad".into(),
            flops: 1.0,
            bytes: 0.0,
        };
        let _ = k.intensity();
    }
}
