//! What a submitted job simulates.
//!
//! A [`JobSpec`] is the wire-side description of one experiment matrix.
//! Its [`JobSpec::matrix`] constructor calls the same
//! `membound_core::figures` ladder builders as the figure binaries
//! (`fig2_transpose`, `fig6_blur`), because the determinism contract of
//! the daemon is digest equality with the one-shot binaries: same cells
//! in the same order, same workload configs, same device sweep — hence
//! the same canonical combined digest.

use membound_core::figures;
use membound_core::runner::ExperimentMatrix;
use membound_core::{BlurVariant, GbmvConfig, GbmvVariant, TransposeConfig, TransposeVariant};
use membound_sim::Device;
use serde::{Deserialize, Serialize};

/// One job's experiment matrix, as submitted over the wire.
///
/// Externally tagged JSON, e.g.
/// `{"Fig2": {"full": false, "device": "mango"}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobSpec {
    /// The Fig. 2/3 transposition matrix: two sizes × devices × the
    /// five-variant ladder, exactly as `fig2_transpose` builds it.
    Fig2 {
        /// Paper-scale sizes (8192/16384) instead of the scaled-down
        /// defaults (2048/4096).
        full: bool,
        /// Device filter ([`Device::select`]); `None` sweeps the paper boards.
        device: Option<String>,
    },
    /// The Fig. 6/7 Gaussian-blur matrix: devices × the five-variant
    /// ladder at one image size, exactly as `fig6_blur` builds it.
    Fig6 {
        /// The paper's 2544×2027 image instead of the half-resolution
        /// default.
        full: bool,
        /// Device filter ([`Device::select`]); `None` sweeps the paper boards.
        device: Option<String>,
    },
    /// The band-matrix `gbmv` ladder: caller-chosen orders, the
    /// three-variant ladder per order × device.
    GbmvLadder {
        /// Matrix orders (one panel per order).
        sizes: Vec<usize>,
        /// Device filter ([`Device::select`]); `None` sweeps the paper boards.
        device: Option<String>,
    },
    /// An ad-hoc transposition ladder: caller-chosen sizes and block,
    /// the full five-variant ladder per size × device. This is what the
    /// crash-safety and daemon tests use — tiny sizes keep a served job
    /// fast under unoptimized test binaries.
    TransposeLadder {
        /// Matrix sizes (one panel per size).
        sizes: Vec<usize>,
        /// Blocking factor for the blocked variants.
        block: usize,
        /// Device filter ([`Device::select`]); `None` sweeps the paper boards.
        device: Option<String>,
    },
}

impl JobSpec {
    /// Resolve the device axis: `None` sweeps the four paper boards
    /// (the canonical figure matrices are pinned to that sweep), a
    /// filter goes through [`Device::select`] — loose, case- and
    /// punctuation-insensitive, with a comma-separated exact-set syntax
    /// for intentional multi-select.
    ///
    /// # Errors
    ///
    /// A filter matching no device, or ambiguously matching several,
    /// names the filter and the candidates instead of silently running
    /// a different matrix than the client asked for.
    fn devices(filter: Option<&str>) -> Result<Vec<Device>, String> {
        let Some(filter) = filter else {
            return Ok(Device::paper().to_vec());
        };
        Device::select(filter)
    }

    /// Build the experiment matrix this spec describes — cell for cell
    /// the matrix the corresponding figure binary would run, so the
    /// served digest is the one-shot digest.
    ///
    /// # Errors
    ///
    /// A device filter matching nothing, or a degenerate ladder (no
    /// sizes / zero block), is a submission error the server reports
    /// back instead of running.
    pub fn matrix(&self) -> Result<ExperimentMatrix, String> {
        match self {
            JobSpec::Fig2 { full, device } => Ok(figures::transpose_ladder(
                "fig2_transpose",
                &figures::transpose_sizes(*full).map(TransposeConfig::new),
                &Self::devices(device.as_deref())?,
                &TransposeVariant::all(),
            )),
            JobSpec::Fig6 { full, device } => Ok(figures::blur_ladder(
                "fig6_blur",
                figures::blur_config(*full),
                &Self::devices(device.as_deref())?,
                &BlurVariant::all(),
            )),
            JobSpec::GbmvLadder { sizes, device } => {
                if sizes.is_empty() {
                    return Err("gbmv ladder needs at least one order".into());
                }
                if let Some(&n) = sizes.iter().find(|&&n| n <= 64) {
                    // GbmvConfig::new's symmetric bandwidth is 64 and the
                    // band layout needs kl, ku < n.
                    return Err(format!("gbmv order {n} must exceed the bandwidth (64)"));
                }
                let cfgs: Vec<_> = sizes.iter().map(|&n| GbmvConfig::new(n)).collect();
                Ok(figures::gbmv_ladder(
                    "gbmv_ladder",
                    &cfgs,
                    &Self::devices(device.as_deref())?,
                    &GbmvVariant::all(),
                ))
            }
            JobSpec::TransposeLadder {
                sizes,
                block,
                device,
            } => {
                if sizes.is_empty() {
                    return Err("transpose ladder needs at least one size".into());
                }
                if *block == 0 {
                    return Err("transpose ladder block must be positive".into());
                }
                let devices = Self::devices(device.as_deref())?;
                let cfgs: Vec<_> = sizes
                    .iter()
                    .map(|&n| TransposeConfig::with_block(n, *block))
                    .collect();
                Ok(figures::transpose_ladder(
                    "transpose_ladder",
                    &cfgs,
                    &devices,
                    &TransposeVariant::all(),
                ))
            }
        }
    }

    /// Short human label for the job table (`serve status`).
    #[must_use]
    pub fn label(&self) -> String {
        let full = |full: &bool| if *full { " --full" } else { "" };
        let list = |sizes: &[usize]| {
            let sizes: Vec<String> = sizes.iter().map(ToString::to_string).collect();
            sizes.join(",")
        };
        let (name, device) = match self {
            JobSpec::Fig2 { full: f, device } => (format!("fig2_transpose{}", full(f)), device),
            JobSpec::Fig6 { full: f, device } => (format!("fig6_blur{}", full(f)), device),
            JobSpec::GbmvLadder { sizes, device } => {
                (format!("gbmv_ladder[{}]", list(sizes)), device)
            }
            JobSpec::TransposeLadder { sizes, device, .. } => {
                (format!("transpose_ladder[{}]", list(sizes)), device)
            }
        };
        let at = device.as_deref().map(|d| format!(" @{d}"));
        name + &at.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_matrix_matches_the_figure_binary_shape() {
        let spec = JobSpec::Fig2 {
            full: false,
            device: None,
        };
        let m = spec.matrix().unwrap();
        assert_eq!(m.figure(), "fig2_transpose");
        // 2 sizes x 4 devices x 5 variants, sizes outermost.
        assert_eq!(m.len(), 2 * 4 * 5);
        assert_eq!(m.cells()[0].panel, "2048");
        assert_eq!(m.cells()[0].variant, "Naive");
        assert_eq!(m.cells().last().unwrap().panel, "4096");
        assert!(m.baselines().is_empty(), "fig2 carries no baselines");
    }

    #[test]
    fn fig2_full_switches_to_paper_sizes() {
        let spec = JobSpec::Fig2 {
            full: true,
            device: Some("xeon".into()),
        };
        let m = spec.matrix().unwrap();
        // 2 sizes x 1 filtered device x 5 variants.
        assert_eq!(m.len(), 10);
        assert_eq!(m.cells()[0].panel, "8192");
        assert_eq!(m.cells().last().unwrap().panel, "16384");
    }

    #[test]
    fn fig6_matrix_matches_the_figure_binary_shape() {
        let spec = JobSpec::Fig6 {
            full: false,
            device: None,
        };
        let m = spec.matrix().unwrap();
        assert_eq!(m.figure(), "fig6_blur");
        assert_eq!(m.len(), 4 * 5);
        assert_eq!(m.cells()[0].panel, "1013x1272");
        assert_eq!(m.cells()[0].kind.kernel(), "blur");
    }

    #[test]
    fn gbmv_ladder_matrix_has_three_variants_per_order() {
        let spec = JobSpec::GbmvLadder {
            sizes: vec![512, 1024],
            device: Some("sg2044".into()),
        };
        let m = spec.matrix().unwrap();
        assert_eq!(m.figure(), "gbmv_ladder");
        // 2 orders x 1 device x 3 variants, orders outermost.
        assert_eq!(m.len(), 6);
        assert_eq!(m.cells()[0].panel, "512");
        assert_eq!(m.cells()[0].variant, "Naive");
        assert_eq!(m.cells()[0].kind.kernel(), "gbmv");
        assert_eq!(m.cells().last().unwrap().variant, "Parallel");
    }

    #[test]
    fn degenerate_gbmv_ladders_are_rejected() {
        let none = JobSpec::GbmvLadder {
            sizes: vec![],
            device: None,
        };
        assert!(none.matrix().unwrap_err().contains("at least one order"));
        let tiny = JobSpec::GbmvLadder {
            sizes: vec![512, 64],
            device: None,
        };
        assert!(tiny.matrix().unwrap_err().contains("bandwidth"));
    }

    #[test]
    fn unknown_device_filter_is_a_submission_error() {
        let spec = JobSpec::Fig2 {
            full: false,
            device: Some("cray-1".into()),
        };
        let err = spec.matrix().unwrap_err();
        assert!(err.contains("cray-1"), "{err}");
        assert!(err.contains("Mango Pi"), "{err}");
    }

    #[test]
    fn degenerate_ladders_are_rejected() {
        let none = JobSpec::TransposeLadder {
            sizes: vec![],
            block: 16,
            device: None,
        };
        assert!(none.matrix().unwrap_err().contains("at least one size"));
        let zero = JobSpec::TransposeLadder {
            sizes: vec![128],
            block: 0,
            device: None,
        };
        assert!(zero.matrix().unwrap_err().contains("block"));
    }

    #[test]
    fn specs_round_trip_the_wire_format() {
        let specs = [
            JobSpec::Fig2 {
                full: true,
                device: Some("mango".into()),
            },
            JobSpec::Fig6 {
                full: false,
                device: None,
            },
            JobSpec::TransposeLadder {
                sizes: vec![96, 128],
                block: 16,
                device: Some("mango".into()),
            },
            JobSpec::GbmvLadder {
                sizes: vec![512],
                device: Some("sg2044".into()),
            },
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: JobSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
        }
    }

    #[test]
    fn labels_are_compact() {
        let spec = JobSpec::TransposeLadder {
            sizes: vec![96, 128],
            block: 16,
            device: Some("mango".into()),
        };
        assert_eq!(spec.label(), "transpose_ladder[96,128] @mango");
        let spec = JobSpec::Fig2 {
            full: true,
            device: None,
        };
        assert_eq!(spec.label(), "fig2_transpose --full");
    }
}
