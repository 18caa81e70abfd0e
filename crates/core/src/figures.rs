//! The figure ladders: which cells a figure holds, in which order.
//!
//! Each builder lays out one kernel ladder workload-major, then device,
//! then variant — the order the figure binaries render and the serve
//! daemon's job specs replay. Both go through these builders, so a
//! served matrix, and hence its combined digest, equals the one-shot
//! binary's by construction.

use crate::runner::{Cell, ExperimentMatrix};
use crate::{BlurConfig, BlurVariant, GbmvConfig, GbmvVariant, TransposeConfig, TransposeVariant};
use membound_sim::{Device, DeviceSpec};

/// The two matrix sizes of Fig. 2/3: the paper's 8192/16384 when
/// `full`, otherwise 2048/4096 (both far beyond every modelled cache,
/// so the ladder shapes are preserved).
#[must_use]
pub fn transpose_sizes(full: bool) -> [usize; 2] {
    if full {
        [8192, 16384]
    } else {
        [2048, 4096]
    }
}

/// The blur workload of Fig. 6/7: the paper's 2544×2027 image when
/// `full`, otherwise the same aspect at half resolution.
#[must_use]
pub fn blur_config(full: bool) -> BlurConfig {
    if full {
        BlurConfig::paper()
    } else {
        BlurConfig::small(1013, 1272)
    }
}

/// A transposition ladder: one panel per matrix size.
#[must_use]
pub fn transpose_ladder(
    figure: &str,
    cfgs: &[TransposeConfig],
    devices: &[Device],
    variants: &[TransposeVariant],
) -> ExperimentMatrix {
    let panels: Vec<_> = cfgs.iter().map(|c| (c.n.to_string(), *c)).collect();
    ladder(figure, &panels, devices, variants, Cell::transpose)
}

/// A Gaussian-blur ladder: one panel, named `<height>x<width>`.
#[must_use]
pub fn blur_ladder(
    figure: &str,
    cfg: BlurConfig,
    devices: &[Device],
    variants: &[BlurVariant],
) -> ExperimentMatrix {
    let panels = [(format!("{}x{}", cfg.height, cfg.width), cfg)];
    ladder(figure, &panels, devices, variants, Cell::blur)
}

/// A band-matrix `gbmv` ladder: one panel per matrix order.
#[must_use]
pub fn gbmv_ladder(
    figure: &str,
    cfgs: &[GbmvConfig],
    devices: &[Device],
    variants: &[GbmvVariant],
) -> ExperimentMatrix {
    let panels: Vec<_> = cfgs.iter().map(|c| (c.n.to_string(), *c)).collect();
    ladder(figure, &panels, devices, variants, Cell::gbmv)
}

fn ladder<W: Copy, V: Copy>(
    figure: &str,
    panels: &[(String, W)],
    devices: &[Device],
    variants: &[V],
    cell: fn(String, &str, &DeviceSpec, V, W) -> Cell,
) -> ExperimentMatrix {
    let mut matrix = ExperimentMatrix::new(figure);
    for (panel, workload) in panels {
        for device in devices {
            let spec = device.spec();
            for &variant in variants {
                matrix.push(cell(
                    panel.clone(),
                    device.label(),
                    &spec,
                    variant,
                    *workload,
                ));
            }
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sizes_are_scaled_down() {
        assert_eq!(transpose_sizes(false), [2048, 4096]);
        assert_eq!(blur_config(false).width, 1272);
    }

    #[test]
    fn full_sizes_match_the_paper() {
        assert_eq!(transpose_sizes(true), [8192, 16384]);
        let cfg = blur_config(true);
        assert_eq!((cfg.height, cfg.width), (2027, 2544));
    }

    #[test]
    fn ladders_run_workload_then_device_then_variant() {
        let devices = [Device::MangoPiMqPro, Device::IntelXeon4310T];
        let cfgs = [96, 128].map(TransposeConfig::new);
        let m = transpose_ladder("t", &cfgs, &devices, &TransposeVariant::all());
        assert_eq!(m.figure(), "t");
        assert_eq!(m.len(), 2 * 2 * 5);
        let first = &m.cells()[0];
        assert_eq!(
            (first.panel.as_str(), first.variant.as_str()),
            ("96", "Naive")
        );
        assert_eq!(m.cells()[5].device, Device::IntelXeon4310T.label());
        assert_eq!(m.cells()[10].panel, "128");

        let m = blur_ladder(
            "b",
            BlurConfig::small(48, 64),
            &devices,
            &[BlurVariant::Memory],
        );
        assert_eq!(m.len(), 2);
        assert_eq!(m.cells()[1].panel, "48x64");

        let m = gbmv_ladder(
            "g",
            &[GbmvConfig::new(512)],
            &devices[..1],
            &GbmvVariant::all(),
        );
        assert_eq!(m.cells().last().unwrap().variant, "Parallel");
    }
}
