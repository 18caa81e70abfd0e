//! Presets for the four devices benchmarked in the paper (§3.1), plus
//! two modern many-core RISC-V platforms the follow-up literature
//! evaluates (the Sophon SG2044 and a Monte Cimone-style U740 node).
//!
//! All microarchitectural geometry (cache sizes, associativities, TLB
//! entry counts, prefetcher behaviour, pipeline widths) is taken directly
//! from the paper's infrastructure section (or the vendors' published
//! parameters for the post-paper parts). Latencies and bandwidths are
//! *calibration parameters*: the paper does not publish them, so they are
//! set to publicly known ballpark values for each part. EXPERIMENTS.md
//! compares result *shapes*, not absolute times.

use crate::cache::CacheConfig;
use crate::core::CoreConfig;
use crate::dram::DramConfig;
use crate::machine::DeviceSpec;
use crate::prefetch::PrefetcherConfig;
use crate::replacement::ReplacementPolicy;
use crate::tlb::{PageWalk, TlbConfig};

/// The four evaluation platforms of the paper, plus two modern
/// many-core RISC-V platforms for the what-if extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Device {
    /// Mango Pi MQ-Pro: Allwinner D1, 1× XuanTie C906 @ 1 GHz, 1 GB DDR3L.
    MangoPiMqPro,
    /// StarFive VisionFive v1: JH7100, 2× SiFive U74 @ 1 GHz, 8 GB LPDDR4.
    StarFiveVisionFive,
    /// Raspberry Pi 4 model B: BCM2711, 4× Cortex-A72 @ 1.5 GHz, 4 GB LPDDR4.
    RaspberryPi4,
    /// One socket of the 2× Intel Xeon 4310T server: 10 Ice Lake cores,
    /// 64 GB DDR4 (only the first CPU used, as in the paper).
    IntelXeon4310T,
    /// Sophon SG2044: 64× XuanTie C920 @ 2.6 GHz, shared LLC,
    /// multi-channel DDR with per-channel bandwidth contention, 128 GB.
    SophonSG2044,
    /// Monte Cimone-style node: SiFive Freedom U740, 4× U74 @ 1.2 GHz,
    /// 16 GB DDR4 behind one channel.
    MonteCimone,
}

/// Every preset, paper boards first (their presentation order), then the
/// modern many-core parts.
const ALL: [Device; 6] = [
    Device::IntelXeon4310T,
    Device::RaspberryPi4,
    Device::MangoPiMqPro,
    Device::StarFiveVisionFive,
    Device::SophonSG2044,
    Device::MonteCimone,
];

/// Every RISC-V preset.
const RISCV: [Device; 4] = [
    Device::MangoPiMqPro,
    Device::StarFiveVisionFive,
    Device::SophonSG2044,
    Device::MonteCimone,
];

impl Device {
    /// Every preset: the paper's four boards in their presentation order,
    /// then the modern many-core parts. A slice (not a fixed-arity
    /// array), so growing the inventory can never silently truncate a
    /// matrix or panic an array destructure.
    #[must_use]
    pub fn all() -> &'static [Device] {
        &ALL
    }

    /// The paper's four evaluation platforms in presentation order — the
    /// sweep every canonical figure (and its pinned digest) runs over.
    #[must_use]
    pub fn paper() -> &'static [Device] {
        &ALL[..4]
    }

    /// The RISC-V devices only.
    #[must_use]
    pub fn riscv() -> &'static [Device] {
        &RISCV
    }

    /// Short label used in figures ("Mango Pi", "StarFive", ...).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Device::MangoPiMqPro => "Mango Pi (D1)",
            Device::StarFiveVisionFive => "StarFive (JH7100)",
            Device::RaspberryPi4 => "Raspberry Pi 4",
            Device::IntelXeon4310T => "Intel Xeon 4310T",
            Device::SophonSG2044 => "Sophon SG2044",
            Device::MonteCimone => "Monte Cimone (U740)",
        }
    }

    /// The devices whose label or preset name loosely matches
    /// `filter`: case-insensitive substring match with spaces, dashes,
    /// underscores, and parentheses stripped, so `visionfive`,
    /// `mango-pi`, and `Xeon` all select what a human means by them.
    /// An empty result is the caller's error to surface. Callers that
    /// treat the result as a *selection* must not accept a silent
    /// multi-match either — `"pi"` matches two boards and `""` matches
    /// everything — so they go through [`Device::select`], which turns
    /// ambiguity into an explicit error.
    #[must_use]
    fn matching(filter: &str) -> Vec<Device> {
        let normalize = |s: &str| s.to_lowercase().replace([' ', '-', '_', '(', ')'], "");
        let needle = normalize(filter);
        Device::all()
            .iter()
            .copied()
            .filter(|d| {
                normalize(d.label()).contains(&needle)
                    || normalize(&format!("{d:?}")).contains(&needle)
            })
            .collect()
    }

    /// Resolve `filter` to an explicit device selection.
    ///
    /// A plain filter must match exactly one device; zero matches and
    /// ambiguous multi-matches (`"pi"`, `""`) are errors that list the
    /// candidates. Intentional multi-select uses a comma-separated
    /// exact set (`"mango,xeon"`), each component again matching exactly
    /// one device; order and duplicates are preserved as written.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending component and the
    /// devices it matched (or the full inventory on zero matches).
    pub fn select(filter: &str) -> Result<Vec<Device>, String> {
        let parts: Vec<&str> = filter
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .collect();
        if parts.is_empty() {
            return Err(format!(
                "empty device filter; known devices: {}",
                Self::inventory_list()
            ));
        }
        parts.into_iter().map(Self::select_one).collect()
    }

    fn select_one(part: &str) -> Result<Device, String> {
        let found = Self::matching(part);
        match found.as_slice() {
            [one] => Ok(*one),
            [] => Err(format!(
                "no device matches {part:?}; known devices: {}",
                Self::inventory_list()
            )),
            many => {
                let candidates: Vec<&str> = many.iter().map(|d| d.label()).collect();
                Err(format!(
                    "device filter {part:?} is ambiguous: matches {}; \
                     narrow it, or list an exact set like {:?}",
                    candidates.join(", "),
                    candidates.join(",")
                ))
            }
        }
    }

    fn inventory_list() -> String {
        let labels: Vec<&str> = Device::all().iter().map(|d| d.label()).collect();
        labels.join(", ")
    }

    /// Build the full device model.
    #[must_use]
    pub fn spec(self) -> DeviceSpec {
        match self {
            Device::MangoPiMqPro => mango_pi(),
            Device::StarFiveVisionFive => visionfive(),
            Device::RaspberryPi4 => raspberry_pi4(),
            Device::IntelXeon4310T => xeon_4310t(),
            Device::SophonSG2044 => sophon_sg2044(),
            Device::MonteCimone => monte_cimone(),
        }
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Mango Pi MQ-Pro (Allwinner D1, XuanTie C906).
///
/// §3.1: RV64IMAFDCV, 5-stage single-issue in-order pipeline, 32 KB 4-way
/// L1 D-cache with 64 B lines, **no L2**, fully associative 10-entry
/// D-uTLB, 128-entry 2-way jTLB, Sv39, forward/backward stride prefetch
/// with stride ≤ 16 lines, 1 GB DDR3L.
fn mango_pi() -> DeviceSpec {
    let freq = 1.0;
    DeviceSpec {
        name: "Mango Pi MQ-Pro (Allwinner D1, C906)".into(),
        isa: "RV64IMAFDCV".into(),
        cores: 1,
        core: CoreConfig::new("XuanTie C906", freq, 1, 0, 1.3),
        caches: vec![CacheConfig::new("L1D", 32 * 1024, 4, 64)
            .policy(ReplacementPolicy::Lru)
            .latency(3)
            .bytes_per_cycle(8.0)],
        prefetchers: vec![PrefetcherConfig::c906()],
        dtlb: TlbConfig::fully_associative("D-uTLB", 10),
        l2tlb: Some(TlbConfig::set_associative("jTLB", 128, 2).latency(5)),
        walk: PageWalk {
            levels: 3,
            overhead_cycles: 30,
        },
        dram: DramConfig::from_gbps(150, 1.8, freq, 1),
        dram_capacity_bytes: 1 << 30,
        tlb_enabled: true,
    }
}

/// StarFive VisionFive v1 (JH7100, SiFive U74).
///
/// §3.1: RV64IMAFDCB, 8-stage dual-issue in-order pipeline, 32 KB 4-way
/// L1 D-cache with *random* replacement, 128 KB 8-way L2 with random
/// replacement, 40-entry fully associative DTLB, 512-entry direct-mapped
/// L2 TLB, stride prefetch with large strides and ramping distance,
/// 8 GB LPDDR4 behind a narrow channel (the paper highlights the low
/// DRAM bandwidth).
fn visionfive() -> DeviceSpec {
    let freq = 1.0;
    DeviceSpec {
        name: "StarFive VisionFive (JH7100, 2x U74)".into(),
        isa: "RV64IMAFDCB".into(),
        cores: 2,
        core: CoreConfig::new("SiFive U74", freq, 2, 0, 2.0),
        caches: vec![
            CacheConfig::new("L1D", 32 * 1024, 4, 64)
                .policy(ReplacementPolicy::Random)
                .latency(3)
                .bytes_per_cycle(16.0),
            CacheConfig::new("L2", 128 * 1024, 8, 64)
                .policy(ReplacementPolicy::Random)
                .latency(14)
                .bytes_per_cycle(8.0),
        ],
        prefetchers: vec![PrefetcherConfig::u74(), PrefetcherConfig::None],
        dtlb: TlbConfig::fully_associative("DTLB", 40),
        l2tlb: Some(TlbConfig::direct_mapped("L2 TLB", 512).latency(8)),
        walk: PageWalk {
            levels: 3,
            overhead_cycles: 30,
        },
        dram: DramConfig::from_gbps(140, 0.85, freq, 2),
        dram_capacity_bytes: 8 << 30,
        tlb_enabled: true,
    }
}

/// Raspberry Pi 4 model B (Broadcom BCM2711, Cortex-A72).
///
/// 4 cores @ up to 1.5 GHz, 32 KB 2-way L1 D-cache, 1 MB 16-way shared L2,
/// NEON (128-bit vectors), aggressive stream prefetcher, 4 GB LPDDR4.
fn raspberry_pi4() -> DeviceSpec {
    let freq = 1.5;
    DeviceSpec {
        name: "Raspberry Pi 4B (BCM2711, 4x Cortex-A72)".into(),
        isa: "ARMv8-A".into(),
        cores: 4,
        core: CoreConfig::new("Cortex-A72", freq, 3, 16, 6.0),
        caches: vec![
            CacheConfig::new("L1D", 32 * 1024, 2, 64)
                .policy(ReplacementPolicy::Lru)
                .latency(4)
                .bytes_per_cycle(16.0),
            CacheConfig::new("L2", 1024 * 1024, 16, 64)
                .policy(ReplacementPolicy::Lru)
                .latency(25)
                .bytes_per_cycle(12.0)
                .shared(),
        ],
        prefetchers: vec![PrefetcherConfig::stream(8), PrefetcherConfig::None],
        dtlb: TlbConfig::fully_associative("L1 DTLB", 32),
        l2tlb: Some(TlbConfig::set_associative("L2 TLB", 512, 4).latency(7)),
        walk: PageWalk {
            levels: 3,
            overhead_cycles: 40,
        },
        dram: DramConfig::from_gbps(200, 4.2, freq, 2),
        dram_capacity_bytes: 4 << 30,
        tlb_enabled: true,
    }
}

/// One socket of the Intel Xeon 4310T server (Ice Lake SP, 10 cores).
///
/// Wide out-of-order cores @ ~3 GHz with effective compiler
/// auto-vectorization (the paper's ×19 "Memory" blur speedup comes from
/// it), 48 KB 12-way L1D, 1.25 MB 20-way private L2, 15 MB shared L3,
/// multi-channel DDR4 (the paper credits the Xeon's parallel-blur
/// utilization gain to its larger memory-channel count).
fn xeon_4310t() -> DeviceSpec {
    let freq = 3.0;
    DeviceSpec {
        name: "Intel Xeon 4310T (Ice Lake, 10 cores, 1 socket)".into(),
        isa: "x86-64 (AVX)".into(),
        cores: 10,
        core: CoreConfig::new("Ice Lake SP", freq, 4, 32, 12.0),
        caches: vec![
            CacheConfig::new("L1D", 48 * 1024, 12, 64)
                .policy(ReplacementPolicy::Lru)
                .latency(5)
                .bytes_per_cycle(64.0),
            CacheConfig::new("L2", 1280 * 1024, 20, 64)
                .policy(ReplacementPolicy::Lru)
                .latency(14)
                .bytes_per_cycle(32.0),
            CacheConfig::new("L3", 15 * 1024 * 1024, 12, 64)
                .policy(ReplacementPolicy::Lru)
                .latency(44)
                .bytes_per_cycle(40.0)
                .shared(),
        ],
        prefetchers: vec![
            PrefetcherConfig::stream(12),
            PrefetcherConfig::stream(16),
            PrefetcherConfig::None,
        ],
        dtlb: TlbConfig::set_associative("DTLB", 64, 4),
        l2tlb: Some(TlbConfig::set_associative("STLB", 2048, 8).latency(7)),
        walk: PageWalk {
            levels: 4,
            overhead_cycles: 35,
        },
        dram: DramConfig::from_gbps(270, 55.0, freq, 8),
        dram_capacity_bytes: 64 << 30,
        tlb_enabled: true,
    }
}

/// Sophon SG2044 (64× XuanTie C920 @ 2.6 GHz).
///
/// The "Is RISC-V ready for HPC?" class of part: 64 in-order RVA cores
/// behind a large shared LLC and multi-channel DDR. Per-channel
/// bandwidth contention is modelled ([`DramConfig::contended`]): with 64
/// cores the channel count, not the aggregate figure, bounds streaming
/// scalability. Vector codegen is left off, like the paper's RISC-V
/// boards: the C920's RVV 0.7.1 predates the ratified spec and mainline
/// compilers do not target it.
fn sophon_sg2044() -> DeviceSpec {
    let freq = 2.6;
    DeviceSpec {
        name: "Sophon SG2044 (64x XuanTie C920)".into(),
        isa: "RV64GCV (RVV 0.7.1)".into(),
        cores: 64,
        core: CoreConfig::new("XuanTie C920", freq, 2, 0, 4.0),
        caches: vec![
            CacheConfig::new("L1D", 64 * 1024, 4, 64)
                .policy(ReplacementPolicy::Lru)
                .latency(4)
                .bytes_per_cycle(16.0),
            CacheConfig::new("L2", 1024 * 1024, 8, 64)
                .policy(ReplacementPolicy::Lru)
                .latency(16)
                .bytes_per_cycle(16.0),
            CacheConfig::new("L3", 64 * 1024 * 1024, 16, 64)
                .policy(ReplacementPolicy::Lru)
                .latency(52)
                .bytes_per_cycle(64.0)
                .shared(),
        ],
        prefetchers: vec![
            PrefetcherConfig::stream(8),
            PrefetcherConfig::stream(12),
            PrefetcherConfig::None,
        ],
        dtlb: TlbConfig::set_associative("DTLB", 32, 4),
        l2tlb: Some(TlbConfig::set_associative("L2 TLB", 2048, 8).latency(8)),
        walk: PageWalk {
            levels: 3,
            overhead_cycles: 35,
        },
        dram: DramConfig::from_gbps(280, 102.4, freq, 4).with_channel_contention(),
        dram_capacity_bytes: 128 << 30,
        tlb_enabled: true,
    }
}

/// Monte Cimone-style node (SiFive Freedom U740, 4 usable U74 cores).
///
/// The first RISC-V HPC cluster's compute SoC: the same U74
/// microarchitecture as the VisionFive (random-replacement caches, the
/// ramping-stride prefetcher) but with a 2 MB *shared* L2 and a single
/// DDR4 channel whose measured STREAM figure is far below the DDR4
/// nominal — the aggregate DRAM model fits a single channel exactly.
fn monte_cimone() -> DeviceSpec {
    let freq = 1.2;
    DeviceSpec {
        name: "Monte Cimone node (SiFive U740, 4x U74)".into(),
        isa: "RV64GC".into(),
        cores: 4,
        core: CoreConfig::new("SiFive U74", freq, 2, 0, 2.0),
        caches: vec![
            CacheConfig::new("L1D", 32 * 1024, 4, 64)
                .policy(ReplacementPolicy::Random)
                .latency(3)
                .bytes_per_cycle(16.0),
            CacheConfig::new("L2", 2 * 1024 * 1024, 16, 64)
                .policy(ReplacementPolicy::Random)
                .latency(18)
                .bytes_per_cycle(16.0)
                .shared(),
        ],
        prefetchers: vec![PrefetcherConfig::u74(), PrefetcherConfig::None],
        dtlb: TlbConfig::fully_associative("DTLB", 40),
        l2tlb: Some(TlbConfig::direct_mapped("L2 TLB", 512).latency(8)),
        walk: PageWalk {
            levels: 3,
            overhead_cycles: 30,
        },
        dram: DramConfig::from_gbps(180, 7.6, freq, 1),
        dram_capacity_bytes: 16 << 30,
        tlb_enabled: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn all_specs_are_structurally_valid() {
        for d in Device::all() {
            let spec = d.spec();
            // Machine::new runs the structural assertions.
            let _ = Machine::new(spec);
        }
    }

    #[test]
    fn paper_core_counts() {
        assert_eq!(Device::MangoPiMqPro.spec().cores, 1);
        assert_eq!(Device::StarFiveVisionFive.spec().cores, 2);
        assert_eq!(Device::RaspberryPi4.spec().cores, 4);
        assert_eq!(Device::IntelXeon4310T.spec().cores, 10);
        assert_eq!(Device::SophonSG2044.spec().cores, 64);
        assert_eq!(Device::MonteCimone.spec().cores, 4);
    }

    #[test]
    fn inventory_split_is_stable() {
        assert_eq!(Device::all().len(), 6);
        assert_eq!(
            Device::paper(),
            [
                Device::IntelXeon4310T,
                Device::RaspberryPi4,
                Device::MangoPiMqPro,
                Device::StarFiveVisionFive,
            ],
            "canonical figure sweeps depend on this exact order"
        );
        assert_eq!(Device::riscv().len(), 4);
        for d in Device::riscv() {
            assert!(Device::all().contains(d));
        }
    }

    #[test]
    fn mango_pi_has_no_l2() {
        assert_eq!(Device::MangoPiMqPro.spec().caches.len(), 1);
    }

    #[test]
    fn matching_is_loose_but_not_wrong() {
        assert_eq!(Device::matching("mango"), vec![Device::MangoPiMqPro]);
        assert_eq!(
            Device::matching("VisionFive"),
            vec![Device::StarFiveVisionFive]
        );
        assert_eq!(Device::matching("mango-pi"), vec![Device::MangoPiMqPro]);
        assert_eq!(Device::matching("Xeon"), vec![Device::IntelXeon4310T]);
        // "pi" is genuinely ambiguous and must say so by matching both.
        assert_eq!(Device::matching("pi").len(), 2, "Mango Pi + Raspberry Pi 4");
        assert!(Device::matching("gpu").is_empty());
        assert_eq!(Device::matching("").len(), 6, "empty filter matches all");
    }

    /// Regression for every label/preset-name alias a user might type:
    /// each must resolve through `select` to exactly one device.
    #[test]
    fn every_alias_selects_exactly_one_device() {
        let aliases = [
            ("mango", Device::MangoPiMqPro),
            ("mangopi", Device::MangoPiMqPro),
            ("MangoPiMqPro", Device::MangoPiMqPro),
            ("d1", Device::MangoPiMqPro),
            ("star", Device::StarFiveVisionFive),
            ("starfive", Device::StarFiveVisionFive),
            ("visionfive", Device::StarFiveVisionFive),
            ("jh7100", Device::StarFiveVisionFive),
            ("raspberry", Device::RaspberryPi4),
            ("RaspberryPi4", Device::RaspberryPi4),
            ("xeon", Device::IntelXeon4310T),
            ("intel", Device::IntelXeon4310T),
            ("4310", Device::IntelXeon4310T),
            ("sophon", Device::SophonSG2044),
            ("sg2044", Device::SophonSG2044),
            ("SophonSG2044", Device::SophonSG2044),
            ("monte", Device::MonteCimone),
            ("cimone", Device::MonteCimone),
            ("u740", Device::MonteCimone),
            ("MonteCimone", Device::MonteCimone),
        ];
        for (alias, want) in aliases {
            assert_eq!(
                Device::select(alias),
                Ok(vec![want]),
                "alias {alias:?} must resolve uniquely"
            );
        }
        // Full labels resolve to themselves, and so do enum names.
        for d in Device::all() {
            assert_eq!(Device::select(d.label()), Ok(vec![*d]), "{d}");
            assert_eq!(Device::select(&format!("{d:?}")), Ok(vec![*d]), "{d}");
        }
    }

    #[test]
    fn select_rejects_ambiguous_and_unknown_filters() {
        let err = Device::select("pi").unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
        assert!(err.contains("Mango Pi"), "{err}");
        assert!(err.contains("Raspberry Pi 4"), "{err}");

        let err = Device::select("").unwrap_err();
        assert!(err.contains("empty device filter"), "{err}");
        assert!(err.contains("Sophon SG2044"), "lists the inventory: {err}");

        let err = Device::select("gpu").unwrap_err();
        assert!(err.contains("no device matches"), "{err}");
        assert!(err.contains("Monte Cimone"), "lists the inventory: {err}");

        // One bad component poisons the whole set.
        assert!(Device::select("mango,pi").is_err());
    }

    #[test]
    fn select_exact_set_multi_select() {
        assert_eq!(
            Device::select("mango,xeon"),
            Ok(vec![Device::MangoPiMqPro, Device::IntelXeon4310T])
        );
        assert_eq!(
            Device::select(" sg2044 , monte "),
            Ok(vec![Device::SophonSG2044, Device::MonteCimone]),
            "whitespace around components is tolerated"
        );
    }

    #[test]
    fn u74_uses_random_replacement_everywhere() {
        let spec = Device::StarFiveVisionFive.spec();
        assert!(spec
            .caches
            .iter()
            .all(|c| c.replacement == ReplacementPolicy::Random));
    }

    #[test]
    fn dram_bandwidth_ordering_matches_the_paper() {
        // Fig. 1: Xeon >> Raspberry Pi > Mango Pi > StarFive at DRAM level.
        let g = |d: Device| d.spec().dram_gbps();
        assert!(g(Device::IntelXeon4310T) > g(Device::RaspberryPi4));
        assert!(g(Device::RaspberryPi4) > g(Device::MangoPiMqPro));
        assert!(g(Device::MangoPiMqPro) > g(Device::StarFiveVisionFive));
    }

    #[test]
    fn riscv_devices_have_no_vector_codegen() {
        for d in Device::riscv() {
            assert_eq!(d.spec().core.vector_bytes, 0, "{d}");
        }
    }

    #[test]
    fn tlb_geometries_match_the_paper() {
        let mango = Device::MangoPiMqPro.spec();
        assert_eq!(mango.dtlb.entries, 10);
        assert_eq!(mango.l2tlb.as_ref().unwrap().entries, 128);
        assert_eq!(mango.l2tlb.as_ref().unwrap().ways, 2);
        let vf = Device::StarFiveVisionFive.spec();
        assert_eq!(vf.dtlb.entries, 40);
        assert_eq!(vf.l2tlb.as_ref().unwrap().ways, 1, "direct-mapped");
        assert_eq!(vf.l2tlb.as_ref().unwrap().entries, 512);
    }

    #[test]
    fn labels_and_display() {
        for d in Device::all() {
            assert!(!d.label().is_empty());
            assert_eq!(d.to_string(), d.label());
        }
    }

    #[test]
    fn only_one_device_lacks_memory_for_16k_matrix() {
        let bytes = 16384u64 * 16384 * 8;
        let lacking: Vec<Device> = Device::all()
            .iter()
            .copied()
            .filter(|d| !d.spec().fits_in_memory(bytes))
            .collect();
        assert_eq!(lacking, vec![Device::MangoPiMqPro]);
    }

    #[test]
    fn modern_presets_model_their_headline_features() {
        let sg = Device::SophonSG2044.spec();
        assert!(sg.dram.contended, "SG2044 models channel contention");
        assert_eq!(sg.dram.channels, 4);
        assert!(
            sg.caches.last().unwrap().shared,
            "SG2044's LLC is shared across all 64 cores"
        );
        let mc = Device::MonteCimone.spec();
        assert!(!mc.dram.contended, "one channel: aggregate model fits");
        assert_eq!(mc.dram.channels, 1);
        assert!(mc.caches.last().unwrap().shared, "U740's L2 is shared");
        assert!(
            mc.caches
                .iter()
                .all(|c| c.replacement == ReplacementPolicy::Random),
            "U74 cores keep random replacement, as on the VisionFive"
        );
    }
}
