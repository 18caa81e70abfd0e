//! Experiment harness: one kernel program per cell kind, one entry
//! point to simulate it.
//!
//! A [`CellKind`] names a kernel variant and its workload. Its
//! [`program`](CellKind::program) plans, once per run, how the kernel
//! splits across simulated cores — exactly as OpenMP would, through
//! `membound_parallel::Schedule::plan` — and [`Program::emit`] writes one
//! core's references into any [`TraceSink`]: a simulated core's pipeline
//! inside [`Machine::simulate`], or a recorder for the trace IR.
//! [`simulate`] runs a kind on a [`Machine`], which carries every
//! execution choice (host budget, reference build, analytic mode).

use crate::blur::{BlurConfig, BlurTrace, BlurVariant, FusedBlurTrace};
use crate::gbmv::{traced::GbmvTrace, GbmvConfig, GbmvVariant};
use crate::runner::CellOutcome;
use crate::stream::{StreamOp, StreamTrace};
use crate::transpose::{traced::TransposeTrace, TransposeConfig, TransposeVariant};
use membound_parallel::Schedule;
use membound_sim::{DeviceSpec, Machine, SimReport};
use membound_trace::TraceSink;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// What one cell simulates.
#[derive(Debug, Clone)]
pub enum CellKind {
    /// One transpose variant.
    Transpose {
        /// Ladder variant.
        variant: TransposeVariant,
        /// Matrix workload.
        cfg: TransposeConfig,
    },
    /// One blur variant. Sequential variants run on one simulated core;
    /// `Parallel` splits both separable passes statically across all
    /// cores with a barrier in between (two OpenMP parallel-for regions).
    Blur {
        /// Ladder variant.
        variant: BlurVariant,
        /// Image workload.
        cfg: BlurConfig,
    },
    /// The fused-blur extension (see `blur::fused`): output bands split
    /// statically across the cores, each with its own ring buffer.
    FusedBlur {
        /// Image workload.
        cfg: BlurConfig,
        /// Simulated threads (clamped to the device's cores).
        threads: u32,
    },
    /// One STREAM measurement against one memory level. Private cache
    /// levels are measured on one core and scaled by the core count;
    /// shared levels and DRAM are measured with every core active.
    Stream {
        /// STREAM operation.
        op: StreamOp,
        /// Cache level index, or `None` for DRAM.
        level: Option<usize>,
    },
    /// One band-matrix `gbmv` variant.
    Gbmv {
        /// Ladder variant.
        variant: GbmvVariant,
        /// Band workload.
        cfg: GbmvConfig,
    },
}

impl CellKind {
    /// Bytes the kernel must move between DRAM and the CPU, when the
    /// §3.3 utilization metric applies to this kind of cell.
    #[must_use]
    pub fn nominal_bytes(&self) -> Option<u64> {
        match self {
            CellKind::Transpose { cfg, .. } => Some(cfg.nominal_bytes()),
            CellKind::Blur { cfg, .. } | CellKind::FusedBlur { cfg, .. } => {
                Some(cfg.nominal_bytes())
            }
            CellKind::Stream { .. } => None,
            CellKind::Gbmv { cfg, .. } => Some(cfg.nominal_bytes()),
        }
    }

    /// Kernel-family label in the telemetry schema (and the result
    /// cache's key material): `"transpose"`, `"blur"`, `"fused_blur"`,
    /// `"stream"`, or `"gbmv"`.
    #[must_use]
    pub fn kernel(&self) -> &'static str {
        match self {
            CellKind::Transpose { .. } => "transpose",
            CellKind::Blur { .. } => "blur",
            CellKind::FusedBlur { .. } => "fused_blur",
            CellKind::Stream { .. } => "stream",
            CellKind::Gbmv { .. } => "gbmv",
        }
    }

    /// Simulated cores the kernel runs on `spec`.
    #[must_use]
    pub fn threads(&self, spec: &DeviceSpec) -> u32 {
        let parallel = match self {
            CellKind::Transpose { variant, .. } => variant.is_parallel(),
            CellKind::Blur { variant, .. } => variant.is_parallel(),
            CellKind::Gbmv { variant, .. } => variant.is_parallel(),
            CellKind::FusedBlur { threads, .. } => return (*threads).min(spec.cores).max(1),
            CellKind::Stream { level, .. } => level.map_or(true, |k| spec.caches[k].shared),
        };
        if parallel {
            spec.cores
        } else {
            1
        }
    }

    /// Whether the workload fits in `spec`'s memory. Only the matrix
    /// kernels can outgrow it: the 16384² transpose and wide-band `gbmv`
    /// on the Mango Pi's 1 GB.
    #[must_use]
    pub fn fits_in_memory(&self, spec: &DeviceSpec) -> bool {
        match self {
            CellKind::Transpose { cfg, .. } => spec.fits_in_memory(cfg.matrix_bytes()),
            CellKind::Gbmv { cfg, .. } => spec.fits_in_memory(cfg.footprint_bytes()),
            _ => true,
        }
    }

    /// Plan the kernel on `spec`: the generator and each simulated
    /// core's share of its loops.
    #[must_use]
    pub fn program(&self, spec: &DeviceSpec) -> Program {
        let threads = self.threads(spec);
        let rows = |total: u64| Schedule::Static.plan(total, threads, |_| 1.0);
        let plan = match *self {
            CellKind::Transpose { variant, cfg } => {
                let trace = TransposeTrace::new(cfg);
                let total = trace.outer_iterations(variant);
                let ranges = variant
                    .schedule()
                    .plan(total, threads, |i| trace.weight(variant, i));
                Plan::Transpose {
                    trace,
                    variant,
                    ranges,
                }
            }
            CellKind::Gbmv { variant, cfg } => {
                let trace = GbmvTrace::new(cfg);
                let total = trace.outer_iterations(variant);
                let ranges = variant
                    .schedule()
                    .plan(total, threads, |i| trace.weight(variant, i));
                Plan::Gbmv {
                    trace,
                    variant,
                    ranges,
                }
            }
            CellKind::Blur { variant, cfg } => {
                let trace = BlurTrace::new(cfg);
                Plan::Blur {
                    pass1: rows(trace.all_rows()),
                    pass2: rows(trace.output_rows()),
                    trace,
                    variant,
                }
            }
            CellKind::FusedBlur { cfg, .. } => {
                let trace = FusedBlurTrace::new(cfg);
                Plan::FusedBlur {
                    bands: rows(trace.output_rows()),
                    trace,
                }
            }
            CellKind::Stream { op, level } => {
                let arrays = u64::from(op.arrays_used());
                let (per_thread, scale) = match level {
                    Some(k) if spec.caches[k].shared => (
                        shared_level_elements(spec, k, u64::from(threads), arrays),
                        1.0,
                    ),
                    Some(k) => (
                        cache_level_elements(spec.caches[k].size_bytes, arrays),
                        f64::from(spec.cores),
                    ),
                    None => (dram_level_elements(spec, arrays), 1.0),
                };
                Plan::Stream {
                    trace: StreamTrace::new(op, per_thread * u64::from(threads)),
                    per_thread,
                    scale,
                }
            }
        };
        Program { threads, plan }
    }
}

/// A kernel planned for one device by [`CellKind::program`].
#[derive(Debug)]
pub struct Program {
    pub(crate) threads: u32,
    pub(crate) plan: Plan,
}

/// Each kernel's generator and per-core loop ranges.
#[derive(Debug)]
pub(crate) enum Plan {
    Transpose {
        trace: TransposeTrace,
        variant: TransposeVariant,
        ranges: Vec<Vec<Range<u64>>>,
    },
    Gbmv {
        trace: GbmvTrace,
        variant: GbmvVariant,
        ranges: Vec<Vec<Range<u64>>>,
    },
    /// Sequential variants plan one core; the single-pass ones walk
    /// `pass2`'s output rows only.
    Blur {
        trace: BlurTrace,
        variant: BlurVariant,
        pass1: Vec<Vec<Range<u64>>>,
        pass2: Vec<Vec<Range<u64>>>,
    },
    FusedBlur {
        trace: FusedBlurTrace,
        bands: Vec<Vec<Range<u64>>>,
    },
    /// Each core streams its own contiguous slice of logically shared
    /// arrays, one warm-up plus [`STREAM_PASSES`] timed passes.
    Stream {
        trace: StreamTrace,
        per_thread: u64,
        scale: f64,
    },
}

impl Program {
    /// Emit simulated core `tid`'s references into `sink`.
    pub fn emit<S: TraceSink + ?Sized>(&self, tid: u32, sink: &mut S) {
        let t = tid as usize;
        match &self.plan {
            Plan::Transpose {
                trace,
                variant,
                ranges,
            } => {
                for r in &ranges[t] {
                    trace.trace_outer(*variant, sink, tid, r.start, r.end);
                }
            }
            Plan::Gbmv {
                trace,
                variant,
                ranges,
            } => {
                for r in &ranges[t] {
                    trace.trace_outer(*variant, sink, tid, r.start, r.end);
                }
            }
            Plan::Blur {
                trace,
                variant,
                pass1,
                pass2,
            } => {
                if !variant.is_separable() {
                    for r in &pass2[t] {
                        trace.trace_2d(*variant, sink, r.start, r.end);
                    }
                    return;
                }
                for r in &pass1[t] {
                    trace.trace_pass1(sink, r.start, r.end);
                }
                if variant.is_parallel() {
                    sink.barrier();
                }
                for r in &pass2[t] {
                    trace.trace_pass2(*variant, sink, r.start, r.end);
                }
            }
            Plan::FusedBlur { trace, bands } => {
                for r in &bands[t] {
                    trace.trace_band(sink, tid, r.start, r.end);
                }
            }
            Plan::Stream {
                trace, per_thread, ..
            } => {
                let lo = u64::from(tid) * per_thread;
                for _pass in 0..=STREAM_PASSES {
                    trace.trace_pass(sink, lo, lo + per_thread);
                    sink.barrier();
                }
            }
        }
    }
}

/// Simulate one cell's kernel on `machine`.
///
/// The machine decides how, never what: [`Machine::with_budget`] fans
/// simulated cores out over host workers, [`Machine::without_fastpath`]
/// builds the per-element reference, [`Machine::with_analytic`] toggles
/// fast-forward — and every choice leaves
/// [`SimReport::stats_digest`] unchanged. Returns
/// [`CellOutcome::DoesNotFit`] when the workload exceeds device memory
/// (the missing Mango Pi bars in Fig. 2's 16384² panel),
/// [`CellOutcome::Gbps`] for STREAM cells, and [`CellOutcome::Report`]
/// otherwise.
///
/// # Example
///
/// ```
/// use membound_core::experiment::{simulate, CellKind};
/// use membound_core::{TransposeConfig, TransposeVariant};
/// use membound_sim::{Device, Machine};
///
/// let kind = CellKind::Transpose {
///     variant: TransposeVariant::Blocking,
///     cfg: TransposeConfig::with_block(512, 32),
/// };
/// let report = simulate(&Machine::new(Device::MangoPiMqPro.spec()), &kind)
///     .into_report()
///     .expect("512x512 fits in 1 GB");
/// assert!(report.seconds > 0.0);
/// ```
#[must_use]
pub fn simulate(machine: &Machine, kind: &CellKind) -> CellOutcome {
    let spec = machine.spec();
    if !kind.fits_in_memory(spec) {
        return CellOutcome::DoesNotFit;
    }
    let program = kind.program(spec);
    let report = machine.simulate(program.threads, |tid, sink| program.emit(tid, sink));
    match program.plan {
        Plan::Stream { trace, scale, .. } => {
            CellOutcome::Gbps(best_pass_gbps(spec, &trace, &report) * scale)
        }
        _ => CellOutcome::Report(Box::new(report)),
    }
}

/// STREAM's nominal bandwidth of the best steady-state pass: the cold
/// warm-up phase is skipped, as STREAM itself does.
fn best_pass_gbps(spec: &DeviceSpec, trace: &StreamTrace, report: &SimReport) -> f64 {
    let freq = spec.core.freq_ghz * 1e9;
    let best_phase_seconds = report
        .phases
        .iter()
        .skip(1)
        .map(|p| p.cycles / freq)
        .filter(|&s| s > 0.0)
        .fold(f64::INFINITY, f64::min);
    if !best_phase_seconds.is_finite() {
        return 0.0;
    }
    trace.op().nominal_bytes(trace.elements()) as f64 / best_phase_seconds / 1e9
}

/// One row of the Fig. 1 STREAM survey: a memory level with its four
/// bandwidths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamLevelResult {
    /// Level name ("L1D", "L2", ..., "DRAM").
    pub level: String,
    /// Whether the level is private per core (measured sequentially and
    /// scaled by the core count, as §4.1 prescribes) or shared (measured
    /// with all cores).
    pub private_scaled: bool,
    /// Array elements used per thread.
    pub elements_per_thread: u64,
    /// Bandwidth in GB/s for Copy, Scale, Add, Triad (STREAM order).
    pub gbps: [f64; 4],
}

/// Number of timed passes per STREAM measurement (after one warm-up).
const STREAM_PASSES: usize = 3;

/// Array sizing for a cache level: ~3/4 of capacity across all arrays.
fn cache_level_elements(level_bytes: u64, arrays: u64) -> u64 {
    ((level_bytes * 3 / 4) / (arrays * 8)).max(64)
}

/// Per-thread array sizing for a *shared* cache level: 3/4 of the
/// per-core capacity share, but at least 1.5× the level above so the
/// arrays cannot linger there (when a shared level's per-core share is
/// barely larger than the private level above it — the Xeon's L3 slice vs
/// its L2 — the measurement inevitably blends in some next-level traffic,
/// exactly as on the real part).
fn shared_level_elements(spec: &DeviceSpec, k: usize, threads: u64, arrays: u64) -> u64 {
    let share = spec.caches[k].size_bytes / threads;
    let above = if k > 0 {
        spec.caches[k - 1].size_bytes
    } else {
        0
    };
    let footprint = (share * 3 / 4).max(above * 3 / 2);
    (footprint / (arrays * 8)).max(64)
}

/// Per-thread array sizing for the DRAM level: every *individual* array
/// must comfortably exceed a core's total cache share, or steady-state
/// passes keep the store target resident and dodge its write-allocate and
/// write-back traffic.
fn dram_level_elements(spec: &DeviceSpec, arrays: u64) -> u64 {
    let total_cache: u64 = spec.caches.iter().map(|c| c.size_bytes).sum();
    let per_core_cache = total_cache / u64::from(spec.cores);
    let per_array = (3 * per_core_cache)
        .max(3 << 20)
        .min(spec.dram_capacity_bytes / (2 * u64::from(spec.cores) * arrays));
    (per_array / 8).max(1024)
}

/// GB/s of one STREAM op against one memory level (`None` = DRAM).
fn stream_gbps(machine: &Machine, op: StreamOp, level: Option<usize>) -> f64 {
    simulate(machine, &CellKind::Stream { op, level })
        .gbps()
        .expect("STREAM cells always fit")
}

/// The full Fig. 1 survey for one device: every cache level plus DRAM,
/// all four STREAM tests.
#[must_use]
pub fn simulate_stream_survey(machine: &Machine) -> Vec<StreamLevelResult> {
    let spec = machine.spec();
    let level_gbps = |level| StreamOp::all().map(|op| stream_gbps(machine, op, level));
    let mut out: Vec<StreamLevelResult> = spec
        .caches
        .iter()
        .enumerate()
        .map(|(k, cache)| StreamLevelResult {
            level: cache.name.clone(),
            private_scaled: !cache.shared,
            elements_per_thread: cache_level_elements(
                cache.size_bytes,
                u64::from(StreamOp::Triad.arrays_used()),
            ),
            gbps: level_gbps(Some(k)),
        })
        .collect();
    out.push(StreamLevelResult {
        level: "DRAM".into(),
        private_scaled: false,
        elements_per_thread: dram_level_elements(spec, 3),
        gbps: level_gbps(None),
    });
    out
}

/// The device's STREAM DRAM bandwidth (Triad), the denominator of the
/// §3.3 utilization metric.
#[must_use]
pub fn stream_dram_gbps(machine: &Machine) -> f64 {
    stream_gbps(machine, StreamOp::Triad, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use membound_parallel::JobBudget;
    use membound_sim::Device;

    fn run(spec: &DeviceSpec, kind: CellKind) -> Option<SimReport> {
        simulate(&Machine::new(spec.clone()), &kind).into_report()
    }

    fn transpose(spec: &DeviceSpec, variant: TransposeVariant, cfg: TransposeConfig) -> SimReport {
        run(spec, CellKind::Transpose { variant, cfg }).expect("fits")
    }

    fn blur(spec: &DeviceSpec, variant: BlurVariant, cfg: BlurConfig) -> SimReport {
        run(spec, CellKind::Blur { variant, cfg }).expect("blur always fits")
    }

    fn gbmv(spec: &DeviceSpec, variant: GbmvVariant, cfg: GbmvConfig) -> SimReport {
        run(spec, CellKind::Gbmv { variant, cfg }).expect("fits")
    }

    /// Every report-bearing kind at every variant, small enough to
    /// replay quickly even on the per-element reference machine.
    fn report_kinds() -> Vec<CellKind> {
        let tcfg = TransposeConfig::with_block(256, 32);
        let bcfg = BlurConfig::small(64, 80);
        let gcfg = GbmvConfig::with_bands(1024, 16, 16, 128);
        let mut kinds: Vec<CellKind> = TransposeVariant::all()
            .map(|variant| CellKind::Transpose { variant, cfg: tcfg })
            .into();
        kinds.extend(BlurVariant::all().map(|variant| CellKind::Blur { variant, cfg: bcfg }));
        kinds.push(CellKind::FusedBlur {
            cfg: bcfg,
            threads: 4,
        });
        kinds.extend(GbmvVariant::all().map(|variant| CellKind::Gbmv { variant, cfg: gcfg }));
        kinds
    }

    #[test]
    fn transpose_optimizations_help_on_the_mango_pi() {
        let spec = Device::MangoPiMqPro.spec();
        let cfg = TransposeConfig::with_block(256, 32);
        let naive = transpose(&spec, TransposeVariant::Naive, cfg);
        let manual = transpose(&spec, TransposeVariant::ManualBlocking, cfg);
        assert!(
            manual.seconds < naive.seconds,
            "manual blocking must beat naive: {} vs {}",
            manual.seconds,
            naive.seconds
        );
    }

    #[test]
    fn transpose_16384_does_not_fit_on_mango_pi() {
        let kind = CellKind::Transpose {
            variant: TransposeVariant::Naive,
            cfg: TransposeConfig::new(16384),
        };
        let outcome = simulate(&Machine::new(Device::MangoPiMqPro.spec()), &kind);
        assert_eq!(outcome, CellOutcome::DoesNotFit);
    }

    #[test]
    fn parallel_transpose_uses_all_cores() {
        // The matrix must exceed the shared L2 (1 MB): below that size the
        // capacity-partitioning approximation of shared caches (see
        // DESIGN.md) unfairly penalizes the parallel run.
        let cfg = TransposeConfig::with_block(1024, 32);
        let spec = Device::RaspberryPi4.spec();
        let r = transpose(&spec, TransposeVariant::Parallel, cfg);
        assert_eq!(r.threads, 4);
        let naive = transpose(&spec, TransposeVariant::Naive, cfg);
        assert_eq!(naive.threads, 1);
        assert!(
            r.seconds < naive.seconds / 1.5,
            "parallel {} vs naive {}",
            r.seconds,
            naive.seconds
        );
    }

    #[test]
    fn gbmv_blocking_beats_naive_on_the_mango_pi() {
        let spec = Device::MangoPiMqPro.spec();
        let cfg = GbmvConfig::with_bands(4096, 64, 64, 256);
        let naive = gbmv(&spec, GbmvVariant::Naive, cfg);
        let blocked = gbmv(&spec, GbmvVariant::Blocked, cfg);
        assert!(
            blocked.seconds < naive.seconds,
            "unit-stride panels must beat the anti-diagonal walk: {} vs {}",
            blocked.seconds,
            naive.seconds
        );
    }

    #[test]
    fn gbmv_wide_band_does_not_fit_on_mango_pi() {
        // 2049 diagonals × 65536 columns × 8 B ≈ 1.07 GB of band storage
        // alone — past the Mango Pi's 1 GB, like the 16384² transpose.
        let kind = CellKind::Gbmv {
            variant: GbmvVariant::Naive,
            cfg: GbmvConfig::with_bands(65536, 1024, 1024, 256),
        };
        let mango = Machine::new(Device::MangoPiMqPro.spec());
        assert_eq!(simulate(&mango, &kind), CellOutcome::DoesNotFit);
        assert!(
            kind.fits_in_memory(&Device::RaspberryPi4.spec()),
            "the same workload fits in the Pi 4's 4 GB"
        );
    }

    /// `gbmv` reads the band exactly once, so once the walk is
    /// unit-stride it is pure DRAM streaming: spreading panels over the
    /// Pi 4's four cores must neither help nor hurt — the paper's
    /// memory-bound-scaling point in miniature. The parallel variant
    /// still beats the latency-bound naïve walk.
    #[test]
    fn parallel_gbmv_uses_all_cores_but_stays_dram_bound() {
        let spec = Device::RaspberryPi4.spec();
        let cfg = GbmvConfig::with_bands(8192, 64, 64, 256);
        let parallel = gbmv(&spec, GbmvVariant::Parallel, cfg);
        assert_eq!(parallel.threads, 4);
        let blocked = gbmv(&spec, GbmvVariant::Blocked, cfg);
        assert_eq!(blocked.threads, 1);
        let ratio = parallel.seconds / blocked.seconds;
        assert!(
            (0.8..=1.05).contains(&ratio),
            "DRAM-bound panels should not scale with cores: parallel {} vs blocked {}",
            parallel.seconds,
            blocked.seconds
        );
        let naive = gbmv(&spec, GbmvVariant::Naive, cfg);
        assert!(
            parallel.seconds < naive.seconds,
            "parallel {} vs naive {}",
            parallel.seconds,
            naive.seconds
        );
    }

    #[test]
    fn blur_ladder_improves_on_xeon() {
        let spec = Device::IntelXeon4310T.spec();
        let cfg = BlurConfig::small(96, 120);
        let naive = blur(&spec, BlurVariant::Naive, cfg);
        let memory = blur(&spec, BlurVariant::Memory, cfg);
        assert!(
            memory.seconds < naive.seconds / 3.0,
            "memory variant should be much faster: {} vs {}",
            memory.seconds,
            naive.seconds
        );
    }

    #[test]
    fn parallel_blur_runs_two_phases() {
        let spec = Device::RaspberryPi4.spec();
        let r = blur(&spec, BlurVariant::Parallel, BlurConfig::small(64, 64));
        assert!(r.phases.len() >= 2, "pass barrier must split phases");
        assert_eq!(r.threads, 4);
    }

    #[test]
    fn fused_blur_reduces_dram_traffic_where_the_ring_fits() {
        // The image must exceed the caches (so the Memory variant's tmp
        // round-trip really reaches DRAM) while the F-row ring still fits:
        // the Raspberry Pi 4 with a ~4 MB image is exactly that regime.
        let cfg = BlurConfig::small(507, 636);
        let spec = Device::RaspberryPi4.spec();
        let parallel = blur(&spec, BlurVariant::Parallel, cfg);
        let threads = spec.cores;
        let fused = run(&spec, CellKind::FusedBlur { cfg, threads }).unwrap();
        assert!(
            (fused.dram.bytes_total() as f64) < parallel.dram.bytes_total() as f64 * 0.8,
            "fusion must cut DRAM traffic: {} vs {}",
            fused.dram.bytes_total(),
            parallel.dram.bytes_total()
        );
        assert!(fused.seconds < parallel.seconds);
    }

    #[test]
    fn fused_blur_clamps_thread_count_to_cores() {
        let spec = Device::StarFiveVisionFive.spec();
        let cfg = BlurConfig::small(48, 64);
        let r = run(&spec, CellKind::FusedBlur { cfg, threads: 16 }).unwrap();
        assert_eq!(r.threads, 2);
    }

    /// Budgeted replay is a host-side optimization only: digests from
    /// the fanned-out and serial machines must be byte-identical for
    /// every report-bearing kind, and for a STREAM bandwidth.
    #[test]
    fn budgeted_kernels_match_serial_digests() {
        let spec = Device::RaspberryPi4.spec();
        let serial = Machine::new(spec.clone());
        let fanned = Machine::new(spec).with_budget(JobBudget::new(4));
        for kind in report_kinds() {
            let one = simulate(&serial, &kind).into_report().unwrap();
            let many = simulate(&fanned, &kind).into_report().unwrap();
            assert_eq!(one.stats_digest(), many.stats_digest(), "{kind:?}");
            if one.threads > 1 {
                assert!(many.host_workers > 1, "spare budget unused: {kind:?}");
            }
        }
        assert_eq!(
            stream_dram_gbps(&serial).to_bits(),
            stream_dram_gbps(&fanned).to_bits()
        );
    }

    /// At 64 simulated cores on the SG2044 (contended DRAM, so every
    /// phase replays), host fan-out must engage and stay
    /// digest-invisible at every `--jobs` level.
    #[test]
    fn sg2044_gbmv_is_jobs_invariant_with_host_fanout() {
        let spec = Device::SophonSG2044.spec();
        let kind = CellKind::Gbmv {
            variant: GbmvVariant::Parallel,
            cfg: GbmvConfig::with_bands(2048, 32, 32, 32), // 64 panels, one per core
        };
        let serial = run(&spec, kind.clone()).unwrap();
        assert_eq!(serial.threads, 64);
        for jobs in [8u32, 64] {
            let machine = Machine::new(spec.clone()).with_budget(JobBudget::new(jobs));
            let fanned = simulate(&machine, &kind).into_report().unwrap();
            assert_eq!(
                serial.stats_digest(),
                fanned.stats_digest(),
                "digest diverged at --jobs {jobs}"
            );
            assert!(fanned.host_workers > 1, "spare budget must be used");
        }
    }

    /// The strided fast path must be an exact optimization for every
    /// kernel's trace (the naïve gbmv anti-diagonal walk is its hardest
    /// case).
    #[test]
    fn reference_machine_matches_fastpath_digest() {
        let spec = Device::StarFiveVisionFive.spec();
        let fast = Machine::new(spec.clone());
        let reference = Machine::new(spec).without_fastpath();
        for kind in report_kinds() {
            let a = simulate(&fast, &kind).into_report().unwrap();
            let b = simulate(&reference, &kind).into_report().unwrap();
            assert_eq!(a.stats_digest(), b.stats_digest(), "{kind:?}");
        }
    }

    #[test]
    fn stream_dram_bandwidth_is_bounded_by_the_model_peak() {
        for device in Device::all() {
            let spec = device.spec();
            let measured = stream_dram_gbps(&Machine::new(spec.clone()));
            let peak = spec.dram_gbps();
            assert!(measured > 0.0, "{device}");
            assert!(
                measured <= peak * 1.05,
                "{device}: measured {measured} exceeds peak {peak}"
            );
            assert!(
                measured >= peak * 0.2,
                "{device}: measured {measured} implausibly low vs peak {peak}"
            );
        }
    }

    #[test]
    fn l1_stream_is_faster_than_dram_stream() {
        for device in [Device::MangoPiMqPro, Device::IntelXeon4310T] {
            let machine = Machine::new(device.spec());
            let l1 = stream_gbps(&machine, StreamOp::Copy, Some(0));
            let dram = stream_gbps(&machine, StreamOp::Copy, None);
            assert!(l1 > dram, "{device}: L1 {l1} should beat DRAM {dram}");
        }
    }

    #[test]
    fn survey_has_one_row_per_level_plus_dram() {
        let survey = simulate_stream_survey(&Machine::new(Device::StarFiveVisionFive.spec()));
        assert_eq!(survey.len(), 3); // L1 + L2 + DRAM
        assert_eq!(survey[0].level, "L1D");
        assert_eq!(survey.last().unwrap().level, "DRAM");
        for row in &survey {
            for g in row.gbps {
                assert!(g > 0.0, "{row:?}");
            }
        }
    }
}
