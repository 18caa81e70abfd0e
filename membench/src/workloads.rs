//! The workloads: their inputs, their pinned outputs, and the
//! benchmark's own copy of each cell's trace emission.
//!
//! The emission functions mirror `membound_core::experiment`'s
//! `simulate_*` bodies call for call, so a cell replayed through
//! [`Work::simulate`] must reproduce the engine's digest for that cell
//! (the traced run checks that it does before trusting any layer
//! timing taken from it).

use membound_core::runner::{Cell, CellKind, ExperimentMatrix};
use membound_core::{GbmvTrace, TransposeConfig, TransposeTrace, TransposeVariant};
use membound_parallel::JobBudget;
use membound_serve::JobSpec;
use membound_sim::{Device, DeviceSpec, Machine, SimReport};
use membound_trace::{IterCost, TraceSink};

/// Combined digest of the fig2 matrix on the Mango Pi (BENCH_sim.json).
pub const FIG2_MANGO_DIGEST: &str = "7bceab43d67f5ae3";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 2 transposition matrix on the Mango Pi, engine at jobs 1.
    Fig2Mango,
    /// Single-pass blocked triad, TLB off, one Xeon and one StarFive cell.
    TriadTlbOff,
    /// In-process daemon driven by one cold and one warm client.
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig2Mango,
        Workload::TriadTlbOff,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Mango => "fig2_mango",
            Workload::TriadTlbOff => "triad_tlboff",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The fig2 matrix exactly as `fig2_transpose --device mango` builds it.
pub fn fig2_matrix() -> ExperimentMatrix {
    fig2_matrix_at(&[2048, 4096])
}

/// The fig2 ladder on the Mango Pi at the given sizes.
pub fn fig2_matrix_at(sizes: &[usize]) -> ExperimentMatrix {
    let device = Device::MangoPiMqPro;
    let spec = device.spec();
    let mut matrix = ExperimentMatrix::new("fig2_transpose");
    for &n in sizes {
        let cfg = TransposeConfig::new(n);
        for variant in TransposeVariant::all() {
            matrix.push(Cell::transpose(
                n.to_string(),
                device.label(),
                &spec,
                variant,
                cfg,
            ));
        }
    }
    matrix
}

/// Elements per emission block of the triad: 8 KiB per stream, as in
/// `whatif_large_n`, so the recorder folds a whole pass into one
/// `Repeat`.
const TRIAD_BLOCK_ELEMS: u64 = 1024;

/// One single-pass blocked triad `a[i] = b[i] + s*c[i]` over three
/// well-separated arrays: the `whatif_large_n` kernel.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    pub elements: u64,
    base_a: u64,
    base_b: u64,
    base_c: u64,
}

impl Triad {
    pub fn new(elements: u64) -> Self {
        // whatif_large_n's placement: regions far apart, 65-line skew.
        let stride = (elements * 8).next_power_of_two().max(1 << 20) + 65 * 64;
        let base = 0x2000_0000_0000;
        Self {
            elements,
            base_a: base,
            base_b: base + stride,
            base_c: base + 2 * stride,
        }
    }

    /// Emit simulated core `tid`'s share of the triad: the `tid`-th of
    /// `threads` contiguous, block-aligned slices of the arrays.
    pub fn emit<S: TraceSink + ?Sized>(&self, tid: u32, threads: u32, sink: &mut S) {
        let blocks = self.elements.div_ceil(TRIAD_BLOCK_ELEMS);
        let part = |t: u32| {
            (blocks * u64::from(t) / u64::from(threads) * TRIAD_BLOCK_ELEMS).min(self.elements)
        };
        let (lo, end) = (part(tid), part(tid + 1));
        let mut i = lo;
        while i < end {
            let hi = (i + TRIAD_BLOCK_ELEMS).min(end);
            let bytes = (hi - i) * 8;
            sink.load_range(self.base_b + i * 8, bytes);
            sink.load_range(self.base_c + i * 8, bytes);
            sink.store_range(self.base_a + i * 8, bytes);
            i = hi;
        }
        let cost = IterCost::new(2, 2)
            .mem(2, 1)
            .elem_bytes(8)
            .vectorizable(true);
        sink.compute(cost, end - lo);
    }
}

/// A triad cell: device, size, simulated cores and pinned digest.
#[derive(Debug, Clone, Copy)]
pub struct TriadCell {
    pub device: Device,
    pub elements: u64,
    /// Simulated cores; a cell on more than one is replayed on as many
    /// host workers (the machine's per-core fan-out).
    pub threads: u32,
    /// `SimReport::stats_digest` at this size, proven equal to forced
    /// replay when pinned (`checks::triad_pins_equal_forced_replay`).
    pub digest: &'static str,
}

/// The triad cells. The Xeon cell is fast-forwarded by the analytic
/// executor (~99% of ops); the StarFive's random-replacement L2 refuses
/// the proof, so its cells replay, the last one on both cores (the
/// shared L2 partitioned between them) and two host workers. The
/// single-core cells take comparable host time; the two-core cell takes
/// about half as much, because its time depends on both host CPUs and
/// so spreads most between passes. Every working set exceeds every
/// modelled cache many times.
pub const TRIAD_CELLS: [TriadCell; 3] = [
    TriadCell {
        device: Device::IntelXeon4310T,
        elements: 1 << 28,
        threads: 1,
        digest: "fd2b936ba377cac4",
    },
    TriadCell {
        device: Device::StarFiveVisionFive,
        elements: 1 << 23,
        threads: 1,
        digest: "f61bf3d546456388",
    },
    TriadCell {
        device: Device::StarFiveVisionFive,
        elements: 1 << 22,
        threads: 2,
        digest: "5faaf8a5f1cc5936",
    },
];

impl TriadCell {
    pub fn work(&self) -> Work {
        Work::Triad {
            label: format!(
                "triad {} n=2^{} x{}",
                self.device.label(),
                self.elements.trailing_zeros(),
                self.threads
            ),
            spec: self.device.spec().without_tlb(),
            triad: Triad::new(self.elements),
            threads: self.threads,
        }
    }
}

/// Served-job specs of `serve_mixed`.
pub mod serve_specs {
    use super::*;

    /// The matrix the warm client resubmits; pre-warmed during set-up.
    pub fn warm() -> JobSpec {
        JobSpec::TransposeLadder {
            sizes: vec![512],
            block: 16,
            device: Some("mango".into()),
        }
    }

    /// One-shot digest of [`warm`] (`Engine::run` at any job count).
    pub const WARM_DIGEST: &str = "a2a02983a003360a";

    /// Cold transposition ladders (order, one-shot digest): distinct
    /// orders, so every cell misses the cache, of near-equal cost.
    pub const COLD_TRANSPOSE: [(usize, &str); 24] = [
        (1400, "149e1abef753f1e4"),
        (1408, "ab34810b5f1ee440"),
        (1416, "dc2477076ccce3c2"),
        (1424, "a59d8a5a1bde6fc4"),
        (1432, "7891e07d57782f43"),
        (1440, "c366bbf550915487"),
        (1448, "d8c16a87e8df526f"),
        (1456, "f8312466c58df9b9"),
        (1464, "e81abfda554059f1"),
        (1472, "4e9d71b92910c1f5"),
        (1480, "952288a006af4dab"),
        (1488, "ac259625922c894f"),
        (1496, "7b8e882f4f583363"),
        (1504, "d272a84232c337cb"),
        (1512, "ce907b667fde3f11"),
        (1520, "917a76baa0d0a5f1"),
        (1528, "8a452b2da0327ab9"),
        (1536, "8312c61e4492d331"),
        (1544, "4aadf90b06168ba7"),
        (1552, "f2fc76f3ac46d7d8"),
        (1560, "4322093c22f82ff7"),
        (1568, "afec79ac812194e3"),
        (1576, "d0e9ccfc95bd9e4e"),
        (1584, "bfd4fb0669c53a33"),
    ];
    /// Cold gbmv ladders (order, one-shot digest).
    pub const COLD_GBMV: [(usize, &str); 24] = [
        (12000, "27e34995706e96ff"),
        (12008, "976d0b0543d3502a"),
        (12016, "e26ab262438957e3"),
        (12024, "ec29d6839fd6656d"),
        (12032, "c9ab09c00b75e475"),
        (12040, "d193a6cbd841bda3"),
        (12048, "8a54b4147eda671e"),
        (12056, "b9cd6e5459999d2b"),
        (12064, "206be5b1fae4b3b3"),
        (12072, "ec666b2529b3dd59"),
        (12080, "49cbc3c9811e3af5"),
        (12088, "50cea45c5a216829"),
        (12096, "44e31a512f67a640"),
        (12104, "15ec20225ba13de5"),
        (12112, "870bef0dc9f00425"),
        (12120, "d16e00dbf44106ec"),
        (12128, "07feab5187a633ea"),
        (12136, "15debd28e2ca7f10"),
        (12144, "bebd26f962e55977"),
        (12152, "dd37cb021791fc08"),
        (12160, "a4b51d26812ab163"),
        (12168, "36c0efd32f638436"),
        (12176, "024941c92b144ad4"),
        (12184, "6934f669d2c57558"),
    ];
    /// Cold jobs per run.
    pub const COLD_POOL_LEN: usize = COLD_TRANSPOSE.len() + COLD_GBMV.len();

    /// Every cold job with its one-shot digest, in canonical order.
    pub fn cold_pool() -> Vec<(JobSpec, &'static str)> {
        let transpose = COLD_TRANSPOSE.iter().map(|&(n, digest)| {
            let spec = JobSpec::TransposeLadder {
                sizes: vec![n],
                block: 32,
                device: Some("mango".into()),
            };
            (spec, digest)
        });
        let gbmv = COLD_GBMV.iter().map(|&(n, digest)| {
            let spec = JobSpec::GbmvLadder {
                sizes: vec![n],
                device: Some("mango".into()),
            };
            (spec, digest)
        });
        transpose.chain(gbmv).collect()
    }
}

/// One unit of simulation the traced run profiles: an engine cell or a
/// triad cell, with the benchmark's own copy of its trace emission.
#[derive(Debug, Clone)]
pub enum Work {
    Cell(Cell),
    Triad {
        label: String,
        spec: DeviceSpec,
        triad: Triad,
        threads: u32,
    },
}

impl Work {
    pub fn label(&self) -> String {
        match self {
            Work::Cell(c) => format!("{} {} {}", c.panel, c.device, c.variant),
            Work::Triad { label, .. } => label.clone(),
        }
    }

    pub fn spec(&self) -> &DeviceSpec {
        match self {
            Work::Cell(c) => &c.spec,
            Work::Triad { spec, .. } => spec,
        }
    }

    /// Whether the workload fits the modelled DRAM (cells that do not
    /// fit are never simulated, as in the engine).
    pub fn fits(&self) -> bool {
        match self {
            Work::Cell(c) => match &c.kind {
                CellKind::Transpose { cfg, .. } => c.spec.fits_in_memory(cfg.matrix_bytes()),
                CellKind::Gbmv { cfg, .. } => c.spec.fits_in_memory(cfg.footprint_bytes()),
                _ => true,
            },
            Work::Triad { spec, triad, .. } => spec.fits_in_memory(3 * triad.elements * 8),
        }
    }

    /// Simulated cores the cell runs on.
    pub fn threads(&self) -> u32 {
        match self {
            Work::Cell(c) => match &c.kind {
                CellKind::Transpose { variant, .. } if variant.is_parallel() => c.spec.cores,
                CellKind::Gbmv { variant, .. } if variant.is_parallel() => c.spec.cores,
                _ => 1,
            },
            Work::Triad { threads, .. } => *threads,
        }
    }

    /// Emit simulated core `tid`'s references into `sink`.
    pub fn emit<S: TraceSink + ?Sized>(&self, tid: u32, sink: &mut S) {
        let threads = self.threads();
        match self {
            Work::Triad { triad, .. } => triad.emit(tid, threads, sink),
            Work::Cell(c) => match &c.kind {
                CellKind::Transpose { variant, cfg } => {
                    let trace = TransposeTrace::new(*cfg);
                    let total = trace.outer_iterations(*variant);
                    let plan = variant
                        .schedule()
                        .plan(total, threads, |i| trace.weight(*variant, i));
                    for range in &plan[tid as usize] {
                        trace.trace_outer(*variant, sink, tid, range.start, range.end);
                    }
                }
                CellKind::Gbmv { variant, cfg } => {
                    let trace = GbmvTrace::new(*cfg);
                    let total = trace.outer_iterations(*variant);
                    let plan = variant
                        .schedule()
                        .plan(total, threads, |i| trace.weight(*variant, i));
                    for range in &plan[tid as usize] {
                        trace.trace_outer(*variant, sink, tid, range.start, range.end);
                    }
                }
                other => panic!("the benchmark profiles no {} cells", other.kernel()),
            },
        }
    }

    /// A machine for `spec` that replays each of the cell's simulated
    /// cores on its own host worker: the calling thread plus workers
    /// leased from a budget of `threads - 1`.
    pub fn machine(&self, spec: DeviceSpec) -> Machine {
        let machine = Machine::new(spec);
        match self.threads() {
            1 => machine,
            n => machine.with_budget(JobBudget::new(n - 1)),
        }
    }

    /// Simulate the cell through `Machine::simulate` on `machine`.
    pub fn simulate(&self, machine: &Machine) -> SimReport {
        machine.simulate(self.threads(), |tid, sink| self.emit(tid, sink))
    }
}
