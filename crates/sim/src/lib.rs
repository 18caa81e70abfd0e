//! `membound-sim` — a trace-driven, cycle-approximate multicore
//! memory-hierarchy simulator.
//!
//! This crate is the hardware substitute for the reproduction of *"Case
//! Study for Running Memory-Bound Kernels on RISC-V CPUs"* (PACT 2023):
//! the paper's two RISC-V boards (and its ARM and x86 comparison machines)
//! are modelled as [`DeviceSpec`]s — caches, TLBs, hardware prefetchers,
//! DRAM channels and a coarse core-pipeline model — and kernels are
//! replayed against them as memory-reference traces.
//!
//! # Model summary
//!
//! * [`Cache`] — set-associative, write-back + write-allocate, pluggable
//!   [`ReplacementPolicy`] (the U74 really does use random replacement).
//! * [`Tlb`] + [`PageWalk`] — two TLB levels and an Sv39-style radix walk
//!   whose PTE loads are replayed through the data caches.
//! * [`Prefetcher`] — stride/stream detectors per cache level, matching
//!   the C906's ≤16-line stride prefetch and the U74's ramping-distance
//!   prefetch.
//! * [`CoreConfig`] — issue width, vector width and memory-level
//!   parallelism; converts `membound_trace::IterCost` into issue cycles
//!   and decides how much miss latency is exposed.
//! * [`DramConfig`] — latency + aggregate channel bandwidth.
//! * [`Machine`] — runs one trace stream per simulated core (fanning the
//!   replay out across host workers leased from a [`JobBudget`] when one
//!   is attached), partitions shared cache capacity, aligns barrier
//!   phases, and reports the limiting [`Bottleneck`] per phase.
//!
//! # Example
//!
//! ```
//! use membound_sim::{Device, Machine};
//! use membound_trace::TraceSink;
//!
//! // Stream 1 MiB through the Mango Pi model and look at the traffic.
//! let machine = Machine::new(Device::MangoPiMqPro.spec());
//! let report = machine.simulate(1, |_tid, sink| {
//!     for i in 0..(1 << 14) {
//!         sink.load(i * 64, 64);
//!     }
//! });
//! assert!(report.dram.bytes_read >= 1 << 20);
//! assert!(report.seconds > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Fingerprint of the simulator's *semantics*: part of every persistent
/// result-cache key (`membound-core::cache`), so entries simulated by an
/// older model can never satisfy a lookup from a newer one.
///
/// The workspace version (synced to CHANGELOG.md releases since 0.5.0)
/// tracks API surface, not simulation semantics, so this is maintained
/// by hand: **bump it whenever a change to `membound-sim`,
/// `membound-trace` or the kernel trace generators migrates the
/// canonical figure digests** (the `combined_digest` baselines recorded
/// in `BENCH_sim.json`, which the value names as a cross-check). Purely
/// diagnostic fields (`host_workers`, wall times) do not require a bump
/// — they are excluded from `stats_digest` and therefore from cached
/// payload equality.
///
/// `sim-v2` is the fixed-point cycle migration (DESIGN.md §13): cycle
/// accounting moved from f64 accumulators to exact u64 subcycle
/// integers, changing every digest once.
pub const SIM_FINGERPRINT: &str = "sim-v2+f2:7bceab43d67f5ae3+f6:a232853937fe2c5d";

mod analytic;
mod assoc;
mod cache;
mod core;
mod devices;
mod dram;
pub mod future;
mod hierarchy;
mod machine;
mod prefetch;
mod replacement;
mod stats;
mod tlb;

pub use analytic::{estimate_coverage, Coverage};
pub use cache::{Cache, CacheAccessResult, CacheConfig};
pub use core::{CoreConfig, MAX_ISSUE_WIDTH, MAX_MLP};
pub use devices::Device;
pub use dram::DramConfig;
pub use hierarchy::{CorePipeline, PhaseAccum};
pub use machine::{analytic_default, Bottleneck, DeviceSpec, Machine, PhaseReport, SimReport};
// Re-exported so `Machine::with_budget` callers need no direct
// `membound-parallel` dependency.
pub use membound_parallel::JobBudget;
pub use prefetch::{Prefetcher, PrefetcherConfig};
pub use replacement::ReplacementPolicy;
pub use stats::{CycleBreakdown, DramStats, LevelStats, SUBCYCLE_ONE, SUBCYCLE_SHIFT};
pub use tlb::{PageWalk, Tlb, TlbConfig};
