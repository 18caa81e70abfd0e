//! # membound
//!
//! A reproduction of **“Case Study for Running Memory-Bound Kernels on
//! RISC-V CPUs”** (Volokitin et al., PACT 2023) as a Rust workspace.
//!
//! The paper benchmarks three memory-bound kernels — STREAM, in-place
//! dense matrix transposition and Gaussian blur — on two early RISC-V
//! boards (Mango Pi MQ-Pro / Allwinner D1, StarFive VisionFive / JH7100),
//! a Raspberry Pi 4 and an Intel Xeon 4310T server, and studies whether
//! classic x86 memory-optimization techniques carry over to RISC-V.
//!
//! Since the reproduction has no RISC-V silicon to run on, the four
//! devices are modelled by a trace-driven, cycle-approximate
//! memory-hierarchy simulator ([`sim`]), parameterized straight from the
//! paper's §3.1 hardware table. Every kernel variant also runs natively
//! on the host, so the optimization ladders can be demonstrated on real
//! hardware too.
//!
//! This crate is a facade: it re-exports the workspace's six libraries
//! under one namespace.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `membound-core` | the kernel ladders, metrics, experiment harness |
//! | [`sim`] | `membound-sim` | caches, TLBs, prefetchers, DRAM, device presets |
//! | [`trace`] | `membound-trace` | memory-reference traces and generators |
//! | [`parallel`] | `membound-parallel` | OpenMP-style pool and schedules |
//! | [`image`] | `membound-image` | image substrate and Gaussian kernels |
//! | [`serve`] | `membound-serve` | simulation daemon, job queue, wire protocol |
//!
//! # Quickstart
//!
//! ```
//! use membound::core::experiment::{simulate, CellKind};
//! use membound::core::{TransposeConfig, TransposeVariant};
//! use membound::sim::{Device, Machine};
//!
//! // Fig. 2, one bar: blocked transposition on the simulated VisionFive.
//! let kind = CellKind::Transpose {
//!     variant: TransposeVariant::Blocking,
//!     cfg: TransposeConfig::new(1024),
//! };
//! let machine = Machine::new(Device::StarFiveVisionFive.spec());
//! let report = simulate(&machine, &kind).into_report().unwrap();
//! println!("simulated time: {:.3} s", report.seconds);
//! # assert!(report.seconds > 0.0);
//! ```

#![warn(missing_docs)]

pub use membound_core as core;
pub use membound_image as image;
pub use membound_parallel as parallel;
pub use membound_serve as serve;
pub use membound_sim as sim;
pub use membound_trace as trace;
