//! `membound-core` — the kernel suite of *"Case Study for Running
//! Memory-Bound Kernels on RISC-V CPUs"* (PACT 2023).
//!
//! Four memory-bound kernels, each as a ladder of progressively
//! optimized variants:
//!
//! * **STREAM** (§4.1) — [`StreamOp`]: Copy/Scale/Add/Triad, sized per
//!   memory level;
//! * **in-place matrix transposition** (§4.2) — [`TransposeVariant`]:
//!   Naive → Parallel → Blocking → Manual_blocking → Dynamic;
//! * **Gaussian blur** (§4.3) — [`BlurVariant`]: Naive → Unit-stride →
//!   1D_kernels → Memory → Parallel;
//! * **band-matrix `gbmv`** (the group's band-BLAS follow-up) —
//!   [`GbmvVariant`]: Naive → Blocked → Parallel.
//!
//! Every variant has two execution paths:
//!
//! 1. **native** — really runs on the host
//!    ([`transpose_native`], [`blur_native`], [`run_native_stream`]),
//!    parallelized with `membound-parallel`'s OpenMP-style pool;
//! 2. **simulated** — replayed as a memory-reference trace against the
//!    device models of `membound-sim` (the [`experiment`] module, whose
//!    one entry point is [`experiment::simulate`]), which is how the
//!    paper's cross-device figures are regenerated without RISC-V
//!    hardware; [`figures`] builds their experiment matrices.
//!
//! The [`metrics`] module implements §3.3's measures (speedup over naïve,
//! relative memory-bandwidth utilization), and [`report`] renders the
//! figure tables.
//!
//! # Quick example
//!
//! ```
//! use membound_core::experiment::{simulate, CellKind};
//! use membound_core::{TransposeConfig, TransposeVariant};
//! use membound_sim::{Device, Machine};
//!
//! // How long does a blocked 1024x1024 transpose take on a simulated
//! // Mango Pi MQ-Pro, and how much DRAM traffic does it cause?
//! let cfg = TransposeConfig::new(1024);
//! let machine = Machine::new(Device::MangoPiMqPro.spec());
//! let kind = CellKind::Transpose { variant: TransposeVariant::Blocking, cfg };
//! let report = simulate(&machine, &kind).into_report().unwrap();
//! assert!(report.seconds > 0.0);
//! assert!(report.dram.bytes_read >= cfg.matrix_bytes());
//! ```

#![warn(missing_docs)]

mod blur;
pub mod cache;
pub mod experiment;
pub mod figures;
mod gbmv;
mod matrix;
pub mod metrics;
pub mod report;
pub mod roofline;
pub mod runner;
mod stream;
pub mod telemetry;
mod transpose;

pub use blur::{
    blur_fused_native, blur_native, BlurConfig, BlurTrace, BlurVariant, FusedBlurTrace,
};
pub use gbmv::{gbmv_native, traced::GbmvTrace, BandMatrix, GbmvConfig, GbmvVariant};
pub use matrix::SquareMatrix;
pub use stream::{run_native as run_native_stream, NativeStreamResult, StreamOp, StreamTrace};
pub use transpose::{traced::TransposeTrace, transpose_native, TransposeConfig, TransposeVariant};
