//! # ulp-kernels — the paper's ECG benchmarks in ULP16 assembly
//!
//! The three reference benchmarks of Section II of Dogan et al. (DATE
//! 2013), hand-written in platform assembly and executed on the simulated
//! multi-core:
//!
//! * [`Benchmark::Mrpfltr`] — morphological filtering (baseline wander
//!   correction + noise suppression);
//! * [`Benchmark::Mrpdln`] — delineation by multiscale morphological
//!   derivatives;
//! * [`Benchmark::Sqrt32`] — 32-bit integer square root for multi-lead
//!   combination.
//!
//! Every kernel is SPMD: the same program runs on all eight cores, each
//! processing its own ECG channel held in its own data-memory bank (see
//! [`layout`]). Synchronization points are inserted around every
//! data-dependent conditional exactly as in Listing 1 of the paper;
//! building with `instrumented = false` yields the baseline binary for the
//! design without the synchronization ISE.
//!
//! [`run_benchmark`] executes a benchmark on both platform variants and validates
//! the outputs *bit-exactly* against the golden models of
//! [`ulp_biosignal`].
//!
//! ## Example
//!
//! ```
//! use ulp_kernels::{run_benchmark, Benchmark, WorkloadConfig};
//!
//! let cfg = WorkloadConfig::quick_test();
//! let run = run_benchmark(Benchmark::Sqrt32, true, &cfg).unwrap();
//! assert_eq!(run.outputs, run.expected, "kernel matches the golden model");
//! assert!(run.stats.ops_per_cycle() > 0.0);
//! ```

mod builder;
pub mod layout;
mod mrpdln_kernel;
mod mrpfltr_kernel;
mod runner;
mod sqrt32_kernel;

pub use builder::{AsmBuilder, KernelOptions, SyncGranularity};
pub use layout::BufferLayout;
pub use mrpdln_kernel::{mrpdln_source, MrpdlnParams};
pub use mrpfltr_kernel::{mrpfltr_source, MrpfltrParams};
pub use runner::{
    golden_outputs, kernel_source, resume_benchmark_checkpointed, run_benchmark,
    run_benchmark_checkpointed, run_benchmark_on, run_benchmark_reusing,
    run_benchmark_reusing_with, Benchmark, BenchmarkRun, CheckpointControl, RunnerError,
    SourceWindow, WorkloadConfig, WorkloadError,
};
pub use sqrt32_kernel::{sqrt32_source, Sqrt32Params};
