//! # ulp-lockstep
//!
//! A from-scratch reproduction of *"Synchronizing Code Execution on
//! Ultra-Low-Power Embedded Multi-Channel Signal Analysis Platforms"*
//! (Dogan et al., DATE 2013): a cycle-level simulator of an 8-core
//! ultra-low-power SIMD-capable platform with a hardware synchronizer and a
//! `SINC`/`SDEC` instruction-set extension that keep the cores in lockstep,
//! plus the paper's ECG benchmarks and its voltage-scaling power model.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`isa`] — the ULP16 instruction set, assembler and disassembler;
//! * [`cpu`] — the single-core micro-architecture model;
//! * [`mem`] — banked memories and broadcast-capable crossbars;
//! * [`sync`] — the hardware synchronizer (the paper's contribution);
//! * [`platform`] — the composed multi-core platform and cycle loop;
//! * [`biosignal`] — synthetic ECG generation and golden reference DSP;
//! * [`kernels`] — the MRPFLTR / MRPDLN / SQRT32 benchmarks in assembly;
//! * [`power`] — the calibrated event-energy and voltage-scaling model;
//! * [`telemetry`] — job-lifecycle tracing, a metrics registry, and
//!   Chrome-trace / JSON-snapshot exporters shared by the service stack;
//! * [`service`] — the batch simulation service: a work-stealing worker
//!   pool with cached platforms and streamed job results;
//! * [`shard`] — workload sharding: long recordings split into
//!   overlapping time shards, run as service jobs, merged back into one
//!   logical run with recording-level statistics and energy.
//!
//! See the repository `README.md` for a quickstart and `EXPERIMENTS.md` for
//! the paper-versus-measured reproduction results.

pub use ulp_biosignal as biosignal;
pub use ulp_cpu as cpu;
pub use ulp_isa as isa;
pub use ulp_kernels as kernels;
pub use ulp_mem as mem;
pub use ulp_platform as platform;
pub use ulp_power as power;
pub use ulp_service as service;
pub use ulp_shard as shard;
pub use ulp_sync as sync;
pub use ulp_telemetry as telemetry;
