//! The repository benchmark.
//!
//! One process runs one seeded workload through the public APIs of
//! `ulp_kernels`, `ulp_platform`, `ulp_service` and `ulp_shard`, checks
//! every output against the golden model, and reports either the
//! end-to-end metrics (untraced) or the per-layer metrics (traced). See
//! `README.md` next to this crate for what each workload and metric is
//! for.

pub mod paper;
pub mod report;
pub mod sharded;
pub mod small_jobs;
pub mod trace;

use report::{mean, median, peak_rss_mb, tail, Metrics, Tally};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;
use ulp_kernels::Benchmark;
use ulp_platform::SimStats;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The six paper runs on the interpreter.
    PaperInterp,
    /// The six paper runs on the compiled tier.
    PaperCompiled,
    /// One long recording, sharded across a service pool, per kernel.
    ShardedRecording,
    /// A closed loop of small mixed jobs against a service pool.
    SmallJobs,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::PaperInterp,
        Workload::PaperCompiled,
        Workload::ShardedRecording,
        Workload::SmallJobs,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperInterp => "paper_interp",
            Workload::PaperCompiled => "paper_compiled",
            Workload::ShardedRecording => "sharded_recording",
            Workload::SmallJobs => "small_jobs",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The end-to-end metrics, with their units, in report order. Every
/// workload reports all of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("core_cycles_per_s", "1/s"),
    ("samples_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// `<KERNEL>.<sync|nosync>` for the six paper runs, in run order.
pub fn run_labels() -> Vec<String> {
    Benchmark::ALL
        .iter()
        .flat_map(|b| [true, false].map(|sync| run_label(*b, sync)))
        .collect()
}

/// `<KERNEL>.<sync|nosync>`.
pub fn run_label(benchmark: Benchmark, with_sync: bool) -> String {
    format!(
        "{}.{}",
        benchmark.name(),
        if with_sync { "sync" } else { "nosync" }
    )
}

/// The per-layer metrics, with their units, in report order. Every
/// workload reports all of them; a layer the workload does not exercise
/// reads 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut list: Vec<(String, &'static str)> = [
        ("trace_overhead", "ratio"),
        ("trace.accounted_frac", "ratio"),
        ("self_frac.bench", "ratio"),
        ("self_frac.kernels", "ratio"),
        ("self_frac.service", "ratio"),
        ("self_frac.shard", "ratio"),
        ("biosignal.channels_ms", "ms"),
        ("biosignal.golden_ms", "ms"),
        ("isa.assemble_ms", "ms"),
        ("platform.build_ms", "ms"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for label in run_labels() {
        list.push((format!("platform.run_ms.{label}"), "ms"));
    }
    for label in run_labels() {
        list.push((format!("platform.ns_per_core_cycle.{label}"), "ns"));
    }
    for label in run_labels() {
        list.push((format!("jit.speedup.{label}"), "ratio"));
    }
    let counts: [(&str, &'static str); 28] = [
        ("jit.compiled_cycles", "count"),
        ("jit.fallback_cycles", "count"),
        ("jit.compiled_frac", "ratio"),
        ("jit.translations", "count"),
        ("jit.hits", "count"),
        ("cpu.useful_ops", "count"),
        ("cpu.ops_per_cycle", "ops/cycle"),
        ("cpu.fetch_stall_cycles", "count"),
        ("cpu.mem_stall_cycles", "count"),
        ("cpu.sync_stall_cycles", "count"),
        ("cpu.sleep_cycles", "count"),
        ("mem.im_accesses", "count"),
        ("mem.dm_accesses", "count"),
        ("mem.ixbar_conflict_cycles", "count"),
        ("mem.dxbar_conflict_cycles", "count"),
        ("sync.batches", "count"),
        ("sync.busy_cycles", "count"),
        ("lockstep_width", "cores"),
        ("checkpoint.snapshot_ms", "ms"),
        ("checkpoint.encode_ms", "ms"),
        ("checkpoint.decode_ms", "ms"),
        ("checkpoint.restore_ms", "ms"),
        ("checkpoint.bytes", "bytes"),
        ("service.queue_wait_ms_p50", "ms"),
        ("service.run_ms_p50", "ms"),
        ("service.client_gap_ms_p50", "ms"),
        ("service.cache_hit_frac", "ratio"),
        ("service.platforms_built", "count"),
    ];
    list.extend(counts.iter().map(|(n, u)| (n.to_string(), *u)));
    for b in Benchmark::ALL {
        list.push((format!("model.speedup.{}", b.name()), "ratio"));
    }
    let tail: [(&str, &'static str); 7] = [
        ("service.steals", "count"),
        ("service.jobs_stolen", "count"),
        ("service.checkpoints_taken", "count"),
        ("shard.plan_ms", "ms"),
        ("shard.run_s", "s"),
        ("shard.merge_ms", "ms"),
        ("shard.halo_frac", "ratio"),
    ];
    list.extend(tail.iter().map(|(n, u)| (n.to_string(), *u)));
    list
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Layers whose self time the traced run reports as `self_frac.<layer>`.
pub const SELF_TIME_LAYERS: [&str; 4] = ["bench", "kernels", "service", "shard"];

/// Work done in one stretch of a timed phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Slice {
    /// Wall time in seconds.
    pub secs: f64,
    /// Simulated platform cycles × cores of verified runs.
    pub core_cycles: u64,
    /// Channel-samples whose outputs were verified.
    pub samples: u64,
    /// Operations completed.
    pub ops: u64,
    /// The client thread that did the work (paper workloads run several).
    pub client: usize,
}

/// What one timed phase did.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of the phase in seconds.
    pub wall_s: f64,
    /// Operations completed (paper: a pass of the six runs; sharded: a
    /// pass of the three kernels over the recording; small jobs: a job).
    pub ops: u64,
    /// Simulated platform cycles × cores of verified runs.
    pub core_cycles: u64,
    /// Channel-samples whose outputs were verified.
    pub samples: u64,
    /// Latency of every operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Checked operations and their failures.
    pub tally: Tally,
    /// Consecutive stretches of the phase; throughputs are their medians,
    /// so a stretch the host slowed down moves the result less.
    pub slices: Vec<Slice>,
    /// Totals when the current slice began.
    mark: Slice,
}

impl Phase {
    /// Ends the current slice `elapsed_s` seconds into the phase.
    pub fn cut_slice(&mut self, elapsed_s: f64) {
        let now = Slice {
            secs: elapsed_s,
            core_cycles: self.core_cycles,
            samples: self.samples,
            ops: self.ops,
            client: 0,
        };
        self.slices.push(Slice {
            secs: now.secs - self.mark.secs,
            core_cycles: now.core_cycles - self.mark.core_cycles,
            samples: now.samples - self.mark.samples,
            ops: now.ops - self.mark.ops,
            client: 0,
        });
        self.mark = now;
    }

    /// Adds the phase another client thread ran at the same time. The
    /// wall time stays this phase's own.
    pub fn absorb_client(&mut self, other: Phase) {
        let client = self.slices.iter().map(|s| s.client + 1).max().unwrap_or(1);
        self.ops += other.ops;
        self.core_cycles += other.core_cycles;
        self.samples += other.samples;
        self.latencies_ms.extend(other.latencies_ms);
        self.tally.absorb(other.tally);
        self.slices
            .extend(other.slices.into_iter().map(|s| Slice { client, ..s }));
    }

    /// Operations completed since the current slice began.
    pub fn ops_in_slice(&self) -> u64 {
        self.ops - self.mark.ops
    }

    /// `work` per second: the median over each client's slices, summed
    /// over the clients.
    fn rate(&self, work: fn(&Slice) -> u64) -> f64 {
        let clients = self.slices.iter().map(|s| s.client + 1).max().unwrap_or(0);
        (0..clients)
            .map(|client| {
                let rates: Vec<f64> = self
                    .slices
                    .iter()
                    .filter(|s| s.client == client && s.secs > 0.0)
                    .map(|s| work(s) as f64 / s.secs)
                    .collect();
                median(&rates)
            })
            .sum()
    }

    /// Host seconds per simulated core-cycle of the calling thread's
    /// client (client 0), the one a traced run traces.
    fn seconds_per_core_cycle(&self) -> f64 {
        let (secs, core_cycles) = self
            .slices
            .iter()
            .filter(|s| s.client == 0)
            .fold((0.0, 0), |(t, c), s| (t + s.secs, c + s.core_cycles));
        secs / core_cycles.max(1) as f64
    }
}

/// A workload's set-up state and its timed loop.
pub trait Bench: Sized {
    /// Builds everything the timed phase needs and runs one checked
    /// warm-up pass, recorded in `tally`.
    fn setup(seed: u64, tally: &mut Tally) -> Self;

    /// Runs operations until `seconds` have passed (at least one).
    fn timed(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase;

    /// Per-layer metrics: probes on the workload's own inputs plus what
    /// the traced phase recorded. Probe checks go into `tally`.
    fn layers(&mut self, traced: &Tracer, metrics: &mut BTreeMap<String, f64>, tally: &mut Tally);
}

/// How to run the benchmark.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every checked operation.
    pub tally: Tally,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans as JSON (traced runs only).
    pub trace_json: Option<String>,
}

/// Runs one workload.
pub fn run(opts: &Options) -> Outcome {
    match opts.workload {
        Workload::PaperInterp => drive::<paper::PaperClients<false>>(opts),
        Workload::PaperCompiled => drive::<paper::PaperClients<true>>(opts),
        Workload::ShardedRecording => drive::<sharded::Sharded>(opts),
        Workload::SmallJobs => drive::<small_jobs::SmallJobs>(opts),
    }
}

fn drive<B: Bench>(opts: &Options) -> Outcome {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        // Tear the previous state down first so every set-up starts from
        // the same point.
        drop(state.take());
        let start = Instant::now();
        state = Some(B::setup(opts.seed, &mut tally));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");
    let mut notes = vec![format!(
        "workload {} seed {} setups {:?} s",
        opts.workload.name(),
        opts.seed,
        setup_s
    )];
    let mut metrics = Metrics::default();
    let mut trace_json = None;
    if opts.trace {
        let untraced = state.timed(opts.seconds / 2.0, &mut Tracer::disabled());
        let mut tracer = Tracer::enabled();
        let traced = state.timed(opts.seconds / 2.0, &mut tracer);
        let mut values = BTreeMap::new();
        values.insert(
            "trace_overhead".to_string(),
            traced.seconds_per_core_cycle() / untraced.seconds_per_core_cycle(),
        );
        let wall_ns = traced.wall_s * 1e9;
        let by_layer = tracer.self_ns_by_layer();
        values.insert(
            "trace.accounted_frac".to_string(),
            by_layer.values().sum::<u64>() as f64 / wall_ns,
        );
        for layer in SELF_TIME_LAYERS {
            let own = by_layer.get(layer).copied().unwrap_or(0);
            values.insert(format!("self_frac.{layer}"), own as f64 / wall_ns);
        }
        state.layers(&tracer, &mut values, &mut tally);
        notes.push(format!(
            "traced phase: {} ops in {:.3} s; untraced phase: {} ops in {:.3} s",
            traced.ops, traced.wall_s, untraced.ops, untraced.wall_s
        ));
        tally.absorb(untraced.tally);
        tally.absorb(traced.tally);
        for (name, unit) in per_layer_metrics() {
            let value = values.remove(&name).unwrap_or(0.0);
            metrics.push(name, value, unit);
        }
        assert!(
            values.is_empty(),
            "per-layer metrics missing from per_layer_metrics(): {:?}",
            values.keys().collect::<Vec<_>>()
        );
        trace_json = Some(tracer.to_json());
    } else {
        let phase = state.timed(opts.seconds, &mut Tracer::disabled());
        let (tail_ms, tail_pct) = tail(&phase.latencies_ms);
        notes.push(format!(
            "timed phase: {} ops in {:.3} s; throughput slices {}; latency samples {}; \
             latency_ms_p99 is the p{:.1}",
            phase.ops,
            phase.wall_s,
            phase.slices.len(),
            phase.latencies_ms.len(),
            tail_pct
        ));
        let values = [
            phase.rate(|s| s.core_cycles),
            phase.rate(|s| s.samples),
            phase.rate(|s| s.ops),
            median(&phase.latencies_ms),
            tail_ms,
            median(&setup_s),
            peak_rss_mb(),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push(*name, value, unit);
        }
        tally.absorb(phase.tally);
    }
    drop(state);
    notes.push(tally.summary());
    for detail in &tally.details {
        notes.push(format!("failure {detail}"));
    }
    Outcome {
        tally,
        metrics,
        notes,
        trace_json,
    }
}

/// A `SimStats` with the host-only `jit` counters cleared: what must be
/// identical across execution tiers.
pub fn simulated_only(stats: &SimStats) -> SimStats {
    SimStats {
        jit: Default::default(),
        ..stats.clone()
    }
}

/// The simulated-machine and jit counters over `runs`, summed.
pub fn count_metrics(runs: &[&SimStats], out: &mut BTreeMap<String, f64>) {
    let sum = |f: &dyn Fn(&SimStats) -> u64| runs.iter().map(|s| f(s)).sum::<u64>() as f64;
    let cycles = sum(&|s| s.cycles);
    let useful = sum(&|s| s.core_total.useful_ops);
    let compiled = sum(&|s| s.jit.compiled_cycles);
    let fallback = sum(&|s| s.jit.fallback_cycles);
    let width_sum = sum(&|s| s.lockstep_width_sum);
    let width_cycles = sum(&|s| s.lockstep_width_cycles);
    let entries = [
        ("jit.compiled_cycles", compiled),
        ("jit.fallback_cycles", fallback),
        (
            "jit.compiled_frac",
            compiled / (compiled + fallback).max(1.0),
        ),
        ("jit.translations", sum(&|s| s.jit.translations)),
        ("jit.hits", sum(&|s| s.jit.hits)),
        ("cpu.useful_ops", useful),
        ("cpu.ops_per_cycle", useful / cycles.max(1.0)),
        (
            "cpu.fetch_stall_cycles",
            sum(&|s| s.core_total.fetch_stall_cycles),
        ),
        (
            "cpu.mem_stall_cycles",
            sum(&|s| s.core_total.mem_stall_cycles),
        ),
        (
            "cpu.sync_stall_cycles",
            sum(&|s| s.core_total.sync_stall_cycles),
        ),
        ("cpu.sleep_cycles", sum(&|s| s.core_total.sleep_cycles)),
        ("mem.im_accesses", sum(&|s| s.im.total_accesses())),
        ("mem.dm_accesses", sum(&|s| s.dm.total_accesses())),
        (
            "mem.ixbar_conflict_cycles",
            sum(&|s| s.ixbar.conflict_cycles),
        ),
        (
            "mem.dxbar_conflict_cycles",
            sum(&|s| s.dxbar.conflict_cycles),
        ),
        ("sync.batches", sum(&|s| s.sync.map_or(0, |y| y.batches))),
        (
            "sync.busy_cycles",
            sum(&|s| s.sync.map_or(0, |y| y.busy_cycles)),
        ),
        ("lockstep_width", width_sum / width_cycles.max(1.0)),
    ];
    for (name, value) in entries {
        out.insert(name.to_string(), value);
    }
}

/// Mean of the per-call medians: the typical cost of one call.
pub fn typical_ms(samples: &[Vec<f64>]) -> f64 {
    mean(&samples.iter().map(|s| median(s)).collect::<Vec<_>>())
}
