//! `sharded_recording`: one seeded 8-channel recording, run by each
//! kernel in turn as 200-sample shards on a caller-owned 2-worker
//! service, then merged and checked against the full-recording golden.

use crate::paper::{first_mismatch, paper_workload, time_ms, CheckpointProbe, CORES};
use crate::report::{median, Failure, FailureKind, Tally};
use crate::trace::Tracer;
use crate::{count_metrics, typical_ms, Bench, Phase};
use std::collections::BTreeMap;
use std::time::Instant;
use ulp_isa::asm::assemble;
use ulp_kernels::{
    golden_outputs, kernel_source, run_benchmark_reusing, Benchmark, WorkloadConfig,
};
use ulp_platform::{ExecTier, Platform, PlatformConfig, SimStats};
use ulp_service::{ServiceConfig, ServiceStats, SimService};
use ulp_shard::{merge_with_golden, ShardError, ShardPlan, ShardRunConfig, ShardRunner};

/// Samples per channel of the recording.
pub const RECORDING_SAMPLES: usize = 4096;
/// Core samples per shard.
pub const SHARD_SAMPLES: usize = 200;
/// Service workers.
pub const WORKERS: usize = 2;
/// Samples per channel of the set-up warm-up pass: four shards, so both
/// workers run middle shards, whose program the timed passes reuse.
pub const WARMUP_SAMPLES: usize = 4 * SHARD_SAMPLES;
/// Checkpoint cadence of every shard job, in cycles.
pub const CHECKPOINT_EVERY: u64 = 20_000;

/// Repetitions of each probe call.
const PROBE_REPS: usize = 3;

/// The sharded-recording workload.
pub struct Sharded {
    /// The whole recording (its `n` is the recording length).
    pub recording: WorkloadConfig,
    /// Full-recording golden outputs per kernel, in [`Benchmark::ALL`]
    /// order.
    pub golden: Vec<Vec<Vec<u16>>>,
    /// The pool every pass runs on.
    pub service: SimService,
    /// Merged statistics of each kernel's latest verified pass.
    pub last: Vec<Option<SimStats>>,
    /// Service counters over the latest timed phase, per pass.
    pub per_pass: BTreeMap<String, f64>,
}

/// Plans, runs, merges and checks `benchmark` over `recording` on
/// `service`. Returns the core-cycles simulated and the merged statistics
/// when every check passed.
fn pass_kernel(
    service: &mut SimService,
    recording: &WorkloadConfig,
    golden: &[Vec<u16>],
    benchmark: Benchmark,
    tracer: &mut Tracer,
    failures: &mut Vec<Failure>,
) -> Option<(u64, SimStats)> {
    let plan = tracer.span("shard.plan", |_| {
        ShardPlan::for_workload(benchmark, recording, SHARD_SAMPLES)
    });
    let plan = match plan {
        Ok(plan) => plan,
        Err(e) => {
            failures.push(Failure::new(
                FailureKind::ShardError,
                format!("{benchmark}: {e}"),
            ));
            return None;
        }
    };
    let config = ShardRunConfig::new(benchmark, true, CORES, recording.clone())
        .with_exec_tier(ExecTier::Compiled)
        .with_checkpoint_every(CHECKPOINT_EVERY);
    let sharded = tracer.span("shard.run", |_| {
        ShardRunner::new(config, plan).and_then(|runner| runner.run(service))
    });
    let sharded = match sharded {
        Ok(sharded) => sharded,
        Err(ShardError::Job { shard, error }) => {
            failures.push(Failure::new(
                FailureKind::RunnerError,
                format!("{benchmark}: shard {shard}: {error}"),
            ));
            return None;
        }
        Err(e) => {
            failures.push(Failure::new(
                FailureKind::ShardError,
                format!("{benchmark}: {e}"),
            ));
            return None;
        }
    };
    // merge_verified would recompute the full-recording golden on every
    // pass; the golden is part of set-up, so merge against it and compare
    // here.
    let merged = tracer.span("shard.merge", |_| {
        merge_with_golden(&sharded, golden.to_vec())
    });
    let merged = match merged {
        Ok(merged) => merged,
        Err(e) => {
            failures.push(Failure::new(
                FailureKind::MergeError,
                format!("{benchmark}: {e}"),
            ));
            return None;
        }
    };
    let mismatch = tracer.span("bench.check", |_| {
        first_mismatch(&merged.run.outputs, golden)
    });
    if let Some((core, sample)) = mismatch {
        failures.push(Failure::new(
            FailureKind::GoldenMismatch,
            format!("{benchmark}: channel {core} differs from the golden model at sample {sample}"),
        ));
        return None;
    }
    let cycles: u64 = sharded.shards.iter().map(|s| s.run.stats.cycles).sum();
    Some((cycles * CORES as u64, merged.run.stats))
}

/// Service counters of one timed phase: the platform-cache hit share,
/// and the steal and checkpoint counts per operation; plus the pool's
/// lifetime platform constructions.
pub fn service_counters(
    before: &ServiceStats,
    after: &ServiceStats,
    ops: u64,
) -> BTreeMap<String, f64> {
    let per_op = |count: u64| count as f64 / ops.max(1) as f64;
    let jobs = after.jobs_run - before.jobs_run;
    let hits = after.platform_cache_hits - before.platform_cache_hits;
    [
        ("service.cache_hit_frac", hits as f64 / jobs.max(1) as f64),
        ("service.steals", per_op(after.steals - before.steals)),
        (
            "service.jobs_stolen",
            per_op(after.jobs_stolen - before.jobs_stolen),
        ),
        (
            "service.checkpoints_taken",
            per_op(after.checkpoints_taken - before.checkpoints_taken),
        ),
        ("service.platforms_built", after.platforms_built as f64),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

impl Bench for Sharded {
    fn setup(seed: u64, tally: &mut Tally) -> Self {
        let mut recording = paper_workload(seed);
        recording.n = RECORDING_SAMPLES;
        let golden = Benchmark::ALL
            .iter()
            .map(|b| golden_outputs(*b, &recording, CORES))
            .collect();
        let service = SimService::start(ServiceConfig::builder().workers(WORKERS).build());
        let mut state = Sharded {
            recording,
            golden,
            service,
            last: vec![None; Benchmark::ALL.len()],
            per_pass: BTreeMap::new(),
        };
        // One checked warm-up pass over the start of the recording builds
        // each worker's platform and translation cache.
        let mut warm = state.recording.clone();
        warm.n = WARMUP_SAMPLES;
        let mut failures = Vec::new();
        for benchmark in Benchmark::ALL {
            let golden = golden_outputs(benchmark, &warm, CORES);
            let mut tracer = Tracer::disabled();
            pass_kernel(
                &mut state.service,
                &warm,
                &golden,
                benchmark,
                &mut tracer,
                &mut failures,
            );
        }
        tally.record(failures);
        state
    }

    fn timed(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        let before = self.service.stats();
        let samples_per_kernel = (CORES * RECORDING_SAMPLES) as u64;
        let start = Instant::now();
        loop {
            tracer.set_op(phase.ops);
            let pass_start = Instant::now();
            let mut failures = Vec::new();
            for (index, benchmark) in Benchmark::ALL.into_iter().enumerate() {
                let passed = pass_kernel(
                    &mut self.service,
                    &self.recording,
                    &self.golden[index],
                    benchmark,
                    tracer,
                    &mut failures,
                );
                if let Some((core_cycles, stats)) = passed {
                    phase.core_cycles += core_cycles;
                    phase.samples += samples_per_kernel;
                    self.last[index] = Some(stats);
                }
            }
            phase
                .latencies_ms
                .push(pass_start.elapsed().as_secs_f64() * 1e3);
            phase.ops += 1;
            phase.tally.record(failures);
            phase.cut_slice(start.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        self.per_pass = service_counters(&before, &self.service.stats(), phase.ops);
        phase
    }

    fn layers(&mut self, traced: &Tracer, out: &mut BTreeMap<String, f64>, tally: &mut Tally) {
        let recording = &self.recording;
        let channels = time_ms(PROBE_REPS, || recording.channels(CORES));
        let gen = median(&channels);
        let mut golden = Vec::new();
        let mut asm = Vec::new();
        let mut halo = Vec::new();
        let mut probes = CheckpointProbe::default();
        let mut failures = Vec::new();
        let mut platform =
            Platform::new(PlatformConfig::paper(true).with_exec_tier(ExecTier::Compiled))
                .expect("the paper platform config is valid");
        let build = time_ms(PROBE_REPS, || {
            Platform::new(PlatformConfig::paper(true).with_exec_tier(ExecTier::Compiled))
        });
        for benchmark in Benchmark::ALL {
            let total = time_ms(PROBE_REPS, || golden_outputs(benchmark, recording, CORES));
            golden.push(vec![(median(&total) - gen).max(0.0)]);
            let Ok(plan) = ShardPlan::for_workload(benchmark, recording, SHARD_SAMPLES) else {
                continue;
            };
            let loaded: usize = plan.shards().iter().map(|s| s.load_len()).sum();
            halo.push(loaded as f64 / plan.total() as f64 - 1.0);
            // A shard job's state is what the pool checkpoints: probe the
            // first shard's window, paused halfway.
            let first = plan.shards()[0];
            let window = recording.windowed(first.load_start, first.load_len());
            asm.push(time_ms(PROBE_REPS, || {
                assemble(&kernel_source(benchmark, &window, true)).expect("kernels assemble")
            }));
            match run_benchmark_reusing(benchmark, &mut platform, &window) {
                Ok(run) => {
                    let every = (run.stats.cycles / 2).max(1);
                    probes.measure(benchmark, &mut platform, &window, every, &mut failures);
                }
                Err(e) => failures.push(Failure::new(
                    FailureKind::RunnerError,
                    format!("{benchmark}: {e}"),
                )),
            }
        }
        tally.record(failures);
        probes.report(out);
        out.insert("biosignal.channels_ms".into(), gen);
        out.insert("biosignal.golden_ms".into(), typical_ms(&golden));
        out.insert("isa.assemble_ms".into(), typical_ms(&asm));
        out.insert("platform.build_ms".into(), median(&build));
        out.insert("shard.halo_frac".into(), crate::report::mean(&halo));
        out.insert(
            "shard.plan_ms".into(),
            median(&traced.durations_ms("shard.plan")),
        );
        out.insert(
            "shard.run_s".into(),
            median(&traced.durations_ms("shard.run")) / 1e3,
        );
        out.insert(
            "shard.merge_ms".into(),
            median(&traced.durations_ms("shard.merge")),
        );
        out.extend(self.per_pass.clone());
        let last: Vec<&SimStats> = self.last.iter().flatten().collect();
        count_metrics(&last, out);
    }
}
