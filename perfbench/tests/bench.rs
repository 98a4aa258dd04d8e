//! The benchmark's own tests: every workload reports exactly the metrics
//! `BENCHMARK.json` lists and passes the golden check on both recorded
//! seeds, injected wrong expectations are counted as failures, and the
//! traced run's self times account for its wall time.

use perfbench::paper::Paper;
use perfbench::report::{FailureKind, Tally};
use perfbench::sharded::Sharded;
use perfbench::small_jobs::SmallJobs;
use perfbench::trace::Tracer;
use perfbench::{run, Bench, Options, Workload, END_TO_END, SELF_TIME_LAYERS};
use std::path::PathBuf;

/// Shortest timed phase: every workload still completes one operation.
const MINIMAL_SECONDS: f64 = 0.01;

/// The least share of the traced phase's wall time the self times must
/// cover on the paper workloads.
const ACCOUNTED_SHARE: f64 = 0.95;

fn repo_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `"name"` values inside the JSON array that follows `"key":` in
/// `json`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let at = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} missing"));
    let open = at + json[at..].find('[').expect("array follows the key");
    let mut depth = 0;
    let mut close = open;
    for (i, c) in json[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    close = open + i;
                    break;
                }
            }
            _ => {}
        }
    }
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let start = rest.find('"').expect("name value") + 1;
            let len = rest[start..].find('"').expect("closing quote");
            rest[start..start + len].to_string()
        })
        .collect()
}

fn seed(which: &str) -> u64 {
    let seeds = repo_file("seeds.json");
    let at = seeds.find(&format!("\"{which}\"")).expect("seed listed");
    let digits: String = seeds[at + which.len() + 2..]
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("seed is an integer")
}

fn minimal(workload: Workload, seed: u64, trace: bool) -> perfbench::Outcome {
    run(&Options {
        workload,
        seed,
        seconds: MINIMAL_SECONDS,
        trace,
    })
}

fn reported(outcome: &perfbench::Outcome) -> Vec<String> {
    outcome
        .metrics
        .entries()
        .iter()
        .map(|(n, _, _)| n.clone())
        .collect()
}

#[test]
fn benchmark_json_lists_the_workloads_and_end_to_end_metrics() {
    let json = repo_file("../BENCHMARK.json");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names_under(&json, "workloads"), workloads);
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_under(&json, "end_to_end"), e2e);
}

#[test]
fn every_workload_reports_every_listed_metric_and_passes_both_seeds() {
    let json = repo_file("../BENCHMARK.json");
    let e2e = names_under(&json, "end_to_end");
    let per_layer = names_under(&json, "per_layer");
    let default_seed = seed("default");
    let held_out = seed("held_out");
    assert_ne!(default_seed, held_out);
    for workload in Workload::ALL {
        let plain = minimal(workload, default_seed, false);
        assert_eq!(reported(&plain), e2e, "{}", workload.name());
        let traced = minimal(workload, default_seed, true);
        assert_eq!(reported(&traced), per_layer, "{}", workload.name());
        let compiled_cycles = traced.metrics.get("jit.compiled_cycles").expect("listed");
        let compiled_tier = matches!(
            workload,
            Workload::PaperCompiled | Workload::ShardedRecording
        );
        assert_eq!(compiled_cycles > 0.0, compiled_tier, "{}", workload.name());
        let other = minimal(workload, held_out, false);
        for outcome in [&plain, &traced, &other] {
            assert!(outcome.tally.attempted >= 1);
            assert_eq!(
                outcome.tally.failed,
                0,
                "{}: {}",
                workload.name(),
                outcome.tally.summary()
            );
            for (name, value, _) in outcome.metrics.entries() {
                assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
            }
        }
        for (name, value, _) in plain.metrics.entries() {
            assert!(*value > 0.0, "{}: {name} = {value}", workload.name());
        }
    }
}

fn golden_mismatches(tally: &Tally) -> u64 {
    let slot = FailureKind::ALL
        .iter()
        .position(|k| *k == FailureKind::GoldenMismatch)
        .expect("listed");
    tally.by_kind[slot]
}

#[test]
fn a_wrong_expected_vector_is_counted_as_a_failure() {
    let mut setup = Tally::default();
    let mut paper = Paper::<false>::setup(1, &mut setup);
    assert_eq!(setup.failed, 0, "{}", setup.summary());
    paper.runs[0].expected[3][7] ^= 1;
    let phase = paper.timed(0.0, &mut Tracer::disabled());
    assert_eq!(phase.tally.failed, phase.tally.attempted);
    assert!(golden_mismatches(&phase.tally) >= 1);
    assert!(phase.tally.summary().contains("golden_mismatch=1"));
    // Only the five runs that passed count as verified work.
    let per_run = (perfbench::paper::CORES * paper.workload.n) as u64;
    assert_eq!(phase.samples, 5 * per_run * phase.ops);

    let mut jobs = SmallJobs::setup(1, &mut setup);
    for template in &mut jobs.templates {
        template.expected[0][0] ^= 1;
    }
    let phase = jobs.timed(0.0, &mut Tracer::disabled());
    assert!(phase.tally.attempted >= 1);
    assert_eq!(phase.tally.failed, phase.tally.attempted);
    assert_eq!(golden_mismatches(&phase.tally), phase.tally.attempted);
    assert_eq!((phase.samples, phase.core_cycles), (0, 0));

    let mut sharded = Sharded::setup(1, &mut setup);
    sharded.golden[2][5][100] ^= 1;
    let phase = sharded.timed(0.0, &mut Tracer::disabled());
    assert_eq!(phase.tally.failed, phase.tally.attempted);
    assert!(golden_mismatches(&phase.tally) >= 1);
    let per_kernel = (perfbench::paper::CORES * perfbench::sharded::RECORDING_SAMPLES) as u64;
    assert_eq!(phase.samples, 2 * per_kernel * phase.ops);
    assert_eq!(setup.failed, 0, "{}", setup.summary());
}

#[test]
fn traced_self_times_account_for_the_paper_runs() {
    for workload in [Workload::PaperInterp, Workload::PaperCompiled] {
        let outcome = run(&Options {
            workload,
            seed: 1,
            seconds: 2.0,
            trace: true,
        });
        let name = workload.name();
        let metric = |metric: &str| outcome.metrics.get(metric).expect(metric);
        // No span encloses a whole pass, so this is the share of the wall
        // time that the spans around the calls cover.
        let accounted = metric("trace.accounted_frac");
        assert!(
            (ACCOUNTED_SHARE..=1.0 + 1e-9).contains(&accounted),
            "{name}: self times cover {accounted} of the wall time"
        );
        let layers: f64 = SELF_TIME_LAYERS
            .iter()
            .map(|l| metric(&format!("self_frac.{l}")))
            .sum();
        assert!(
            (layers - accounted).abs() < 1e-9,
            "{name}: {layers} vs {accounted}"
        );
        assert!(metric("self_frac.kernels") > 0.9, "{name}");
        assert!(metric("platform.run_ms.MRPFLTR.sync") > 0.0, "{name}");
        let trace = outcome.trace_json.as_deref().expect("traced run");
        assert!(trace.contains("kernels.run_benchmark_reusing"), "{name}");
    }
}
