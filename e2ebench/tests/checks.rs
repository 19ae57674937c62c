//! Every workload passes its reference check on small simulated sites, at
//! two seeds and at one and at `available_parallelism` threads, and every
//! check fails when its reference is perturbed. Run with
//! `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use bgp_sim::{SimConfig, SimOutput, Simulation};
use e2ebench::daily::Daily;
use e2ebench::oneshot::OneShot;
use e2ebench::stream::{check_pass, Stream};
use e2ebench::{per_layer_specs, reference_report, sys, Budget, Outcome, Threads, END_TO_END};
use std::path::Path;

const SEEDS: [u64; 2] = [3, 11];
const FOLD_DAYS: u32 = 4;

fn simulate(seed: u64) -> SimOutput {
    Simulation::new(SimConfig::small_test(seed))
        .expect("valid config")
        .run()
}

fn thread_counts() -> Vec<usize> {
    let n = sys::available_parallelism();
    if n > 1 {
        vec![1, n]
    } else {
        vec![1]
    }
}

/// The reference with one ASCII digit changed: one byte differs.
fn perturbed(reference: &str) -> String {
    let at = reference
        .find(|c: char| c.is_ascii_digit())
        .expect("the report has digits");
    let mut bytes = reference.as_bytes().to_vec();
    bytes[at] = if bytes[at] == b'9' {
        b'0'
    } else {
        bytes[at] + 1
    };
    String::from_utf8(bytes).expect("still ASCII")
}

fn assert_clean(out: &Outcome, what: &str) {
    assert!(out.attempted > 0, "{what}: nothing attempted");
    assert_eq!(
        out.failed, 0,
        "{what}: {} of {} operations failed",
        out.failed, out.attempted
    );
}

#[test]
fn oneshot_reports_match_the_reference_and_a_changed_byte_fails() {
    for seed in SEEDS {
        let sim = simulate(seed);
        let reference = reference_report(&sim);
        for n in thread_counts() {
            let what = format!("oneshot seed {seed} threads {n}");
            let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("oneshot-{seed}-{n}"));
            let mut w = OneShot::setup(&sim, &dir, reference.clone(), Threads::all(n))
                .expect("logs written");
            assert_clean(&w.measure(Budget::once()), &what);
            let traced = w.measure_traced(Budget::once());
            assert_clean(&traced, &what);
            assert_eq!(
                traced.metrics["funnel.raw_fatal"],
                sim.ras.fatal().count() as f64
            );
            assert!(traced.metrics["parse_ras.ms"] > 0.0 && traced.metrics["stage.fda.ms"] > 0.0);

            w.set_reference(perturbed(&reference));
            let bad = w.measure(Budget::once());
            assert!(
                bad.failed > 0 && bad.failed == bad.attempted,
                "{what}: a changed byte must fail every report"
            );
            std::fs::remove_dir_all(&dir).expect("clean up");
        }
    }
}

#[test]
fn daily_last_fold_matches_one_shot_and_a_dropped_day_fails() {
    for seed in SEEDS {
        let sim = simulate(seed);
        let reference = reference_report(&sim);
        for n in thread_counts() {
            let what = format!("daily seed {seed} threads {n}");
            let mut w = Daily::setup(&sim, FOLD_DAYS, reference.clone(), Threads::all(n));
            let ok = w.measure(Budget::once());
            assert_clean(&ok, &what);
            assert_eq!(ok.attempted, u64::from(FOLD_DAYS));
            let traced = w.measure_traced(Budget::once());
            assert_clean(&traced, &what);
            assert!(traced.metrics["fold.reran_stages"] >= traced.metrics["fold.changed_stages"]);

            w.set_reference(perturbed(&reference));
            assert_eq!(
                w.measure(Budget::once()).failed,
                1,
                "{what}: the last fold must miss a changed reference"
            );
            w.set_reference(reference.clone());
            w.drop_day(1);
            let bad = w.measure(Budget::once());
            assert_eq!(
                bad.failed, 1,
                "{what}: folding without day 1 must miss the one-shot report"
            );
        }
    }
}

#[test]
fn stream_counters_match_one_analyzer_and_each_changed_field_fails() {
    for seed in SEEDS {
        let sim = simulate(seed);
        for n in thread_counts() {
            let what = format!("stream seed {seed} shards {n}");
            let mut w = Stream::setup(&sim, Threads::all(n)).expect("serialized");
            let ok = w.measure(Budget::once());
            assert_clean(&ok, &what);
            assert_eq!(
                ok.attempted,
                2 * sim.ras.len() as u64,
                "{what}: warm-up and one pass, every record"
            );
            assert_clean(&w.measure_traced(Budget::once()), &what);

            let pass = w.pass(None).expect("pool starts");
            let reference = w.reference();
            assert!(check_pass(&pass, &reference));
            let bump: [fn(&mut coanalysis::StreamCounters); 6] = [
                |c| c.records_in += 1,
                |c| c.fatal_in += 1,
                |c| c.merged_temporal += 1,
                |c| c.merged_spatial += 1,
                |c| c.events_out += 1,
                |c| c.warnings += 1,
            ];
            for (field, f) in bump.iter().enumerate() {
                let mut changed = reference;
                f(&mut changed.counters);
                assert!(
                    !check_pass(&pass, &changed),
                    "{what}: counter field {field} changed but the check passed"
                );
            }
            let mut changed = reference;
            changed.records += 1;
            assert!(
                !check_pass(&pass, &changed),
                "{what}: record count changed but the check passed"
            );

            changed = reference;
            changed.counters.events_out += 1;
            w.set_reference(changed);
            let bad = w.measure(Budget::once());
            assert!(
                bad.failed > 0 && bad.failed == bad.attempted,
                "{what}: a changed counter must fail every pass"
            );
        }
    }
}

#[test]
fn benchmark_json_lists_every_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let squashed: String = json.split_whitespace().collect();
    let specs = per_layer_specs();
    let all = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .chain(specs);
    for (name, unit) in all {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(squashed.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
