//! Command line of the end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable table, one JSON summary line (environment,
//! metrics, `"claim": null`), and as the last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report the
//! end-to-end metrics; traced runs report the per-layer ones.

use bgp_sim::{SimConfig, SimOutput, Simulation};
use e2ebench::calib::Clock;
use e2ebench::daily::Daily;
use e2ebench::oneshot::OneShot;
use e2ebench::stream::{Stream, CHUNK_BYTES};
use e2ebench::{per_layer_specs, reference_report, sys, Budget, Outcome, Threads, END_TO_END};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["oneshot-analyze", "daily-append", "stream-ingest"];

/// Days folded by `daily-append`.
const FOLD_DAYS: u32 = 30;

/// A fold-latency p90 needs at least ten samples beyond it.
const MIN_FOLDS: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

enum Prepared {
    OneShot(OneShot),
    Daily(Box<Daily>),
    Stream(Stream),
}

fn simulate(seed: u64) -> Result<SimOutput, String> {
    Ok(Simulation::new(SimConfig::intrepid_2009(seed))
        .map_err(|e| e.to_string())?
        .run())
}

/// Build the workload's inputs and reference from the simulated site.
fn setup(args: &Args, sim: &SimOutput, threads: Threads, dir: &Path) -> Result<Prepared, String> {
    Ok(match args.workload.as_str() {
        "oneshot-analyze" => Prepared::OneShot(
            OneShot::setup(sim, dir, reference_report(sim), threads).map_err(|e| e.to_string())?,
        ),
        "daily-append" => Prepared::Daily(Box::new(Daily::setup(
            sim,
            FOLD_DAYS,
            reference_report(sim),
            threads,
        ))),
        _ => Prepared::Stream(Stream::setup(sim, threads).map_err(|e| e.to_string())?),
    })
}

fn measure(prepared: &mut Prepared, args: &Args) -> Outcome {
    let budget = |min_samples| Budget {
        seconds: args.seconds,
        min_samples,
    };
    match (prepared, args.trace) {
        (Prepared::OneShot(w), false) => w.measure(budget(3)),
        (Prepared::OneShot(w), true) => w.measure_traced(budget(2)),
        (Prepared::Daily(w), false) => w.measure(budget(MIN_FOLDS)),
        (Prepared::Daily(w), true) => w.measure_traced(budget(1)),
        (Prepared::Stream(w), false) => w.measure(budget(3)),
        (Prepared::Stream(w), true) => w.measure_traced(budget(2)),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Remove this run's scratch directory, and `.work` too once no other run
/// is using it.
fn remove_work_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let threads = Threads::defaults();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    // Set-up is timed in two steps, each scaled to the reference speed by
    // the calibration readings around it (see `calib`).
    let mut clock = Clock::new();
    let (sim, sim_measured, sim_s) = clock.time(|| simulate(args.seed));
    let sim = sim?;
    let (prepared, rest_measured, rest_s) = clock.time(|| setup(args, &sim, threads, &dir));
    // The workloads keep what they need; the simulation is not resident
    // while they are measured.
    drop(sim);
    let mut prepared = prepared.inspect_err(|_| remove_work_dir(&dir))?;
    let setup_s = sim_s + rest_s;
    let outcome = measure(&mut prepared, args);
    let peak_rss_mb = sys::peak_rss_mb();
    drop(prepared);
    remove_work_dir(&dir);

    let mut metrics = outcome.metrics;
    let specs: Vec<(String, &str)> = if args.trace {
        per_layer_specs()
    } else {
        metrics.insert("setup_s".into(), setup_s);
        metrics.insert("peak_rss_mb".into(), peak_rss_mb.unwrap_or(0.0));
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let unattributed = metrics
        .get("trace.unattributed_frac")
        .copied()
        .unwrap_or(0.0);
    let attributed = !args.trace || unattributed <= e2ebench::UNATTRIBUTED_TOLERANCE;
    let correct = outcome.failed == 0 && outcome.attempted > 0 && attributed;

    println!(
        "e2ebench {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut metric_json = Vec::new();
    for (name, unit) in &specs {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<32} {value:>16.6} {unit}");
        metric_json.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    if !attributed {
        eprintln!(
            "e2ebench: {:.2}% of the traced wall clock is outside every layer span (tolerance {:.0}%)",
            unattributed * 100.0,
            e2ebench::UNATTRIBUTED_TOLERANCE * 100.0
        );
    }
    let mut env: Vec<(&str, String)> = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "nproc",
            sys::allowed_cpus().map_or("unknown".into(), |n| n.to_string()),
        ),
        (
            "available_parallelism",
            sys::available_parallelism().to_string(),
        ),
        ("load_threads", threads.load.to_string()),
        ("analysis_threads", threads.analysis.to_string()),
        ("shards", threads.shards.to_string()),
        ("chunk_bytes", CHUNK_BYTES.to_string()),
        ("fold_days", FOLD_DAYS.to_string()),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        (
            "unattributed_tolerance",
            e2ebench::UNATTRIBUTED_TOLERANCE.to_string(),
        ),
    ];
    env.push((
        "measured_setup_s",
        (sim_measured + rest_measured).to_string(),
    ));
    env.extend(outcome.info.iter().map(|(k, v)| (*k, v.clone())));
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let metrics_json = format!("{{{}}}", metric_json.join(", "));
    println!(
        "{{\"benchmark\": \"e2ebench\", \"env\": {{{}}}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}, \"claim\": null}}",
        env_json.join(", "),
        outcome.attempted,
        outcome.failed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        outcome.attempted, outcome.failed
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "e2ebench: {e}\nusage: e2ebench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
