//! End-to-end, layer-attributed benchmark of the BG/P co-analysis pipeline.
//!
//! Three workloads drive the library's public entry points the way the
//! shipped tools do (see `README.md` in this directory):
//!
//! * [`oneshot`] — `coctl analyze --fda`: log files on disk → report;
//! * [`daily`] — `coctl analyze --append` / `coserved --full-analysis`:
//!   one day at a time folded into a resident `DeltaSession`;
//! * [`stream`] — `coserved` ingest: framer → line decoder → shard pool.
//!
//! Every workload checks its output against a reference computed in the
//! same process from the simulator's in-memory records, counts attempted and
//! failed operations, and has a traced variant that records one span around
//! every call it makes into a layer ([`trace`]).

pub mod calib;
pub mod daily;
pub mod oneshot;
pub mod stats;
pub mod stream;
pub mod sys;
pub mod trace;

use bgp_sim::SimOutput;
use coanalysis::{CoAnalysis, CoAnalysisConfig, StageId};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Trace;

/// The traced run fails when more than this share of its operations' wall
/// clock lies outside every layer span.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// Thread counts handed to the library's three thread knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads {
    /// `LoadOptions::threads` (parse workers per log).
    pub load: usize,
    /// `CoAnalysisConfig::threads` (stage-graph workers).
    pub analysis: usize,
    /// `ShardConfig::shards` (analyzer worker threads).
    pub shards: usize,
}

impl Threads {
    /// The tools' defaults on this machine — `LoadOptions` and
    /// `CoAnalysisConfig` defaults — with one shard worker, so that the
    /// stream producer and its worker are two threads.
    pub fn defaults() -> Threads {
        Threads {
            load: sys::available_parallelism(),
            analysis: CoAnalysisConfig::default().threads,
            shards: 1,
        }
    }

    /// `n` threads for every knob.
    pub fn all(n: usize) -> Threads {
        Threads {
            load: n,
            analysis: n,
            shards: n,
        }
    }

    /// The pipeline configuration with these threads.
    pub fn analysis_config(self) -> CoAnalysisConfig {
        CoAnalysisConfig {
            threads: self.analysis,
            ..CoAnalysisConfig::default()
        }
    }
}

/// How long one run measures.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Keep starting operations until this many seconds have passed...
    pub seconds: f64,
    /// ...and at least this many latency samples exist.
    pub min_samples: usize,
}

impl Budget {
    /// A budget of exactly one operation (tests).
    pub fn once() -> Budget {
        Budget {
            seconds: 0.0,
            min_samples: 1,
        }
    }

    fn done(&self, started: Instant, samples: usize) -> bool {
        samples >= self.min_samples && started.elapsed().as_secs_f64() >= self.seconds
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (analyses, folds, or fed records).
    pub attempted: u64,
    /// Operations that failed or whose output differed from the reference.
    pub failed: u64,
    /// Metric name → value: the end-to-end metrics a workload measures
    /// (untraced) or its per-layer metrics (traced).
    pub metrics: BTreeMap<String, f64>,
    /// Input sizes and sample counts, recorded with the result.
    pub info: Vec<(&'static str, String)>,
}

/// End-to-end metrics and their units. Every workload reports all of them;
/// `README.md` gives each one's meaning per workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("report_s", "s"),
    ("fold_p50_ms", "ms"),
    ("fold_p90_ms", "ms"),
    ("ingest_records_per_s", "records/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, in report order. A traced run reports
/// all of them; a layer the workload never calls reads 0.
pub fn per_layer_specs() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        names.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let stages = |prefix: &str| -> Vec<(String, &'static str)> {
        StageId::ALL
            .iter()
            .map(|id| (format!("{prefix}{}.ms", id.name()), "ms"))
            .collect()
    };
    let mut specs = fixed(&[
        ("read.ms", "ms"),
        ("read.mb", "MB"),
        ("hash.ms", "ms"),
        ("parse_ras.ms", "ms"),
        ("parse_ras.ns_per_line", "ns/line"),
        ("parse_jobs.ms", "ms"),
        ("parse_jobs.ns_per_line", "ns/line"),
        ("raslog_index.ms", "ms"),
        ("joblog_index.ms", "ms"),
        ("context.ms", "ms"),
        ("fda_intern.ms", "ms"),
        ("stage_graph.ms", "ms"),
    ]);
    specs.extend(stages("stage."));
    specs.extend(fixed(&[
        ("render.ms", "ms"),
        ("funnel.raw_fatal", "count"),
        ("funnel.after_causal", "count"),
        ("funnel.after_job_related", "count"),
        ("funnel.interrupted_jobs", "count"),
        ("fold.append.ms", "ms"),
        ("fold.residual.ms", "ms"),
    ]));
    specs.extend(stages("fold.stage."));
    specs.extend(fixed(&[
        ("fold.render.ms", "ms"),
        ("fold.batch_records", "count"),
        ("fold.reran_stages", "count"),
        ("fold.changed_stages", "count"),
        ("fold.useful_ratio", "ratio"),
        ("framer.ms", "ms"),
        ("framer.lines", "count"),
        ("decode.ms", "ms"),
        ("decode.ns_per_line", "ns/line"),
        ("decode.malformed", "count"),
        ("shard.push.ms", "ms"),
        ("shard.backpressure_stalls", "count"),
        ("shard.drain.ms", "ms"),
        ("online.events_out", "count"),
        ("online.compression", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.unattributed_frac", "ratio"),
    ]));
    specs
}

/// The reference every report is compared with: the `/analysis` body of a
/// single-threaded one-shot run over the simulator's in-memory records.
pub fn reference_report(sim: &SimOutput) -> String {
    let result = CoAnalysis::with_config(CoAnalysisConfig::sequential()).run(&sim.ras, &sim.jobs);
    bgp_serve::render_report(&result)
}

/// Busy and self nanoseconds of one layer within one operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Summed busy time of the layer's spans.
    pub busy_ns: u64,
    /// Summed self time (busy minus what child spans cover).
    pub self_ns: u64,
}

/// Per operation (root span, in order), each layer's summed times.
pub fn layer_times(trace: &Trace) -> Vec<BTreeMap<String, LayerTime>> {
    let own = trace.self_ns();
    let roots = trace.roots();
    let mut by_root: BTreeMap<usize, BTreeMap<String, LayerTime>> = BTreeMap::new();
    for (i, span) in trace.spans().iter().enumerate() {
        let t = by_root
            .entry(roots[i])
            .or_default()
            .entry(span.name.clone())
            .or_default();
        t.busy_ns += span.busy_ns;
        t.self_ns += own[i];
    }
    by_root.into_values().collect()
}

/// Share of the operations' wall clock that no layer span covers.
pub fn unattributed_frac(trace: &Trace) -> f64 {
    let own = trace.self_ns();
    let (mut unattributed, mut wall) = (0u64, 0u64);
    for (i, span) in trace.spans().iter().enumerate() {
        if span.parent.is_none() {
            unattributed += own[i];
            wall += span.busy_ns;
        }
    }
    if wall == 0 {
        return 0.0;
    }
    unattributed as f64 / wall as f64
}

/// Median over operations of one layer's busy (or self) time, in ms.
pub fn median_ms(ops: &[BTreeMap<String, LayerTime>], layer: &str, self_time: bool) -> f64 {
    let v: Vec<f64> = ops
        .iter()
        .map(|op| {
            op.get(layer).map_or(0.0, |t| {
                (if self_time { t.self_ns } else { t.busy_ns }) as f64 / 1e6
            })
        })
        .collect();
    stats::median(&v)
}

/// `(traced - untraced) / untraced` of the median operation wall clock.
pub fn overhead_frac(untraced_s: &[f64], traced_s: &[f64]) -> f64 {
    let base = stats::median(untraced_s);
    if base <= 0.0 {
        return 0.0;
    }
    (stats::median(traced_s) - base) / base
}

/// Record every stage's median busy time as `<prefix><stage>.ms`.
fn stage_metrics(
    metrics: &mut BTreeMap<String, f64>,
    ops: &[BTreeMap<String, LayerTime>],
    prefix: &str,
) {
    for id in StageId::ALL {
        let span = format!("{prefix}{}", id.name());
        metrics.insert(format!("{span}.ms"), median_ms(ops, &span, false));
    }
}

/// Record the stage graph's record funnel from one result.
fn funnel_metrics(metrics: &mut BTreeMap<String, f64>, result: &coanalysis::CoAnalysisResult) {
    let s = &result.filter_stats;
    metrics.insert("funnel.raw_fatal".into(), s.raw_fatal as f64);
    metrics.insert("funnel.after_causal".into(), s.after_causal as f64);
    metrics.insert(
        "funnel.after_job_related".into(),
        s.after_job_related as f64,
    );
    metrics.insert(
        "funnel.interrupted_jobs".into(),
        result.matching.interrupted_jobs() as f64,
    );
}
