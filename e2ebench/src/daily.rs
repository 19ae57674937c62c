//! `daily-append`: the latency of folding one more day into a resident
//! analysis — `coctl analyze --append` and `coserved --full-analysis`.
//!
//! Set-up primes a `DeltaSession` on every simulated day but the last
//! `fold_days`. Each of those days is then one `AppendBatch` (RAS records by
//! `event_time`, job rows by `start_time`), folded with
//! `append_with_observer` and rendered with `render_report` — the
//! `/analysis` body. Nothing is parsed: the resident store takes writes, and
//! the context, FDA interning and stage graph are rebuilt per fold, so the
//! analysis, context and delta layers dominate.
//!
//! A pass folds every day once; a fresh primed session starts each pass
//! (priming is not timed). After every fold the session must hold exactly
//! the records folded so far, and after the last fold its report must equal
//! the one-shot reference byte for byte — the delta ≡ one-shot gate.

use crate::calib::{self, Clock};
use crate::stats::{beyond, median, percentile};
use crate::trace::{StageClock, Trace};
use crate::{layer_times, median_ms, overhead_frac, unattributed_frac, Budget, Outcome, Threads};
use bgp_sim::SimOutput;
use coanalysis::{AppendBatch, CoAnalysisConfig, CoAnalysisResult, DeltaSession, StageId};
use joblog::JobLog;
use raslog::{RasLog, Severity};
use std::time::Instant;

/// The base logs, the day batches and the reference.
#[derive(Debug)]
pub struct Daily {
    config: CoAnalysisConfig,
    base_ras: RasLog,
    base_jobs: JobLog,
    days: Vec<AppendBatch>,
    /// After each fold: (fatal events, job rows) the session must hold.
    expected: Vec<(usize, usize)>,
    reference: String,
    primed: Option<DeltaSession>,
}

/// What the delta executor did over one traced pass.
#[derive(Default)]
struct DeltaWork {
    /// Stage runs (at most 13 per fold).
    reran: usize,
    /// Stage runs whose output changed.
    changed: usize,
    /// Folds that re-ran every stage.
    full_folds: usize,
    /// The last fold's result.
    last: Option<CoAnalysisResult>,
}

impl Daily {
    /// Split the simulated window into a base and `fold_days` day batches,
    /// and prime the first session.
    pub fn setup(sim: &SimOutput, fold_days: u32, reference: String, threads: Threads) -> Daily {
        let start = sim.config.start;
        let first = i64::from(sim.config.days.saturating_sub(fold_days));
        let n = fold_days.min(sim.config.days) as usize;
        // Day slot of a timestamp: the base before `first`, then one batch
        // per day; anything past the window goes to the last batch.
        let slot = |t: bgp_model::Timestamp| -> Option<usize> {
            let d = t.days_since(start) - first;
            (d >= 0).then(|| (d as usize).min(n - 1))
        };
        let mut days = vec![AppendBatch::default(); n];
        let mut base_ras = Vec::new();
        for r in sim.ras.records() {
            match slot(r.event_time) {
                Some(i) => days[i].ras.push(*r),
                None => base_ras.push(*r),
            }
        }
        let mut base_jobs = Vec::new();
        for j in sim.jobs.jobs() {
            match slot(j.start_time) {
                Some(i) => days[i].jobs.push(*j),
                None => base_jobs.push(*j),
            }
        }
        let config = threads.analysis_config();
        let base_ras = RasLog::from_records(base_ras);
        let base_jobs = JobLog::from_jobs(base_jobs);
        let (primed, _) = DeltaSession::new(config, &base_ras, base_jobs.clone());
        let mut daily = Daily {
            config,
            base_ras,
            base_jobs,
            days,
            expected: Vec::new(),
            reference,
            primed: Some(primed),
        };
        daily.recount();
        daily
    }

    fn recount(&mut self) {
        let fatal =
            |rs: &[raslog::RasRecord]| rs.iter().filter(|r| r.severity == Severity::Fatal).count();
        let mut held = (fatal(self.base_ras.records()), self.base_jobs.len());
        self.expected = self
            .days
            .iter()
            .map(|d| {
                held = (held.0 + fatal(&d.ras), held.1 + d.jobs.len());
                held
            })
            .collect();
    }

    /// Leave day `i` out of the fold sequence (the perturbation tests use
    /// this; the per-fold record counts follow, the reference does not).
    pub fn drop_day(&mut self, i: usize) {
        if i < self.days.len() {
            self.days.remove(i);
            self.recount();
        }
    }

    /// Replace the reference report.
    pub fn set_reference(&mut self, reference: String) {
        self.reference = reference;
    }

    fn session(&mut self) -> DeltaSession {
        self.primed.take().unwrap_or_else(|| {
            DeltaSession::new(self.config, &self.base_ras, self.base_jobs.clone()).0
        })
    }

    /// Check fold `i`: its report text and the session's record counts.
    fn check(&self, i: usize, text: &str, held: (usize, usize), out: &mut Outcome) {
        out.attempted += 1;
        let last = i + 1 == self.days.len();
        if held != self.expected[i] {
            out.failed += 1;
            eprintln!(
                "daily-append: fold {i} holds {held:?} records, expected {:?}",
                self.expected[i]
            );
        } else if last && text != self.reference {
            out.failed += 1;
            eprintln!("daily-append: the last fold's report differs from the one-shot reference");
        }
    }

    /// One pass of timed folds (priming is not timed); pushes each fold's
    /// measured and reference-speed seconds.
    fn pass(&mut self, out: &mut Outcome, clock: &mut Clock, secs: &mut Vec<(f64, f64)>) {
        let mut session = self.session();
        clock.restart();
        for i in 0..self.days.len() {
            let batch = self.days[i].clone();
            let (text, measured, scaled) = clock.time(|| {
                let (result, _) = session.append_with_observer(batch, None);
                bgp_serve::render_report(&result)
            });
            secs.push((measured, scaled));
            self.check(i, &text, session.ingested(), out);
        }
    }

    /// Records (RAS plus job rows) in each day's batch.
    fn batch_records(&self) -> Vec<usize> {
        self.days
            .iter()
            .map(|d| d.ras.len() + d.jobs.len())
            .collect()
    }

    /// One pass of traced folds, each under a `fold` root span.
    fn pass_traced(&mut self, trace: &mut Trace, out: &mut Outcome) -> DeltaWork {
        let mut session = self.session();
        let mut work = DeltaWork::default();
        for i in 0..self.days.len() {
            let batch = self.days[i].clone();
            let root = trace.begin("fold", None);
            let append = trace.begin("fold.append", Some(root));
            let clock = StageClock::default();
            let (result, report) = session.append_with_observer(batch, Some(&clock));
            trace.end(append);
            clock.record(trace, append, Some("fold.stage_graph"), "fold.stage.");
            let text = trace.time("fold.render", Some(root), || {
                bgp_serve::render_report(&result)
            });
            trace.end(root);
            work.reran += report.reran.len();
            work.changed += report.changed.len();
            work.full_folds += usize::from(report.reran.len() == StageId::ALL.len());
            work.last = Some(result);
            self.check(i, &text, session.ingested(), out);
        }
        work
    }

    fn info(&self, out: &mut Outcome) {
        out.info.extend([
            ("base_ras_records", self.base_ras.len().to_string()),
            ("base_job_rows", self.base_jobs.len().to_string()),
            ("window_days", self.days.len().to_string()),
            (
                "folded_records_per_pass",
                self.batch_records().iter().sum::<usize>().to_string(),
            ),
        ]);
    }

    /// Untraced run: whole passes until the budget is spent; latencies are
    /// reference-speed medians and percentiles over every fold.
    pub fn measure(&mut self, budget: Budget) -> Outcome {
        let mut out = Outcome::default();
        let mut clock = Clock::new();
        let mut secs = Vec::new();
        let start = Instant::now();
        while !budget.done(start, secs.len()) {
            self.pass(&mut out, &mut clock, &mut secs);
        }
        let (measured, scaled): (Vec<f64>, Vec<f64>) = secs.into_iter().unzip();
        let ms: Vec<f64> = scaled.iter().map(|s| s * 1e3).collect();
        let passes = scaled.len() / self.days.len().max(1);
        let records = passes * self.batch_records().iter().sum::<usize>();
        out.metrics.extend([
            ("report_s".to_owned(), median(&scaled)),
            ("fold_p50_ms".to_owned(), median(&ms)),
            ("fold_p90_ms".to_owned(), percentile(&ms, 0.9)),
            (
                "ingest_records_per_s".to_owned(),
                records as f64 / scaled.iter().sum::<f64>(),
            ),
        ]);
        self.info(&mut out);
        out.info.extend([
            ("latency_samples", scaled.len().to_string()),
            ("samples_beyond_p90", beyond(scaled.len(), 0.9).to_string()),
            (
                "measured_fold_p50_ms",
                (median(&measured) * 1e3).to_string(),
            ),
        ]);
        calib::record(&clock, &mut out);
        out
    }

    /// Traced run: untraced and traced passes alternate until the budget is
    /// spent; per-layer times are medians over the traced folds.
    pub fn measure_traced(&mut self, budget: Budget) -> Outcome {
        let mut out = Outcome::default();
        let mut trace = Trace::new();
        let (mut clock, mut untraced) = (Clock::new(), Vec::new());
        let (mut work, mut passes) = (DeltaWork::default(), 0usize);
        let start = Instant::now();
        while !budget.done(start, passes) {
            self.pass(&mut out, &mut clock, &mut untraced);
            let w = self.pass_traced(&mut trace, &mut out);
            work = DeltaWork {
                reran: work.reran + w.reran,
                changed: work.changed + w.changed,
                full_folds: work.full_folds + w.full_folds,
                last: w.last,
            };
            passes += 1;
        }
        let ops = layer_times(&trace);
        let traced: Vec<f64> = ops
            .iter()
            .map(|op| op.get("fold").map_or(0.0, |t| t.busy_ns as f64 / 1e9))
            .collect();
        let m = &mut out.metrics;
        m.insert(
            "fold.append.ms".into(),
            median_ms(&ops, "fold.append", false),
        );
        m.insert(
            "fold.residual.ms".into(),
            median_ms(&ops, "fold.append", true),
        );
        m.insert(
            "fold.render.ms".into(),
            median_ms(&ops, "fold.render", false),
        );
        crate::stage_metrics(m, &ops, "fold.stage.");
        let per_pass = |n: usize| n as f64 / passes.max(1) as f64;
        m.insert(
            "fold.batch_records".into(),
            median(
                &self
                    .batch_records()
                    .iter()
                    .map(|&n| n as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        m.insert("fold.reran_stages".into(), per_pass(work.reran));
        m.insert("fold.changed_stages".into(), per_pass(work.changed));
        let useful = if work.reran == 0 {
            0.0
        } else {
            work.changed as f64 / work.reran as f64
        };
        m.insert("fold.useful_ratio".into(), useful);
        if let Some(result) = &work.last {
            crate::funnel_metrics(m, result);
        }
        m.insert(
            "trace.overhead_frac".into(),
            overhead_frac(
                &untraced.iter().map(|&(m, _)| m).collect::<Vec<_>>(),
                &traced,
            ),
        );
        m.insert("trace.unattributed_frac".into(), unattributed_frac(&trace));
        self.info(&mut out);
        out.info.extend([
            ("traced_folds", ops.len().to_string()),
            (
                "folds_rerunning_every_stage_per_pass",
                per_pass(work.full_folds).to_string(),
            ),
        ]);
        out
    }
}
