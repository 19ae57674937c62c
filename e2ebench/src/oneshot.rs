//! `oneshot-analyze`: the time an operator waits for `coctl analyze --fda`.
//!
//! Set-up writes the simulated logs to disk once. Each operation then runs
//! `load_pair` with default `LoadOptions` (buffered read, one parse worker
//! per available CPU), `CoAnalysis::run`, and `render_report`, whose output
//! is byte-identical to `coctl analyze --fda`'s stdout. Reading, parsing and
//! indexing are most of it, so load-side changes show here and
//! analysis-side changes barely do.
//!
//! The traced operation makes the same calls one layer at a time, mirroring
//! `load_pair`: the RAS and job chains (read → content hash → parse → index)
//! run on two scoped threads, then context, FDA interning, the stage graph
//! and render run in turn.

use crate::calib::{self, Clock};
use crate::stats::{beyond, median};
use crate::trace::{StageClock, Trace};
use crate::{layer_times, median_ms, overhead_frac, unattributed_frac, Budget, Outcome, Threads};
use bgp_model::mmap::MappedFile;
use bgp_ports::SourceBatch;
use bgp_sim::SimOutput;
use coanalysis::{
    load_pair, AnalysisContext, AnalysisSet, CoAnalysis, CoAnalysisResult, LoadOptions,
};
use joblog::JobLog;
use raslog::RasLog;
use std::fs::{self, File};
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The on-disk logs, their reference report, and the thread counts.
#[derive(Debug)]
pub struct OneShot {
    ras_path: PathBuf,
    jobs_path: PathBuf,
    reference: String,
    threads: Threads,
    ras_records: usize,
    job_rows: usize,
    bytes_on_disk: u64,
}

fn write_file(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    write(&mut w)?;
    w.flush()?;
    Ok(fs::metadata(path)?.len())
}

/// A finished call: layer name, start, end.
type Call = (&'static str, Instant, Instant);

/// One chain of `load_bgp_generic` with the snapshot cache off, one span per
/// call: read, content hash, parse, index.
fn load_traced<R, L>(
    path: &Path,
    threads: usize,
    parse: fn(&[u8], usize) -> SourceBatch<R>,
    index: fn(Vec<R>) -> L,
    names: [&'static str; 2],
) -> Result<(L, usize, Vec<Call>), String> {
    let t0 = Instant::now();
    let data = MappedFile::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let t1 = Instant::now();
    black_box(bgp_model::bytes::content_hash_64(data.bytes()));
    let t2 = Instant::now();
    let batch = parse(data.bytes(), threads);
    // The loader releases the file buffer before indexing; so does this.
    drop(data);
    let t3 = Instant::now();
    let diagnostics = batch.diagnostics.len();
    let log = index(batch.records);
    let t4 = Instant::now();
    let spans = vec![
        ("read", t0, t1),
        ("hash", t1, t2),
        (names[0], t2, t3),
        (names[1], t3, t4),
    ];
    Ok((log, diagnostics, spans))
}

impl OneShot {
    /// Write the simulated logs into `dir`, as `coctl simulate` does.
    pub fn setup(
        sim: &SimOutput,
        dir: &Path,
        reference: String,
        threads: Threads,
    ) -> io::Result<OneShot> {
        fs::create_dir_all(dir)?;
        let ras_path = dir.join("ras.log");
        let jobs_path = dir.join("jobs.log");
        let ras_bytes = write_file(&ras_path, |w| raslog::write_log(w, sim.ras.records()))?;
        let job_bytes = write_file(&jobs_path, |w| joblog::write_log(w, sim.jobs.jobs()))?;
        Ok(OneShot {
            ras_path,
            jobs_path,
            reference,
            threads,
            ras_records: sim.ras.len(),
            job_rows: sim.jobs.len(),
            bytes_on_disk: ras_bytes + job_bytes,
        })
    }

    /// Replace the reference report (the perturbation tests use this).
    pub fn set_reference(&mut self, reference: String) {
        self.reference = reference;
    }

    /// One analysis, exactly as `coctl analyze --fda` runs it.
    pub fn analyze(&self) -> Result<String, String> {
        let opts = LoadOptions {
            threads: self.threads.load,
            ..LoadOptions::default()
        };
        let (ras, jobs) =
            load_pair(&self.ras_path, &self.jobs_path, &opts).map_err(|e| e.to_string())?;
        if !ras.parse_errors.is_empty() || !jobs.parse_errors.is_empty() {
            return Err("malformed lines in the written logs".into());
        }
        let result =
            CoAnalysis::with_config(self.threads.analysis_config()).run(&ras.log, &jobs.log);
        Ok(bgp_serve::render_report(&result))
    }

    /// [`OneShot::analyze`] one layer call at a time, each in a span under
    /// one `analysis` root.
    pub fn analyze_traced(&self, trace: &mut Trace) -> Result<(String, CoAnalysisResult), String> {
        let root = trace.begin("analysis", None);
        let threads = self.threads.load;
        let (ras, jobs) = std::thread::scope(|s| {
            let ras = s.spawn(|| {
                load_traced(
                    &self.ras_path,
                    threads,
                    bgp_ports::bgp::decode_ras,
                    RasLog::from_records,
                    ["parse_ras", "raslog_index"],
                )
            });
            let jobs = s.spawn(|| {
                load_traced(
                    &self.jobs_path,
                    threads,
                    bgp_ports::bgp::decode_jobs,
                    JobLog::from_jobs,
                    ["parse_jobs", "joblog_index"],
                )
            });
            let ras = ras.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            let jobs = jobs.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            (ras, jobs)
        });
        let (ras, ras_bad, ras_spans) = ras?;
        let (jobs, jobs_bad, jobs_spans) = jobs?;
        for (name, start, end) in ras_spans.into_iter().chain(jobs_spans) {
            trace.interval(name, Some(root), start, end);
        }
        if ras_bad + jobs_bad > 0 {
            return Err("malformed lines in the written logs".into());
        }
        let ctx = trace.time("context", Some(root), || AnalysisContext::new(&ras, &jobs));
        trace.time("fda_intern", Some(root), || {
            black_box(ctx.fda_columns());
        });
        let graph = trace.begin("stage_graph", Some(root));
        let clock = StageClock::default();
        let result = CoAnalysis::with_config(self.threads.analysis_config())
            .run_on_observed(&ctx, AnalysisSet::all(), &clock)
            .into_result();
        trace.end(graph);
        clock.record(trace, graph, None, "stage.");
        let result = result.ok_or("the full analysis set left a product empty")?;
        let text = trace.time("render", Some(root), || bgp_serve::render_report(&result));
        drop(ctx);
        drop((ras, jobs));
        trace.end(root);
        Ok((text, result))
    }

    fn check(&self, report: Result<&str, &str>, out: &mut Outcome) {
        out.attempted += 1;
        match report {
            Ok(text) if text == self.reference => {}
            Ok(_) => {
                out.failed += 1;
                eprintln!("oneshot-analyze: report differs from the reference");
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("oneshot-analyze: {e}");
            }
        }
    }

    fn info(&self, out: &mut Outcome) {
        out.info.extend([
            ("ras_records", self.ras_records.to_string()),
            ("job_rows", self.job_rows.to_string()),
            ("bytes_on_disk", self.bytes_on_disk.to_string()),
        ]);
    }

    /// Untraced run: one warm-up analysis, then timed analyses until the
    /// budget is spent. Every report is checked. Latencies are at the
    /// reference speed. A run holds a few dozen analyses at most, too few
    /// for any percentile above the median to have ten samples beyond it, so
    /// both fold latencies read the median.
    pub fn measure(&self, budget: Budget) -> Outcome {
        let mut out = Outcome::default();
        self.check(self.analyze().as_deref().map_err(String::as_str), &mut out);
        let mut clock = Clock::new();
        let (mut measured, mut scaled) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while !budget.done(start, scaled.len()) {
            let (report, m, s) = clock.time(|| self.analyze());
            measured.push(m);
            scaled.push(s);
            self.check(report.as_deref().map_err(String::as_str), &mut out);
        }
        let report_s = median(&scaled);
        out.metrics.extend([
            ("report_s".to_owned(), report_s),
            ("fold_p50_ms".to_owned(), report_s * 1e3),
            ("fold_p90_ms".to_owned(), report_s * 1e3),
            (
                "ingest_records_per_s".to_owned(),
                self.ras_records as f64 / report_s,
            ),
        ]);
        self.info(&mut out);
        out.info.extend([
            ("latency_samples", scaled.len().to_string()),
            (
                "samples_beyond_median",
                beyond(scaled.len(), 0.5).to_string(),
            ),
            ("measured_report_s", median(&measured).to_string()),
        ]);
        calib::record(&clock, &mut out);
        out
    }

    /// Traced run: untraced and traced analyses alternate until the budget
    /// is spent; per-layer times come from the traced ones.
    pub fn measure_traced(&self, budget: Budget) -> Outcome {
        let mut out = Outcome::default();
        self.check(self.analyze().as_deref().map_err(String::as_str), &mut out);
        let mut trace = Trace::new();
        let (mut untraced, mut last) = (Vec::new(), None);
        let start = Instant::now();
        while !budget.done(start, untraced.len()) {
            let t = Instant::now();
            let report = self.analyze();
            untraced.push(t.elapsed().as_secs_f64());
            self.check(report.as_deref().map_err(String::as_str), &mut out);
            match self.analyze_traced(&mut trace) {
                Ok((text, result)) => {
                    self.check(Ok(text.as_str()), &mut out);
                    last = Some(result);
                }
                Err(e) => self.check(Err(e.as_str()), &mut out),
            }
        }
        let ops = layer_times(&trace);
        let traced: Vec<f64> = ops
            .iter()
            .map(|op| op.get("analysis").map_or(0.0, |t| t.busy_ns as f64 / 1e9))
            .collect();
        let m = &mut out.metrics;
        for layer in [
            "read",
            "hash",
            "parse_ras",
            "parse_jobs",
            "raslog_index",
            "joblog_index",
            "context",
            "fda_intern",
            "stage_graph",
            "render",
        ] {
            m.insert(format!("{layer}.ms"), median_ms(&ops, layer, false));
        }
        m.insert("read.mb".into(), self.bytes_on_disk as f64 / 1e6);
        let per_line =
            |layer: &str, lines: usize| median_ms(&ops, layer, false) * 1e6 / lines.max(1) as f64;
        m.insert(
            "parse_ras.ns_per_line".into(),
            per_line("parse_ras", self.ras_records),
        );
        m.insert(
            "parse_jobs.ns_per_line".into(),
            per_line("parse_jobs", self.job_rows),
        );
        crate::stage_metrics(m, &ops, "stage.");
        if let Some(result) = &last {
            crate::funnel_metrics(m, result);
        }
        m.insert(
            "trace.overhead_frac".into(),
            overhead_frac(&untraced, &traced),
        );
        m.insert("trace.unattributed_frac".into(), unattributed_frac(&trace));
        self.info(&mut out);
        out.info.push(("traced_ops", ops.len().to_string()));
        out
    }
}
