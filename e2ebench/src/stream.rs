//! `stream-ingest`: `coserved`'s ingest path without the socket.
//!
//! Set-up serializes the simulated RAS log once. A pass feeds those bytes in
//! fixed [`CHUNK_BYTES`] chunks through `LineFramer::feed`; the framer's sink
//! decodes each line with `LineDecoder::Bgp` and routes the record with
//! `ShardPool::push`. The pass ends with `close` and `join`, when the pool
//! has drained. Thresholds, queue capacity and line limit are the
//! `ServeConfig` defaults. This runs the parse module one line at a time
//! instead of in bulk chunks, and never touches the stage graph.
//!
//! The check: the pool's merged counters must equal one `OnlineAnalyzer`
//! fed the simulator's in-memory records with the same thresholds, every
//! record must be decoded, and no line may be malformed.

use crate::calib::{self, Clock};
use crate::stats::{median, percentile};
use crate::trace::Trace;
use crate::{layer_times, median_ms, overhead_frac, unattributed_frac, Budget, Outcome, Threads};
use bgp_ports::{LineDecoder, LineOutcome};
use bgp_serve::{
    EventRing, LineFramer, Registry, ServeConfig, ServeMetrics, ShardConfig, ShardPool,
};
use bgp_sim::SimOutput;
use coanalysis::stream::{OnlineAnalyzer, StreamCounters};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes handed to the framer per `feed` call.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// What a correct pass must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamReference {
    /// Counters of one analyzer fed the in-memory records in order.
    pub counters: StreamCounters,
    /// Records in the log.
    pub records: u64,
}

/// What one pass produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Merged counters of the pool after draining.
    pub counters: StreamCounters,
    /// Lines the framer handed to the sink.
    pub lines: u64,
    /// Lines decoded into records.
    pub decoded: u64,
    /// Lines the decoder rejected.
    pub malformed: u64,
    /// Records the pool refused.
    pub push_errors: u64,
    /// `ServeMetrics::backpressure_stalls` after the pass.
    pub stalls: u64,
    /// Seconds from the first chunk until the pool drained.
    pub seconds: f64,
    /// Seconds each `feed` call took.
    pub chunk_seconds: Vec<f64>,
}

/// Does `pass` match `reference`?
pub fn check_pass(pass: &Pass, reference: &StreamReference) -> bool {
    pass.counters == reference.counters
        && pass.decoded == reference.records
        && pass.malformed == 0
        && pass.push_errors == 0
}

/// The serialized log, the pool configuration and the reference.
#[derive(Debug)]
pub struct Stream {
    bytes: Vec<u8>,
    pool: ShardConfig,
    max_line_bytes: usize,
    ring_capacity: usize,
    reference: StreamReference,
}

/// Per-line counts and times gathered inside one `feed` call.
#[derive(Default)]
struct LineTally {
    lines: u64,
    decoded: u64,
    malformed: u64,
    push_errors: u64,
    decode: Duration,
    push: Duration,
}

impl Stream {
    /// Serialize the RAS log and compute the reference counters.
    pub fn setup(sim: &SimOutput, threads: Threads) -> std::io::Result<Stream> {
        let mut bytes = Vec::new();
        raslog::write_log(&mut bytes, sim.ras.records())?;
        let serve = ServeConfig::default();
        let mut single = OnlineAnalyzer::with_thresholds(serve.temporal, serve.spatial);
        for r in sim.ras.records() {
            single.push(r);
        }
        Ok(Stream {
            bytes,
            pool: ShardConfig {
                shards: threads.shards,
                queue_capacity: serve.queue_capacity,
                temporal: serve.temporal,
                spatial: serve.spatial,
                impact: None,
            },
            max_line_bytes: serve.max_line_bytes,
            ring_capacity: serve.ring_capacity,
            reference: StreamReference {
                counters: single.counters(),
                records: sim.ras.len() as u64,
            },
        })
    }

    /// The reference counters.
    pub fn reference(&self) -> StreamReference {
        self.reference
    }

    /// Replace the reference (the perturbation tests use this).
    pub fn set_reference(&mut self, reference: StreamReference) {
        self.reference = reference;
    }

    /// One pass. With a trace, every `feed` call is a `framer` span under a
    /// `pass` root, holding one `decode` and one `shard.push` aggregate of
    /// its per-line calls, and `close` + `join` is a `shard.drain` span.
    pub fn pass(&self, mut trace: Option<&mut Trace>) -> Result<Pass, bgp_serve::ServeError> {
        let registry = Registry::new();
        let metrics = Arc::new(ServeMetrics::register(&registry));
        let ring = Arc::new(EventRing::new(self.ring_capacity));
        let pool = ShardPool::start(&self.pool, &metrics, &ring)?;
        let decoder = LineDecoder::Bgp;
        let mut framer = LineFramer::new(self.max_line_bytes);
        let mut pass = Pass::default();
        let traced = trace.is_some();
        let root = trace.as_deref_mut().map(|t| t.begin("pass", None));
        let started = Instant::now();
        let mut feed =
            |chunk: Option<&[u8]>, framer: &mut LineFramer, trace: Option<&mut Trace>| {
                let mut tally = LineTally::default();
                let mut sink = |line: &[u8]| {
                    tally.lines += 1;
                    let t0 = traced.then(Instant::now);
                    let outcome = decoder.decode_line(line);
                    let t1 = traced.then(Instant::now);
                    match outcome {
                        LineOutcome::Record(rec) => {
                            tally.decoded += 1;
                            if pool.push(*rec, &metrics).is_err() {
                                tally.push_errors += 1;
                            }
                        }
                        LineOutcome::Skip => {}
                        LineOutcome::Malformed(_) => tally.malformed += 1,
                    }
                    if let (Some(t0), Some(t1)) = (t0, t1) {
                        tally.decode += t1 - t0;
                        tally.push += t1.elapsed();
                    }
                };
                let start = Instant::now();
                match chunk {
                    Some(c) => {
                        framer.feed(c, &mut sink);
                    }
                    None => framer.finish(&mut sink),
                }
                let end = Instant::now();
                pass.chunk_seconds.push((end - start).as_secs_f64());
                if let (Some(t), Some(root)) = (trace, root) {
                    let f = t.interval("framer", Some(root), start, end);
                    t.aggregate("decode", f, (start, end), tally.decode);
                    t.aggregate("shard.push", f, (start, end), tally.push);
                }
                pass.lines += tally.lines;
                pass.decoded += tally.decoded;
                pass.malformed += tally.malformed;
                pass.push_errors += tally.push_errors;
            };
        for chunk in self.bytes.chunks(CHUNK_BYTES) {
            feed(Some(chunk), &mut framer, trace.as_deref_mut());
        }
        feed(None, &mut framer, trace.as_deref_mut());
        let drain = Instant::now();
        pool.close();
        pool.join();
        let end = Instant::now();
        pass.seconds = (end - started).as_secs_f64();
        if let (Some(t), Some(root)) = (trace, root) {
            t.interval("shard.drain", Some(root), drain, end);
            t.end(root);
        }
        pass.counters = pool.counters();
        pass.stalls = metrics.backpressure_stalls.get();
        Ok(pass)
    }

    fn check(&self, pass: Result<Pass, bgp_serve::ServeError>, out: &mut Outcome) -> Option<Pass> {
        match pass {
            Ok(p) => {
                out.attempted += p.decoded.max(1);
                if !check_pass(&p, &self.reference) {
                    out.failed += p.decoded.max(1);
                    eprintln!(
                        "stream-ingest: pass {:?} (decoded {}, malformed {}) differs from the reference {:?}",
                        p.counters, p.decoded, p.malformed, self.reference
                    );
                }
                Some(p)
            }
            Err(e) => {
                out.attempted += self.reference.records;
                out.failed += self.reference.records;
                eprintln!("stream-ingest: {e}");
                None
            }
        }
    }

    fn info(&self, out: &mut Outcome) {
        out.info.extend([
            ("ras_records", self.reference.records.to_string()),
            ("stream_bytes", self.bytes.len().to_string()),
        ]);
    }

    /// Untraced run: one warm-up pass, then timed passes until the budget
    /// is spent. Pass and chunk times are at the reference speed: each
    /// chunk's `feed` time is scaled like the pass it belongs to.
    pub fn measure(&self, budget: Budget) -> Outcome {
        let mut out = Outcome::default();
        self.check(self.pass(None), &mut out);
        let mut clock = Clock::new();
        let (mut measured, mut scaled, mut chunk_ms) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        while !budget.done(start, scaled.len()) {
            let (pass, wall, wall_scaled) = clock.time(|| self.pass(None));
            let Some(p) = self.check(pass, &mut out) else {
                break;
            };
            let scale = wall_scaled / wall;
            measured.push(p.seconds);
            scaled.push(p.seconds * scale);
            chunk_ms.extend(p.chunk_seconds.iter().map(|s| s * scale * 1e3));
        }
        let report_s = median(&scaled);
        out.metrics.extend([
            ("report_s".to_owned(), report_s),
            ("fold_p50_ms".to_owned(), median(&chunk_ms)),
            ("fold_p90_ms".to_owned(), percentile(&chunk_ms, 0.9)),
            (
                "ingest_records_per_s".to_owned(),
                self.reference.records as f64 / report_s,
            ),
        ]);
        self.info(&mut out);
        out.info.extend([
            ("passes", scaled.len().to_string()),
            ("chunk_samples", chunk_ms.len().to_string()),
            ("measured_pass_s", median(&measured).to_string()),
        ]);
        calib::record(&clock, &mut out);
        out
    }

    /// Traced run: untraced and traced passes alternate until the budget is
    /// spent.
    pub fn measure_traced(&self, budget: Budget) -> Outcome {
        let mut out = Outcome::default();
        self.check(self.pass(None), &mut out);
        let mut trace = Trace::new();
        let (mut untraced, mut last) = (Vec::new(), None);
        let start = Instant::now();
        while !budget.done(start, untraced.len()) {
            let Some(p) = self.check(self.pass(None), &mut out) else {
                break;
            };
            untraced.push(p.seconds);
            last = self.check(self.pass(Some(&mut trace)), &mut out);
        }
        let ops = layer_times(&trace);
        let traced: Vec<f64> = ops
            .iter()
            .map(|op| op.get("pass").map_or(0.0, |t| t.busy_ns as f64 / 1e9))
            .collect();
        let m = &mut out.metrics;
        m.insert("framer.ms".into(), median_ms(&ops, "framer", true));
        m.insert("decode.ms".into(), median_ms(&ops, "decode", false));
        m.insert("shard.push.ms".into(), median_ms(&ops, "shard.push", false));
        m.insert(
            "shard.drain.ms".into(),
            median_ms(&ops, "shard.drain", false),
        );
        if let Some(p) = &last {
            m.insert("framer.lines".into(), p.lines as f64);
            m.insert(
                "decode.ns_per_line".into(),
                median_ms(&ops, "decode", false) * 1e6 / p.lines.max(1) as f64,
            );
            m.insert("decode.malformed".into(), p.malformed as f64);
            m.insert("shard.backpressure_stalls".into(), p.stalls as f64);
            m.insert("online.events_out".into(), p.counters.events_out as f64);
            m.insert("online.compression".into(), p.counters.compression());
        }
        m.insert(
            "trace.overhead_frac".into(),
            overhead_frac(&untraced, &traced),
        );
        m.insert("trace.unattributed_frac".into(), unattributed_frac(&trace));
        self.info(&mut out);
        out.info.push(("traced_passes", ops.len().to_string()));
        out
    }
}
