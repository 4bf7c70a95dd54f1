//! The serve probe every traced run includes: an open loop from one
//! generator thread into an in-process `JobEngine`, at two fixed offered
//! rates.
//!
//! The mix uses the result store two ways at once. Reads (about 60%)
//! are slices of the default grid, which set-up has already measured,
//! so the store answers them from memory. Writes (about 30%) are
//! fault-plan sweeps with fresh plan seeds, measured on the reference
//! interpreter. The rest repeat the latest write's body while it is
//! likely still in flight, so they coalesce onto it.
//!
//! Every request is timed from the moment it was due to the moment its
//! `done` event is written. A phase whose generator fell behind its
//! schedule, or whose backlog kept growing, voids the run. The engine
//! has no disk tier (`cache_path` is `None`), so nothing under
//! `results/` is read or written.

use crate::matrix::{per_op, reference, Reference};
use crate::report::Report;
use crate::stats::{min_samples, percentile};
use crate::trace::{Span, Tracer};
use crate::{splitmix, Mismatch};
use neve_json::JsonValue;
use neve_workloads::jobs::{bench_from_name, config_from_name};
use neve_workloads::serve::Sink;
use neve_workloads::{parse_request, Command, JobEngine};
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered rate of the `lo` phase, requests/s: 30% of the mix's
/// saturation rate (about 1580 requests/s with 2 workers on a 2-core
/// x86-64 host) at the commit that defined the benchmark. Frozen: it
/// never adapts to the commit under test.
const LO_RATE: f64 = 475.0;
/// Offered rate of the `hi` phase, 70% of that saturation rate. Frozen.
const HI_RATE: f64 = 1100.0;
/// Latency limit of `serve.hi_slo_ratio`, ms: twice the `hi` p99 seen
/// when the rates were set. Frozen.
const SLO_MS: f64 = 50.0;
/// Median generator lateness above which a phase is void, ms. A
/// generator that is this late on a typical request has fallen behind
/// its schedule; brief host stalls only move the tail
/// (`loadgen.late_ms_p99`, `loadgen.late_ms_max`).
const LATE_LIMIT_MS: f64 = 5.0;
/// Backlog above which a phase is void: ten times the largest backlog
/// seen at the `hi` rate when the rates were set.
const BACKLOG_LIMIT: usize = 200;

/// Fault plans a write may carry: none of them fails a cell of
/// [`WRITE_CELLS`] (checked over 300 plan seeds per plan and cell).
const PLANS: [&str; 3] = ["vncr-double", "spurious-trap", "counter-reset"];
/// The cells a write measures.
const WRITE_CELLS: [(&str, &str); 4] = [
    ("v83", "hypercall"),
    ("v83", "device_io"),
    ("neve", "hypercall"),
    ("neve", "device_io"),
];
/// Config aliases a read may slice.
const READ_CONFIGS: [&str; 7] = [
    "vm",
    "v83",
    "v83-vhe",
    "neve",
    "neve-vhe",
    "x86-vm",
    "x86-nested",
];
/// Bench labels a read may slice.
const READ_BENCHES: [&str; 4] = ["hypercall", "device_io", "virtual_ipi", "virtual_eoi"];
/// Step budget of a write's cell: a stalled plan fails its cell
/// instead of running the default 80M-step watchdog.
const WRITE_BUDGET: u64 = 2_000_000;

/// What a request does to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A slice of cells already in the store.
    Read,
    /// A fault-plan cell with a fresh seed.
    Write,
    /// The latest write's body again.
    Dup,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Dup => "dup",
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// When it is due, from the phase start.
    pub due: Duration,
    /// What it does.
    pub kind: Kind,
    /// The request line (with its id).
    pub line: String,
}

/// The seeded open-loop schedule of `n` requests at `rate` per second:
/// exponential gaps (independent clients), a read/write/duplicate mix.
/// The same seed gives the same schedule.
pub fn schedule(seed: u64, phase: &str, rate: f64, n: usize) -> Vec<Req> {
    let mut s = seed ^ phase.bytes().fold(0u64, |h, b| h.rotate_left(8) ^ b as u64);
    let unit = |s: &mut u64| (splitmix(s) >> 11) as f64 / (1u64 << 53) as f64;
    let mut t = 0.0f64;
    let mut last_write: Option<String> = None;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        t += -(1.0 - unit(&mut s)).ln() / rate;
        let id = format!("{phase}{i}");
        let u = unit(&mut s);
        let (kind, body) = if u < 0.6 {
            let k = 1 + (unit(&mut s) * 3.0) as usize;
            let first = (unit(&mut s) * 7.0) as usize;
            let configs: Vec<String> = (0..k)
                .map(|j| format!("\"{}\"", READ_CONFIGS[(first + 2 * j) % 7]))
                .collect();
            let nb = 1 + (unit(&mut s) * 4.0) as usize;
            let b0 = (unit(&mut s) * 4.0) as usize;
            let benches: Vec<String> = (0..nb)
                .map(|j| format!("\"{}\"", READ_BENCHES[(b0 + j) % 4]))
                .collect();
            (
                Kind::Read,
                format!(
                    "\"configs\":[{}],\"benches\":[{}]",
                    configs.join(","),
                    benches.join(",")
                ),
            )
        } else if u < 0.9 || last_write.is_none() {
            let (c, b) = WRITE_CELLS[(unit(&mut s) * 4.0) as usize];
            let plan = PLANS[(unit(&mut s) * 3.0) as usize];
            let plan_seed = splitmix(&mut s) >> 12;
            let body = format!(
                "\"configs\":[\"{c}\"],\"benches\":[\"{b}\"],\"plan\":\"{plan}\",\"plan_seed\":{plan_seed},\"budget\":{WRITE_BUDGET}"
            );
            last_write = Some(body.clone());
            (Kind::Write, body)
        } else {
            (
                Kind::Dup,
                last_write
                    .clone()
                    .expect("a write precedes every duplicate"),
            )
        };
        out.push(Req {
            due: Duration::from_secs_f64(t),
            kind,
            line: format!("{{\"id\":\"{id}\",\"job\":\"micro\",{body}}}"),
        });
    }
    out
}

/// One request's event stream, stamped when its last event arrives.
struct ReqLog {
    text: Vec<u8>,
    scanned: usize,
    done_at: Option<Instant>,
    done: Arc<AtomicUsize>,
}

impl Write for ReqLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.text.extend_from_slice(buf);
        if self.done_at.is_none() {
            // A request ends with `done`, or with `error` if refused.
            const ENDS: [&[u8]; 2] = [b"\"event\":\"done\"", b"\"event\":\"error\""];
            let tail = &self.text[self.scanned.saturating_sub(ENDS[1].len())..];
            if ENDS.iter().any(|e| tail.windows(e.len()).any(|w| w == *e)) {
                self.done_at = Some(Instant::now());
                self.done.fetch_add(1, Ordering::SeqCst);
            }
            self.scanned = self.text.len();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A request's event log, shared with the engine as its sink.
type Log = Arc<Mutex<ReqLog>>;

/// An engine with the default grid already in its store.
struct Served {
    engine: JobEngine,
    reference: Reference,
}

/// Builds an engine on `jobs` workers (no disk tier) and measures the
/// default grid into its store.
fn warm(jobs: usize) -> Result<Served, Mismatch> {
    let reference = reference()?;
    let engine = JobEngine::new(jobs, reference.fingerprint, None, 1_000_000);
    let served = Served { engine, reference };
    let (logs, _) = served.submit_all(&[Req {
        due: Duration::ZERO,
        kind: Kind::Read,
        line: "{\"id\":\"warm\",\"job\":\"micro\"}".into(),
    }])?;
    let checked = served.check(&logs[0], Kind::Read, "warm")?;
    if checked.measured != 28 {
        return Err(Mismatch(format!(
            "warm-up measured {} cells, expected 28",
            checked.measured
        )));
    }
    Ok(served)
}

/// What one request's events said.
#[derive(Debug, Default, Clone, Copy)]
struct Checked {
    cells: usize,
    measured: usize,
    coalesced: usize,
    memory: usize,
    failed: bool,
}

/// One phase's raw results.
struct Phase {
    latency_ms: Vec<f64>,
    kinds: Vec<Kind>,
    checked: Vec<Checked>,
    submit_us: Vec<f64>,
    late_ms: Vec<f64>,
    backlog_max: usize,
    computed: u64,
    spans: Vec<(Instant, Instant, Instant, Instant)>,
}

impl Served {
    /// Submits `reqs` at their due times from this thread and waits for
    /// every `done`; returns each request's log and the phase results.
    fn submit_all(&self, reqs: &[Req]) -> Result<(Vec<Log>, Phase), Mismatch> {
        let cmds: Vec<Command> = reqs
            .iter()
            .map(|r| {
                parse_request(&r.line).map_err(|e| Mismatch(format!("bad request {}: {e}", r.line)))
            })
            .collect::<Result<_, _>>()?;
        let done = Arc::new(AtomicUsize::new(0));
        let logs: Vec<Log> = reqs
            .iter()
            .map(|_| {
                Arc::new(Mutex::new(ReqLog {
                    text: Vec::new(),
                    scanned: 0,
                    done_at: None,
                    done: Arc::clone(&done),
                }))
            })
            .collect();
        let computed0 = self.engine.computed();
        let mut submit = Vec::with_capacity(reqs.len());
        let mut late_ms = Vec::with_capacity(reqs.len());
        let mut backlog_max = 0usize;
        let start = Instant::now() + Duration::from_millis(1);
        for (i, (cmd, log)) in cmds.into_iter().zip(&logs).enumerate() {
            let due = start + reqs[i].due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t0 = Instant::now();
            late_ms.push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
            backlog_max = backlog_max.max(i - done.load(Ordering::SeqCst).min(i));
            let sink: Sink = log.clone();
            self.engine.handle(cmd, &sink);
            submit.push((due, t0, Instant::now()));
        }
        self.engine.drain();
        // `drain` returns once the last request leaves the engine's
        // table, which is before its `done` event is written: wait for
        // the events themselves.
        let waited = Instant::now();
        while done.load(Ordering::SeqCst) < reqs.len() {
            if waited.elapsed() > Duration::from_secs(10) {
                return Err(Mismatch(format!(
                    "{} of {} requests never reached done",
                    reqs.len() - done.load(Ordering::SeqCst),
                    reqs.len()
                )));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        let mut latency_ms = Vec::with_capacity(reqs.len());
        let mut spans = Vec::with_capacity(reqs.len());
        for ((due, t0, t1), log) in submit.iter().zip(&logs) {
            let at = log
                .lock()
                .expect("a request log is never poisoned")
                .done_at
                .unwrap_or_else(Instant::now);
            latency_ms.push(at.saturating_duration_since(*due).as_secs_f64() * 1e3);
            spans.push((*due, *t0, *t1, at));
        }
        let phase = Phase {
            latency_ms,
            kinds: reqs.iter().map(|r| r.kind).collect(),
            checked: Vec::new(),
            submit_us: submit
                .iter()
                .map(|(_, a, b)| (*b - *a).as_secs_f64() * 1e6)
                .collect(),
            late_ms,
            backlog_max,
            computed: self.engine.computed() - computed0,
            spans,
        };
        Ok((logs, phase))
    }

    /// Checks one request's events: it reached `done` with
    /// ok + failed + cancelled = cells, and every no-plan cell equals
    /// the reference matrix.
    fn check(&self, log: &Log, kind: Kind, id: &str) -> Result<Checked, Mismatch> {
        let text = String::from_utf8(
            log.lock()
                .expect("a request log is never poisoned")
                .text
                .clone(),
        )
        .map_err(|_| Mismatch(format!("request {id}: events are not UTF-8")))?;
        let mut c = Checked::default();
        let mut ended = false;
        for line in text.lines() {
            let ev = neve_json::parse(line)
                .map_err(|e| Mismatch(format!("request {id}: bad event {line}: {e:?}")))?;
            let field = |k: &str| ev.get(k).and_then(JsonValue::as_str).unwrap_or("");
            let num = |k: &str| ev.get(k).and_then(JsonValue::as_u64).unwrap_or(0) as usize;
            match field("event") {
                "accepted" => c.cells = num("cells"),
                "error" => {
                    c.failed = true;
                    ended = true;
                }
                "cell" => {
                    match field("source") {
                        "measured" => c.measured += 1,
                        "coalesced" => c.coalesced += 1,
                        "memory" => c.memory += 1,
                        _ => {}
                    }
                    if field("status") != "ok" {
                        c.failed = true;
                    } else if kind == Kind::Read {
                        let (Some(cfg), Some(bench)) = (
                            config_from_name(field("config")),
                            bench_from_name(field("bench")),
                        ) else {
                            return Err(Mismatch(format!(
                                "request {id}: cell event without a cell: {line}"
                            )));
                        };
                        let want = per_op(&self.reference.matrix, cfg, bench);
                        let cycles = ev.get("cycles").and_then(JsonValue::as_u64);
                        let traps = ev.get("traps").and_then(JsonValue::as_f64);
                        if cycles != Some(want.cycles) || traps != Some(want.traps) {
                            return Err(Mismatch(format!(
                                "request {id}: served cell {}/{} has cycles {cycles:?} traps {traps:?}, reference {} / {}",
                                field("config"),
                                field("bench"),
                                want.cycles,
                                want.traps
                            )));
                        }
                    }
                }
                "done" => {
                    ended = true;
                    let total = num("ok") + num("failed") + num("cancelled");
                    if total != c.cells {
                        return Err(Mismatch(format!(
                            "request {id}: done with ok+failed+cancelled = {total}, accepted {} cells",
                            c.cells
                        )));
                    }
                    c.failed |= num("failed") + num("cancelled") > 0;
                }
                _ => {}
            }
        }
        if !ended {
            return Err(Mismatch(format!("request {id} never reached done")));
        }
        Ok(c)
    }

    /// Runs one phase of the open loop and checks every request.
    fn phase(&self, reqs: &[Req]) -> Result<Phase, Mismatch> {
        let (logs, mut phase) = self.submit_all(reqs)?;
        for (i, log) in logs.iter().enumerate() {
            let id = reqs[i].line.split('"').nth(3).unwrap_or("?").to_string();
            phase.checked.push(self.check(log, reqs[i].kind, &id)?);
        }
        Ok(phase)
    }
}

/// Requests in a phase of `secs` at `rate`: enough for a p99 with ten
/// samples beyond it.
fn phase_len(rate: f64, secs: f64) -> usize {
    ((rate * secs) as usize).max(min_samples(99.0))
}

/// Rejects a run whose generator fell behind its schedule or whose
/// backlog kept growing: its latencies would not be the offered load's.
fn valid(p: &Phase, name: &str) -> Result<(), Mismatch> {
    let late = percentile(&p.late_ms, 50.0);
    if late > LATE_LIMIT_MS {
        return Err(Mismatch(format!(
            "{name} phase: generator fell behind (median lateness {late:.2} ms)"
        )));
    }
    if p.backlog_max > BACKLOG_LIMIT {
        return Err(Mismatch(format!(
            "{name} phase: backlog grew to {} requests",
            p.backlog_max
        )));
    }
    Ok(())
}

/// Per-layer results of the serve probe.
pub struct Probe {
    lo: Phase,
    hi: Phase,
}

/// The traced serve run: both phases, `share` split across them, then
/// a span per request (due to `done`) with a child span around its
/// `JobEngine::handle` call. The spans are stamped inside the loop and
/// recorded after it. A phase that fails [`valid`] voids the run.
pub fn probe(seed: u64, jobs: usize, share: Duration, tr: &mut Tracer) -> Result<Probe, Mismatch> {
    let secs = share.as_secs_f64();
    let served = warm(jobs)?;
    let lo = served.phase(&schedule(
        seed,
        "lo",
        LO_RATE,
        phase_len(LO_RATE, 0.3 * secs),
    ))?;
    valid(&lo, "lo")?;
    let hi = served.phase(&schedule(
        seed,
        "hi",
        HI_RATE,
        phase_len(HI_RATE, 0.7 * secs),
    ))?;
    valid(&hi, "hi")?;
    for (p, base_id) in [(&lo, 0u64), (&hi, 1_000_000)] {
        for (i, ((due, t0, t1, at), kind)) in p.spans.iter().zip(&p.kinds).enumerate() {
            let id = base_id + i as u64;
            let parent = tr.record(Span {
                name: "serve.request",
                tag: kind.label(),
                id,
                parent: None,
                start_ns: tr.ns_at(*due),
                end_ns: tr.ns_at(*at),
            });
            let (start_ns, end_ns) = (tr.ns_at(*t0), tr.ns_at(*t1));
            tr.record(Span {
                name: "serve.handle",
                tag: kind.label(),
                id,
                parent: parent.index(),
                start_ns,
                end_ns,
            });
        }
    }
    Ok(Probe { lo, hi })
}

impl Probe {
    /// Every per-layer metric of the probe.
    pub fn metrics(&self, r: &mut Report) {
        let phases = [&self.lo, &self.hi];
        let all =
            |f: &dyn Fn(&Phase) -> Vec<f64>| phases.iter().flat_map(|p| f(p)).collect::<Vec<f64>>();
        let of_class = |p: &Phase, hit: bool| {
            p.latency_ms
                .iter()
                .zip(&p.checked)
                .filter(|(_, c)| {
                    if hit {
                        c.memory == c.cells
                    } else {
                        c.measured > 0
                    }
                })
                .map(|(l, _)| *l)
                .collect::<Vec<f64>>()
        };
        r.push(
            "serve.lo_p99_ms",
            percentile(&self.lo.latency_ms, 99.0),
            "ms",
        );
        r.push(
            "serve.hi_p99_ms",
            percentile(&self.hi.latency_ms, 99.0),
            "ms",
        );
        let within = self
            .hi
            .latency_ms
            .iter()
            .zip(&self.hi.checked)
            .filter(|(l, c)| **l <= SLO_MS && !c.failed)
            .count();
        r.push(
            "serve.hi_slo_ratio",
            within as f64 / self.hi.latency_ms.len() as f64,
            "ratio",
        );
        let submit = all(&|p| p.submit_us.clone());
        r.push("serve.submit_us_p50", percentile(&submit, 50.0), "us");
        r.push("serve.submit_us_p99", percentile(&submit, 99.0), "us");
        r.push(
            "serve.hit_req_ms_p99",
            percentile(&all(&|p| of_class(p, true)), 99.0),
            "ms",
        );
        r.push(
            "serve.miss_req_ms_p50",
            percentile(&all(&|p| of_class(p, false)), 50.0),
            "ms",
        );
        let sum = |f: fn(&Checked) -> usize| {
            phases.iter().flat_map(|p| &p.checked).map(f).sum::<usize>() as f64
        };
        let (measured, coalesced, memory, cells) = (
            sum(|c| c.measured),
            sum(|c| c.coalesced),
            sum(|c| c.memory),
            sum(|c| c.cells),
        );
        r.push("serve.cells_measured", measured, "count");
        r.push("serve.cells_coalesced", coalesced, "count");
        r.push("serve.cells_memory", memory, "count");
        r.push(
            "serve.store_hit_ratio",
            (coalesced + memory) / cells,
            "ratio",
        );
        r.push(
            "serve.computed",
            phases.iter().map(|p| p.computed).sum::<u64>() as f64,
            "count",
        );
        r.push(
            "serve.backlog_max",
            phases.iter().map(|p| p.backlog_max).max().unwrap_or(0) as f64,
            "count",
        );
        let late = all(&|p| p.late_ms.clone());
        r.push("loadgen.late_ms_p99", percentile(&late, 99.0), "ms");
        r.push(
            "loadgen.late_ms_max",
            late.iter().cloned().fold(0.0, f64::max),
            "ms",
        );
    }
}
