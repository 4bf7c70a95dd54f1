//! The `matrix` workload: back-to-back cold `measure_parallel` rounds
//! over all 28 cells, what `neve tables`/`check`/`figure2` pay cold.
//!
//! Its traced run is the layer probe every traced run includes: each
//! cell through `SimSession::{new,run}`, the exact counters of each cell
//! from its testbed, the single-CPU ARM cells driven through the
//! hypervisor timing wrapper, and one parallel round.

use crate::cells::{self, alias, CellCounts, CONFIGS};
use crate::report::{check_exact, Report};
use crate::stats::{median, min_samples};
use crate::trace::Tracer;
use crate::{measure, Mismatch, RunSpec};
use neve_cycles::CostModel;
use neve_workloads::cache::to_json;
use neve_workloads::platforms::PerOpSer;
use neve_workloads::{golden_diff, trap_algebra, Bench, Config, MicroMatrix, SimSession};
use std::collections::BTreeMap;
use std::time::Instant;

/// The serial reference every round is compared with.
pub(crate) struct Reference {
    /// The serially measured matrix.
    pub(crate) matrix: MicroMatrix,
    /// Its cache rendering.
    json: String,
    /// The default cost model's fingerprint.
    pub(crate) fingerprint: u64,
}

/// Measures the serial reference and checks it against the goldens, the
/// trap algebra, and every cell's cycles and traps as recorded in
/// `exact_counts.json`, so an untraced run fails on any change to a
/// simulated identity, not only on one past the goldens' tolerance.
pub(crate) fn reference() -> Result<Reference, Mismatch> {
    let matrix = MicroMatrix::measure();
    if matrix.has_failures() {
        return Err(Mismatch(format!(
            "reference matrix has failed cells: {:?}",
            matrix.all_failures()
        )));
    }
    let mut bad = golden_diff(&matrix);
    bad.extend(trap_algebra(&matrix));
    if !bad.is_empty() {
        return Err(Mismatch(format!(
            "reference matrix violates the oracles: {}",
            bad.join("; ")
        )));
    }
    let mut recorded = Vec::new();
    for (c, a) in CONFIGS {
        for b in Bench::all() {
            let p = per_op(&matrix, c, b);
            let cell = format!("cell.{a}.{}", b.label());
            recorded.push((format!("{cell}.cycles"), p.cycles as f64));
            recorded.push((format!("{cell}.traps"), p.traps));
        }
    }
    check_exact(&recorded).map_err(|Mismatch(m)| Mismatch(format!("reference matrix: {m}")))?;
    let fingerprint = CostModel::default().fingerprint();
    Ok(Reference {
        json: to_json(&matrix, fingerprint),
        matrix,
        fingerprint,
    })
}

/// One cell's per-op result in `m`.
pub(crate) fn per_op(m: &MicroMatrix, c: Config, b: Bench) -> PerOpSer {
    let costs = m.costs(c);
    match b {
        Bench::Hypercall => costs.hypercall,
        Bench::DeviceIo => costs.device_io,
        Bench::VirtualIpi => costs.virtual_ipi,
        Bench::VirtualEoi => costs.virtual_eoi,
    }
}

impl Reference {
    /// Fails, naming the first differing cell, unless `m` renders
    /// byte-identically to the reference.
    pub(crate) fn check(&self, m: &MicroMatrix, what: &str) -> Result<(), Mismatch> {
        if to_json(m, self.fingerprint) == self.json {
            return Ok(());
        }
        for c in Config::all() {
            for b in Bench::all() {
                let (got, want) = (per_op(m, c, b), per_op(&self.matrix, c, b));
                if got != want {
                    return Err(Mismatch(format!(
                        "{what}: cell {}/{} measured {got:?}, reference {want:?}",
                        alias(c),
                        b.label()
                    )));
                }
            }
        }
        Err(Mismatch(format!(
            "{what}: matrix differs from the serial reference in its trap or phase breakdown"
        )))
    }
}

/// One set-up on every worker at once: each thread measures and checks
/// its own serial reference, and they must render identically. A
/// single-thread set-up takes the speed of whichever vCPU it lands on,
/// which drifts on a shared host (21–49 ms pinned to one vCPU of a
/// 2-core guest); `jobs` concurrent set-ups average the vCPUs, as the
/// parallel rounds do.
fn setup_on_every_worker(jobs: usize) -> Result<Reference, Mismatch> {
    let refs: Vec<Result<Reference, Mismatch>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs).map(|_| s.spawn(reference)).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a set-up thread never panics"))
            .collect()
    });
    let mut refs = refs.into_iter();
    let first = refs.next().expect("at least one worker")?;
    for other in refs {
        first.check(&other?.matrix, "reference on another worker")?;
    }
    Ok(first)
}

/// The untraced `matrix` run. `setup_s` is the CPU time of one set-up:
/// each repetition runs `jobs` of them at once.
pub fn run(spec: &RunSpec, jobs: usize) -> Result<Report, Mismatch> {
    let (_, reps_s, rounds) = measure(
        spec.window(),
        min_samples(90.0),
        || setup_on_every_worker(jobs),
        |reference| reference.check(&MicroMatrix::measure_parallel(jobs), "matrix round"),
    )?;
    let setup_s = reps_s / jobs as f64;
    let cells = 28.0 * rounds.len() as f64;
    let busy_s = rounds.iter().sum::<f64>() / 1e3;
    Ok(crate::report::end_to_end(
        setup_s,
        cells,
        busy_s,
        &rounds,
        rounds.len() as u64,
        0,
    ))
}

/// Host-time and work totals of the layer probe, per configuration.
#[derive(Debug, Default, Clone)]
struct PerConfig {
    build_ns: f64,
    builds: f64,
    run_ns: f64,
    driven_steps: f64,
    driven_loop_ns: f64,
    driven_hyp_ns: f64,
    driven_exits: f64,
}

/// Per-layer results of the matrix probe.
pub struct Probe {
    reference: Reference,
    counts: BTreeMap<(Config, Bench), CellCounts>,
    per_config: BTreeMap<Config, PerConfig>,
    run_ns_by_bench: BTreeMap<Bench, f64>,
    efficiency: Vec<f64>,
    iterations: u64,
    traced_wall: Vec<f64>,
    untraced_wall: Vec<f64>,
    jobs: usize,
}

impl Probe {
    /// Measures the reference and every cell's exact counts.
    pub fn new(jobs: usize) -> Result<Self, Mismatch> {
        let mut counts = BTreeMap::new();
        for c in Config::all() {
            for b in Bench::all() {
                counts.insert((c, b), cells::counts(c, b)?);
            }
        }
        Ok(Self {
            reference: reference()?,
            counts,
            per_config: BTreeMap::new(),
            run_ns_by_bench: BTreeMap::new(),
            efficiency: Vec::new(),
            iterations: 0,
            traced_wall: Vec::new(),
            untraced_wall: Vec::new(),
            jobs,
        })
    }

    /// One probe pass; with `tr` off it does the same calls unrecorded
    /// (the untraced half of `trace.overhead_ratio`).
    pub fn pass(&mut self, tr: &mut Tracer) -> Result<(), Mismatch> {
        let traced = tr.is_on();
        let pass_start = Instant::now();
        let id0 = self.iterations * 100;
        let mut serial_ns = 0.0;
        for (i, (c, b)) in Config::all()
            .into_iter()
            .flat_map(|c| Bench::all().into_iter().map(move |b| (c, b)))
            .enumerate()
        {
            let id = id0 + i as u64;
            let tag = alias(c);
            let cell = tr.begin("cell", tag, id, Tracer::root());
            let t = Instant::now();
            let sp = tr.begin("session.new", tag, id, cell);
            let s = SimSession::new(c, b);
            tr.end(sp);
            let built = t.elapsed().as_nanos() as f64;
            let sp = tr.begin("session.run", b.label(), id, cell);
            let result = s.run();
            tr.end(sp);
            let total = t.elapsed().as_nanos() as f64;
            serial_ns += total;
            let got = result
                .measurement()
                .map(|m| m.per_op)
                .ok_or_else(|| Mismatch(format!("cell {tag}/{} failed in the probe", b.label())))?;
            if got != per_op(&self.reference.matrix, c, b) {
                return Err(Mismatch(format!(
                    "cell {tag}/{}: session measured {got:?}, reference {:?}",
                    b.label(),
                    per_op(&self.reference.matrix, c, b)
                )));
            }
            if cells::arm_config(c).is_some() && cells::single_cpu(b) {
                let sp = tr.begin("kvmarm.drive", tag, id, cell);
                let d = cells::drive(c, b, traced)?;
                tr.end(sp);
                let want = self.counts[&(c, b)];
                if (d.steps, d.cycles) != (want.steps, want.cycles) {
                    return Err(Mismatch(format!(
                        "cell {tag}/{}: driven through the timing wrapper it retired {} steps / {} cycles, \
                         untraced {} / {}",
                        b.label(),
                        d.steps,
                        d.cycles,
                        want.steps,
                        want.cycles
                    )));
                }
                if traced {
                    let pc = self.per_config.entry(c).or_default();
                    pc.driven_steps += d.steps as f64;
                    pc.driven_loop_ns += d.loop_ns as f64;
                    pc.driven_hyp_ns += d.hyp_ns as f64;
                    pc.driven_exits += d.exits as f64;
                }
            }
            tr.end(cell);
            if traced {
                let pc = self.per_config.entry(c).or_default();
                pc.build_ns += built;
                pc.builds += 1.0;
                pc.run_ns += total - built;
                if cells::arm_config(c).is_some() {
                    *self.run_ns_by_bench.entry(b).or_default() += total - built;
                }
            }
        }
        let sp = tr.begin(
            "platforms.measure_parallel",
            "all",
            id0 + 99,
            Tracer::root(),
        );
        let t = Instant::now();
        let m = MicroMatrix::measure_parallel(self.jobs);
        let round_ns = t.elapsed().as_nanos() as f64;
        tr.end(sp);
        self.reference.check(&m, "probe round")?;
        let wall = pass_start.elapsed().as_secs_f64();
        if traced {
            self.efficiency
                .push(serial_ns / (self.jobs as f64 * round_ns));
            self.iterations += 1;
            self.traced_wall.push(wall);
        } else {
            self.untraced_wall.push(wall);
        }
        Ok(())
    }

    /// Traced wall ÷ untraced wall of the probe passes.
    pub fn overhead_ratio(&self) -> f64 {
        median(&self.traced_wall) / median(&self.untraced_wall)
    }

    /// The exact counts this probe gates.
    pub fn exact(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (c, a) in CONFIGS.into_iter().filter(|(c, _)| !c.is_x86()) {
            let sum = |f: fn(&CellCounts) -> u64| {
                Bench::all()
                    .iter()
                    .map(|b| f(&self.counts[&(c, *b)]))
                    .sum::<u64>() as f64
            };
            out.push((format!("armv8.steps.{a}"), sum(|k| k.steps)));
            out.push((format!("cycles.total.{a}"), sum(|k| k.cycles)));
            out.push((format!("cycles.traps.{a}"), sum(|k| k.traps)));
            out.push((format!("memsim.tlb_misses.{a}"), sum(|k| k.tlb_misses)));
            if matches!(c, Config::ArmNestedNeve | Config::ArmNestedNeveVhe) {
                out.push((
                    format!("neve.vncr_deferrals.{a}"),
                    sum(|k| k.vncr_deferrals),
                ));
            }
            if let Some(pc) = self.per_config.get(&c) {
                out.push((
                    format!("kvmarm.exits.{a}"),
                    pc.driven_exits / self.iterations as f64,
                ));
            }
        }
        out
    }

    /// Every per-layer metric of the probe.
    pub fn metrics(&self, r: &mut Report) {
        let n = self.iterations as f64;
        for (c, a) in CONFIGS {
            let pc = self.per_config.get(&c).cloned().unwrap_or_default();
            let steps: u64 = Bench::all()
                .iter()
                .map(|b| self.counts[&(c, *b)].steps)
                .sum();
            r.push(
                format!("session.build_us.{a}"),
                pc.build_ns / pc.builds / 1e3,
                "us",
            );
            r.push(
                format!("session.run_ns_per_step.{a}"),
                pc.run_ns / (steps as f64 * n),
                "ns/step",
            );
            if c.is_x86() {
                continue;
            }
            r.push(
                format!("armv8.self_ns_per_step.{a}"),
                (pc.driven_loop_ns - pc.driven_hyp_ns) / pc.driven_steps,
                "ns/step",
            );
            r.push(
                format!("kvmarm.exit_ns_share.{a}"),
                pc.driven_hyp_ns / pc.driven_loop_ns,
                "ratio",
            );
            r.push(
                format!("kvmarm.ns_per_exit.{a}"),
                pc.driven_hyp_ns / pc.driven_exits,
                "ns",
            );
            let (hits, misses) = Bench::all().iter().fold((0, 0), |(h, m), b| {
                let k = self.counts[&(c, *b)];
                (h + k.tlb_hits, m + k.tlb_misses)
            });
            r.push(
                format!("memsim.tlb_hit_ratio.{a}"),
                hits as f64 / (hits + misses) as f64,
                "ratio",
            );
        }
        for (name, value) in self.exact() {
            let unit = if name.starts_with("armv8.steps") {
                "steps"
            } else if name.starts_with("cycles.total") {
                "cycles"
            } else {
                "count"
            };
            r.push(name, value, unit);
        }
        for b in Bench::all() {
            r.push(
                format!("session.run_ns.{}", b.label()),
                self.run_ns_by_bench.get(&b).copied().unwrap_or(0.0) / n,
                "ns",
            );
        }
        r.push(
            "platforms.parallel_efficiency",
            median(&self.efficiency),
            "ratio",
        );
    }
}
