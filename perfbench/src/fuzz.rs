//! The `fuzz` workload: back-to-back `run_fuzz` campaign rounds, each
//! with its own seed derived from the workload seed.
//!
//! Its traced run replays the rounds' cases on the `armv8::host`
//! harness, timing `Machine::snapshot`/`restore` and `Machine::run`
//! with and without the invariant checker.

use crate::report::{check_exact, end_to_end, Report};
use crate::stats::{median, min_samples};
use crate::trace::Tracer;
use crate::{measure, splitmix, Mismatch, RunSpec};
use neve_armv8::host::{
    boot_harness, harness_machine, install_stage2, EmulHyp, PROGRAM_BASE, VNCR_PAGE,
};
use neve_armv8::isa::{Asm, Instr, Program};
use neve_armv8::machine::Machine;
use neve_armv8::{ArchLevel, Engine, InjectedFault};
use neve_sysreg::bits::hcr;
use neve_sysreg::SysReg;
use neve_workloads::fuzz::{case_for_index, FindingKind};
use neve_workloads::{run_fuzz, FuzzReport, FuzzSpec};
use std::time::Instant;

/// First-round cases per campaign round: a round lasts tens of ms, so a
/// run holds hundreds of rounds.
const CASES: usize = 48;

/// Steps each replayed case may run (the campaign's own leg budget).
const REPLAY_STEPS: u64 = 600;

/// The seed of round `k` of workload seed `seed`.
fn round_seed(seed: u64, k: u64) -> u64 {
    let mut s = seed ^ k.wrapping_mul(0xa076_1d64_78bd_642f);
    splitmix(&mut s)
}

fn spec(seed: u64, jobs: usize) -> FuzzSpec {
    FuzzSpec {
        seed,
        cases: CASES,
        jobs,
        corpus_dir: None,
    }
}

/// Cases a campaign ran (both rounds).
fn cases_run(r: &FuzzReport) -> usize {
    r.generated + r.mutated + r.injected + r.guided_mutants
}

/// One checked campaign round; the checks hold for any seed.
///
/// - An injected case only ever yields a checker violation, and those
///   are what `injections_detected` counts.
/// - The checker catches every shadow-PTE corruption: the campaign aims
///   it at the root descriptor covering the guest's RAM, so it is always
///   observable (the other injected faults need not be).
/// - A clean case yields no finding from the oracles that check one
///   configuration, the invariant checker and engine lockstep. The two
///   that compare NEVE with v8.3, cross-config lockstep and the trap
///   algebra, may fire: the simulator has real NEVE-vs-v8.3 divergences,
///   which they find in a few percent of rounds (see `README.md`).
fn campaign(seed: u64, jobs: usize) -> Result<FuzzReport, Mismatch> {
    let r = run_fuzz(&spec(seed, jobs))
        .map_err(|e| Mismatch(format!("fuzz round seed {seed:#x}: {e}")))?;
    let fail = |what: String| Err(Mismatch(format!("fuzz round seed {seed:#x}: {what}")));
    for f in &r.findings {
        let (on, ok) = if f.injected.is_empty() {
            let cross = [
                FindingKind::CrossConfigDivergence,
                FindingKind::TrapAlgebraViolation,
            ];
            ("clean", cross.contains(&f.finding.kind))
        } else {
            ("injected", f.finding.kind == FindingKind::CheckerViolation)
        };
        if !ok {
            return fail(format!(
                "unexpected finding on {on} case {}: {:?}: {}",
                f.case_index, f.finding.kind, f.finding.detail
            ));
        }
    }
    // Findings are minimized in case order up to a cap, so a case past
    // the last record may have been dropped; the count covers it.
    let last = r.findings.last().map_or(0, |f| f.case_index);
    let pte = InjectedFault::CorruptShadowPte;
    let mut pte_cases = 0;
    for i in 0..CASES {
        if !case_for_index(seed, i)
            .injections
            .iter()
            .any(|j| j.fault == pte)
        {
            continue;
        }
        pte_cases += 1;
        let caught = r.findings.iter().any(|f| f.case_index == i);
        if i <= last && !caught {
            return fail(format!(
                "the checker missed the {} in case {i}",
                pte.label()
            ));
        }
    }
    if r.injections_detected < pte_cases {
        return fail(format!(
            "the checker caught {} injected faults, fewer than the {pte_cases} {} cases",
            r.injections_detected,
            pte.label()
        ));
    }
    Ok(r)
}

/// Campaign seed of the first canary round; every fuzz run, whatever
/// its own seed, checks the rounds `CANARY_SEED + k` against the counts
/// recorded in `exact_counts.json`.
const CANARY_SEED: u64 = 0x4e45_5645;
/// Canary rounds per run.
const CANARY_ROUNDS: u64 = 8;

/// Runs the canary rounds and checks their summed cases, coverage,
/// detections and findings (clean-case findings on their own) against
/// the recorded ones, so a change in what the oracles report fails the
/// run even where the per-round checks cannot tell.
fn canary(jobs: usize) -> Result<(), Mismatch> {
    let mut sums = [0usize; 5];
    for k in 0..CANARY_ROUNDS {
        let r = campaign(CANARY_SEED + k, jobs)?;
        let clean = r.findings.iter().filter(|f| f.injected.is_empty()).count();
        let counts = [
            cases_run(&r),
            r.coverage.len(),
            r.injections_detected,
            r.findings.len(),
            clean,
        ];
        for (s, c) in sums.iter_mut().zip(counts) {
            *s += c;
        }
    }
    let names = [
        "cases",
        "coverage_tuples",
        "injections_detected",
        "findings",
        "clean_findings",
    ];
    let got: Vec<(String, f64)> = names
        .iter()
        .zip(sums)
        .map(|(n, v)| (format!("fuzz.canary.{n}"), v as f64))
        .collect();
    check_exact(&got).map_err(|Mismatch(m)| Mismatch(format!("fuzz canary rounds: {m}")))
}

/// The untraced `fuzz` run. It first checks the canary rounds. A set-up
/// is one round of the next seed, like an op; the first set-up's round
/// runs again after the loop and must render the same report.
pub fn run(spec: &RunSpec, jobs: usize) -> Result<Report, Mismatch> {
    canary(jobs)?;
    let k = std::cell::Cell::new(0u64);
    let next = || {
        let r = campaign(round_seed(spec.seed, k.get()), jobs);
        k.set(k.get() + 1);
        r
    };
    let mut cases = 0usize;
    let (first, setup_s, rounds) = measure(
        spec.window(),
        min_samples(90.0),
        || next().map(|r| r.render()),
        |_| {
            cases += cases_run(&next()?);
            Ok(())
        },
    )?;
    let seed0 = round_seed(spec.seed, 0);
    if campaign(seed0, jobs)?.render() != first {
        return Err(Mismatch(format!(
            "fuzz round seed {seed0:#x} rendered differently on a repeat run"
        )));
    }
    let busy_s = rounds.iter().sum::<f64>() / 1e3;
    Ok(end_to_end(
        setup_s,
        cases as f64,
        busy_s,
        &rounds,
        rounds.len() as u64,
        0,
    ))
}

/// A booted single-core NEVE harness machine on the reference
/// interpreter, as the campaign's observed leg builds it.
fn harness() -> Result<Machine, Mismatch> {
    let mut a = Asm::new(PROGRAM_BASE);
    a.i(Instr::Halt(1));
    let hcr = hcr::VM | hcr::IMO | hcr::NV | hcr::NV1 | hcr::NV2;
    let mut m = harness_machine(a.assemble(), ArchLevel::V8_4, hcr, 1);
    install_stage2(&mut m, 0, 7);
    let vncr = neve_core::VncrEl2::enabled_at(VNCR_PAGE)
        .map_err(|e| Mismatch(format!("VNCR page rejected: {e:?}")))?;
    m.hyp_write(0, SysReg::VncrEl2, vncr.raw());
    boot_harness(&mut m, 0);
    m.set_engine(Engine::Interp);
    Ok(m)
}

fn program(instrs: &[Instr]) -> Program {
    let mut a = Asm::new(PROGRAM_BASE);
    for &i in instrs {
        a.i(i);
    }
    a.i(Instr::Halt(1));
    a.assemble()
}

/// Per-layer results of the fuzz probe.
pub struct Probe {
    machine: Machine,
    snap: neve_armv8::machine::MachineSnapshot,
    seed: u64,
    next_case: usize,
    snapshot_ns: Vec<f64>,
    restore_ns: Vec<f64>,
    plain_ns: f64,
    plain_steps: f64,
    checked_ns: f64,
    traced_wall: Vec<f64>,
    untraced_wall: Vec<f64>,
    report: FuzzReport,
}

impl Probe {
    /// Checks the canary round, boots the harness and runs round 0 of
    /// `seed` twice, once inside a span: the two reports must render
    /// identically.
    pub fn new(seed: u64, jobs: usize, tr: &mut Tracer) -> Result<Self, Mismatch> {
        canary(jobs)?;
        let first = round_seed(seed, 0);
        let untraced = campaign(first, jobs)?;
        let sp = tr.begin("fuzz.run_fuzz", "round0", first, Tracer::root());
        let report = campaign(first, jobs)?;
        tr.end(sp);
        if report.render() != untraced.render() {
            return Err(Mismatch(format!(
                "fuzz round seed {first:#x}: traced and untraced reports differ"
            )));
        }
        let mut machine = harness()?;
        let snap = machine.snapshot();
        Ok(Self {
            machine,
            snap,
            seed: first,
            next_case: 0,
            snapshot_ns: Vec::new(),
            restore_ns: Vec::new(),
            plain_ns: 0.0,
            plain_steps: 0.0,
            checked_ns: 0.0,
            traced_wall: Vec::new(),
            untraced_wall: Vec::new(),
            report,
        })
    }

    /// Replays the next `n` cases of the round, each twice: on the bare
    /// interpreter and with the invariant checker attached.
    pub fn pass(&mut self, tr: &mut Tracer, n: usize) {
        let traced = tr.is_on();
        let start = Instant::now();
        for _ in 0..n {
            let i = self.next_case;
            self.next_case += 1;
            let case = case_for_index(self.seed, i);
            let prog = program(&case.instrs);
            let id = i as u64;
            for checked in [false, true] {
                let tag = if checked { "checker" } else { "interp" };
                let t = Instant::now();
                let sp = tr.begin("armv8.restore", tag, id, Tracer::root());
                self.machine.restore(&self.snap);
                tr.end(sp);
                let t_restore = t.elapsed();
                let sp = tr.begin("armv8.snapshot", tag, id, Tracer::root());
                self.snap = self.machine.snapshot();
                tr.end(sp);
                let t_snapshot = t.elapsed() - t_restore;
                self.machine.replace_program(prog.clone());
                if checked {
                    self.machine.attach_checker();
                }
                let steps0 = self.machine.steps_retired();
                let t = Instant::now();
                let sp = tr.begin("armv8.run", tag, id, Tracer::root());
                self.machine.run(&mut EmulHyp::new(), 0, REPLAY_STEPS);
                tr.end(sp);
                let run_ns = t.elapsed().as_nanos() as f64;
                if traced {
                    self.restore_ns.push(t_restore.as_nanos() as f64);
                    self.snapshot_ns.push(t_snapshot.as_nanos() as f64);
                    if checked {
                        self.checked_ns += run_ns;
                    } else {
                        self.plain_ns += run_ns;
                        self.plain_steps += (self.machine.steps_retired() - steps0) as f64;
                    }
                }
            }
        }
        let wall = start.elapsed().as_secs_f64();
        if traced {
            self.traced_wall.push(wall);
        } else {
            self.untraced_wall.push(wall);
        }
    }

    /// Traced wall ÷ untraced wall of the replay passes.
    pub fn overhead_ratio(&self) -> f64 {
        median(&self.traced_wall) / median(&self.untraced_wall)
    }

    /// Every per-layer metric of the probe.
    pub fn metrics(&self, r: &mut Report) {
        r.push("armv8.snapshot_us", median(&self.snapshot_ns) / 1e3, "us");
        r.push("armv8.restore_us", median(&self.restore_ns) / 1e3, "us");
        r.push(
            "armv8.interp_ns_per_step",
            self.plain_ns / self.plain_steps,
            "ns/step",
        );
        r.push(
            "armv8.checker_ns_share",
            (self.checked_ns - self.plain_ns) / self.checked_ns,
            "ratio",
        );
        r.push("fuzz.cases", cases_run(&self.report) as f64, "count");
        r.push(
            "fuzz.coverage_tuples",
            self.report.coverage.len() as f64,
            "count",
        );
        r.push(
            "fuzz.injections_detected",
            self.report.injections_detected as f64,
            "count",
        );
        r.push("fuzz.findings", self.report.findings.len() as f64, "count");
    }
}
