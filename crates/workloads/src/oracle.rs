//! The `neve-oracle` correctness layer: the paper's semantic identities
//! turned into executable bug detectors (`neve check`).
//!
//! NEVE (paper Section 4) is *semantics-preserving by construction*: it
//! changes how virtual-EL2 system-register accesses are serviced
//! (deferred to the VNCR page instead of trapped), never what they mean.
//! That design claim makes three families of cross-configuration checks
//! well-defined, and this module enforces all of them:
//!
//! 1. **Differential state oracle** ([`diff_pair`]): run the same
//!    workload under ARMv8.3-NV and NEVE in lockstep and demand
//!    bit-identical architectural state — every retired step (pc, EL,
//!    general-purpose registers) and the final machine (EL1 system
//!    registers, guest-visible memory, pending/active GIC state). The
//!    first divergence is reported with its step count, world-switch
//!    phase, and the register or address that split.
//! 2. **Trap-count algebra** ([`trap_algebra`], plus the per-pair
//!    deferral identity inside [`diff_pair`]): NEVE never traps more
//!    than ARMv8.3 on any cell; Virtual EOI takes zero traps on every
//!    ARM configuration (Table 7's bottom row); and every v8.3 trap on
//!    a VNCR-redirectable register is accounted for under NEVE as
//!    either a deferred access or a residual trap —
//!    `v8.3 deferrable traps == NEVE deferrals + NEVE residual traps`.
//! 3. **Golden-table diff** ([`golden_diff`]): the regenerated Tables
//!    6/7 must match EXPERIMENTS.md's recorded values within the
//!    declared tolerance bands (cycles ±2%, trap counts exact).
//! 4. **Cross-engine lockstep** ([`engine_lockstep`]): the pre-decoded
//!    micro-op engine and the reference interpreter, stepped on
//!    identical stacks, must agree on every step outcome, every
//!    retired core state, the final machine, and the cycle counters —
//!    the decode-once IR is an optimization, never a semantic change.
//!
//! Both lockstep machines also run with the [`neve_armv8::Checker`]
//! attached, so the architectural step invariants (EL-transition
//! legality, VNCR write discipline, Stage-2 structure, TLB coherence)
//! are enforced along the way, and the shadow Stage-2 tables are
//! verified against the guest-S2 ∘ host-S2 composition at the end.

use crate::platforms::{Config, MicroMatrix};
use crate::tables;
use neve_armv8::Engine;
use neve_kvmarm::testbed::IPI_RECEIVER_BURST;
use neve_kvmarm::{layout, rosters, ArmConfig, MicroBench, ParaMode, TestBed};
use std::fmt;

/// Lockstep watchdog: no microbenchmark cell in the oracle grid takes
/// anywhere near this many steps.
const LOCKSTEP_BUDGET: u64 = 8_000_000;

/// Guest-visible physical memory compared by the state oracle: guest
/// hypervisor image + save areas, nested kernel, and both payloads.
/// Deliberately *below* the host-owned regions (Stage-2 frame pools,
/// VNCR pages): ARMv8.3 stages EL1 context in host-side structures
/// while NEVE stages it in the VNCR page, so host bookkeeping memory
/// legitimately differs between semantically identical runs.
const GUEST_MEM: std::ops::Range<u64> = layout::GUEST_HYP_BASE..layout::GUEST_S2_FRAMES;

/// GIC interrupt IDs covered by the final-state comparison (SGIs, PPIs
/// and the SPI range the workloads use).
const GIC_INTIDS: u32 = 256;

/// A point where the two configurations stopped agreeing.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Machine step count at which the divergence was observed.
    pub step: u64,
    /// World-switch phase the reference (v8.3) machine was in.
    pub phase: &'static str,
    /// CPU the divergence was observed on.
    pub cpu: usize,
    /// The register or address that split, with both values.
    pub what: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "diverged at step {} (phase {}, cpu{}): {}",
            self.step, self.phase, self.cpu, self.what
        )
    }
}

/// The outcome of one lockstep v8.3-vs-NEVE run.
#[derive(Debug, Clone)]
pub struct PairReport {
    /// VHE guest hypervisor in both stacks.
    pub guest_vhe: bool,
    /// Benchmark name.
    pub bench: &'static str,
    /// Steps both machines retired.
    pub steps: u64,
    /// v8.3 traps on VNCR-redirectable registers.
    pub v83_deferrable_traps: u64,
    /// NEVE accesses serviced by the deferred page.
    pub neve_deferrals: u64,
    /// NEVE traps on VNCR-redirectable registers (residual traps the
    /// redirect did not absorb, e.g. while NV2 was momentarily off).
    pub neve_residual_traps: u64,
    /// Everything that went wrong; empty means the pair passed.
    pub violations: Vec<String>,
}

impl PairReport {
    /// Human label for one oracle cell.
    pub fn label(&self) -> String {
        format!(
            "{} ({})",
            self.bench,
            if self.guest_vhe { "VHE" } else { "non-VHE" }
        )
    }
}

fn bench_name(b: MicroBench) -> &'static str {
    match b {
        MicroBench::Hypercall => "hypercall",
        MicroBench::DeviceIo => "device_io",
        MicroBench::VirtualIpi => "virtual_ipi",
        MicroBench::VirtualEoi => "virtual_eoi",
        MicroBench::Mixed { .. } => "mixed",
        MicroBench::Idle => "idle",
    }
}

/// Human labels for the two sides of a lockstep comparison:
/// `("v8.3", "NEVE")` for the cross-configuration oracle,
/// `("uop", "interp")` for the cross-engine one.
type Sides = (&'static str, &'static str);

/// Compares per-step architectural core state. Cheap on purpose: it
/// runs after every lockstep round.
fn compare_cores(a: &TestBed, b: &TestBed, ncpus: usize, (la, lb): Sides) -> Option<Divergence> {
    let step = a.m.steps_retired();
    let phase = a.m.counter.phase().label();
    for cpu in 0..ncpus {
        let (ca, cb) = (a.m.core(cpu), b.m.core(cpu));
        if ca.pc != cb.pc {
            return Some(Divergence {
                step,
                phase,
                cpu,
                what: format!("pc {:#x} ({la}) vs {:#x} ({lb})", ca.pc, cb.pc),
            });
        }
        if ca.pstate.el != cb.pstate.el {
            return Some(Divergence {
                step,
                phase,
                cpu,
                what: format!("EL {} ({la}) vs {} ({lb})", ca.pstate.el, cb.pstate.el),
            });
        }
        for r in 0..31u8 {
            let (va, vb) = (ca.gpr(r), cb.gpr(r));
            if va != vb {
                return Some(Divergence {
                    step,
                    phase,
                    cpu,
                    what: format!("x{r} {va:#x} ({la}) vs {vb:#x} ({lb})"),
                });
            }
        }
    }
    None
}

/// Compares final guest-visible machine state: EL1 system registers,
/// guest memory, and pending/active GIC state.
fn compare_final(a: &TestBed, b: &TestBed, ncpus: usize, (la, lb): Sides) -> Option<Divergence> {
    let step = a.m.steps_retired();
    let phase = a.m.counter.phase().label();
    for cpu in 0..ncpus {
        for &reg in rosters::el1_context() {
            let (va, vb) = (a.m.core(cpu).regs.read(reg), b.m.core(cpu).regs.read(reg));
            if va != vb {
                return Some(Divergence {
                    step,
                    phase,
                    cpu,
                    what: format!("{reg:?} {va:#x} ({la}) vs {vb:#x} ({lb})"),
                });
            }
        }
        for intid in 0..GIC_INTIDS {
            let (pa, pb) = (
                a.m.gic.dist.is_pending(cpu, intid),
                b.m.gic.dist.is_pending(cpu, intid),
            );
            if pa != pb {
                return Some(Divergence {
                    step,
                    phase,
                    cpu,
                    what: format!("intid {intid} pending {pa} ({la}) vs {pb} ({lb})"),
                });
            }
            let (aa, ab) = (
                a.m.gic.dist.is_active(cpu, intid),
                b.m.gic.dist.is_active(cpu, intid),
            );
            if aa != ab {
                return Some(Divergence {
                    step,
                    phase,
                    cpu,
                    what: format!("intid {intid} active {aa} ({la}) vs {ab} ({lb})"),
                });
            }
        }
    }
    let mut addr = GUEST_MEM.start;
    while addr < GUEST_MEM.end {
        let (wa, wb) = (a.m.mem.read_u64(addr), b.m.mem.read_u64(addr));
        if wa != wb {
            return Some(Divergence {
                step,
                phase,
                cpu: 0,
                what: format!("guest memory at {addr:#x}: {wa:#x} ({la}) vs {wb:#x} ({lb})"),
            });
        }
        addr += 8;
    }
    None
}

/// Runs `bench` under ARMv8.3-NV and NEVE in lockstep (same guest
/// hypervisor flavour, same payloads, same interleave) with the step
/// checker attached to both machines, and reports every way the two
/// runs disagreed — plus the deferral accounting identity.
pub fn diff_pair(guest_vhe: bool, bench: MicroBench, iters: u64) -> PairReport {
    let cfg = |neve| ArmConfig::Nested {
        guest_vhe,
        neve,
        para: ParaMode::None,
    };
    let mut v83 = TestBed::new(cfg(false), bench, iters);
    let mut neve = TestBed::new(cfg(true), bench, iters);
    v83.m.attach_checker();
    neve.m.attach_checker();
    let ncpus = bench.ncpus();

    let mut violations = Vec::new();
    let mut steps = 0u64;
    loop {
        use neve_armv8::machine::StepOutcome as O;
        let oa = v83.m.step(&mut v83.hyp, 0);
        let ob = neve.m.step(&mut neve.hyp, 0);
        if ncpus > 1 {
            // Mirror the measured IPI interleave: the receiver gets a
            // burst of steps per sender step.
            for _ in 0..IPI_RECEIVER_BURST {
                let ra = v83.m.step(&mut v83.hyp, 1);
                let rb = neve.m.step(&mut neve.hyp, 1);
                if ra != rb {
                    violations.push(format!(
                        "diverged at step {steps}: receiver outcome {ra:?} (v8.3) vs {rb:?} (NEVE)"
                    ));
                }
            }
        }
        steps += 1;
        if oa != ob {
            violations.push(format!(
                "diverged at step {steps}: outcome {oa:?} (v8.3) vs {ob:?} (NEVE)"
            ));
        }
        if let Some(d) = compare_cores(&v83, &neve, ncpus, ("v8.3", "NEVE")) {
            violations.push(d.to_string());
        }
        if !violations.is_empty() {
            // Lockstep comparison past the first divergence only
            // compounds noise; stop at the first structured report.
            break;
        }
        match oa {
            O::Executed | O::Wfi => {}
            O::Halted(_) | O::FetchFailure(_) => break,
        }
        if steps >= LOCKSTEP_BUDGET {
            violations.push(format!("lockstep budget exhausted after {steps} steps"));
            break;
        }
    }

    if violations.is_empty() {
        if let Some(d) = compare_final(&v83, &neve, ncpus, ("v8.3", "NEVE")) {
            violations.push(d.to_string());
        }
        for d in v83.hyp.verify_shadow_composition(&v83.m) {
            violations.push(format!("v8.3 shadow composition: {d}"));
        }
        for d in neve.hyp.verify_shadow_composition(&neve.m) {
            violations.push(format!("NEVE shadow composition: {d}"));
        }
    }
    for (name, tb) in [("v8.3", &v83), ("NEVE", &neve)] {
        if let Some(c) = tb.m.checker() {
            for v in c.violations() {
                violations.push(format!("{name} invariant: {v}"));
            }
        }
    }

    // The paper's accounting identity: every trap ARMv8.3 takes on a
    // VNCR-redirectable register shows up under NEVE as a deferred
    // access or a residual trap — none created, none lost.
    let v83_deferrable = v83.m.deferrable_sysreg_traps();
    let deferrals = neve.m.vncr_deferrals();
    let residual = neve.m.deferrable_sysreg_traps();
    if v83_deferrable != deferrals + residual {
        violations.push(format!(
            "deferral identity broken: v8.3 took {v83_deferrable} deferrable traps but NEVE \
             accounts {deferrals} deferrals + {residual} residual traps"
        ));
    }
    PairReport {
        guest_vhe,
        bench: bench_name(bench),
        steps,
        v83_deferrable_traps: v83_deferrable,
        neve_deferrals: deferrals,
        neve_residual_traps: residual,
        violations,
    }
}

/// Runs `bench` on two identical stacks, one stepping through the
/// pre-decoded micro-op engine and one through the reference
/// interpreter, in lockstep, and demands bit-identical behaviour:
/// every step outcome, the per-step core state, the final
/// guest-visible machine state, and the retired-step and cycle
/// counters. This is the executable form of the decode-once IR's
/// correctness claim — compilation to micro-ops changes how fast the
/// host retires steps, never what a step does.
///
/// Neither machine gets a checker attached: attaching one would force
/// the interpreter on both sides (see
/// [`neve_armv8::Machine::active_engine`]) and the comparison would be
/// vacuous. [`diff_pair`] covers the checker-instrumented runs.
pub fn engine_lockstep(guest_vhe: bool, neve: bool, bench: MicroBench, iters: u64) -> Vec<String> {
    let cfg = ArmConfig::Nested {
        guest_vhe,
        neve,
        para: ParaMode::None,
    };
    let mut fast = TestBed::new(cfg, bench, iters);
    let mut oracle = TestBed::new(cfg, bench, iters);
    fast.m.set_engine(Engine::Uop);
    oracle.m.set_engine(Engine::Interp);
    assert_eq!(fast.m.active_engine(), Engine::Uop);
    assert_eq!(oracle.m.active_engine(), Engine::Interp);
    let ncpus = bench.ncpus();

    let mut violations = Vec::new();
    let mut steps = 0u64;
    loop {
        use neve_armv8::machine::StepOutcome as O;
        let oa = fast.m.step(&mut fast.hyp, 0);
        let ob = oracle.m.step(&mut oracle.hyp, 0);
        if ncpus > 1 {
            for _ in 0..IPI_RECEIVER_BURST {
                let ra = fast.m.step(&mut fast.hyp, 1);
                let rb = oracle.m.step(&mut oracle.hyp, 1);
                if ra != rb {
                    violations.push(format!(
                        "diverged at step {steps}: receiver outcome {ra:?} (uop) vs {rb:?} (interp)"
                    ));
                }
            }
        }
        steps += 1;
        if oa != ob {
            violations.push(format!(
                "diverged at step {steps}: outcome {oa:?} (uop) vs {ob:?} (interp)"
            ));
        }
        if let Some(d) = compare_cores(&fast, &oracle, ncpus, ("uop", "interp")) {
            violations.push(d.to_string());
        }
        if !violations.is_empty() {
            break;
        }
        match oa {
            O::Executed | O::Wfi => {}
            O::Halted(_) | O::FetchFailure(_) => break,
        }
        if steps >= LOCKSTEP_BUDGET {
            violations.push(format!("lockstep budget exhausted after {steps} steps"));
            break;
        }
    }

    if violations.is_empty() {
        if let Some(d) = compare_final(&fast, &oracle, ncpus, ("uop", "interp")) {
            violations.push(d.to_string());
        }
        let (sa, sb) = (fast.m.steps_retired(), oracle.m.steps_retired());
        if sa != sb {
            violations.push(format!(
                "retired steps diverged: {sa} (uop) vs {sb} (interp)"
            ));
        }
        let (ca, cb) = (fast.m.counter.cycles(), oracle.m.counter.cycles());
        if ca != cb {
            violations.push(format!(
                "cycle counters diverged: {ca} (uop) vs {cb} (interp) — \
                 a baked micro-op cost disagrees with the cost table"
            ));
        }
    }
    violations
}

/// Matrix-level trap-count identities from the paper: NEVE never traps
/// (or spends) more than ARMv8.3 on any nested cell, and Virtual EOI
/// takes zero traps on every ARM configuration.
pub fn trap_algebra(m: &MicroMatrix) -> Vec<String> {
    let mut bad = Vec::new();
    let pairs = [
        (Config::ArmNestedV83, Config::ArmNestedNeve),
        (Config::ArmNestedV83Vhe, Config::ArmNestedNeveVhe),
    ];
    for (v83, neve) in pairs {
        let (a, b) = (m.costs(v83), m.costs(neve));
        for (bench, pa, pb) in [
            ("hypercall", a.hypercall, b.hypercall),
            ("device_io", a.device_io, b.device_io),
            ("virtual_ipi", a.virtual_ipi, b.virtual_ipi),
            ("virtual_eoi", a.virtual_eoi, b.virtual_eoi),
        ] {
            if pb.traps > pa.traps {
                bad.push(format!(
                    "{bench}: NEVE ({}) takes more traps than v8.3 ({}): {} vs {}",
                    neve.label(),
                    v83.label(),
                    pb.traps,
                    pa.traps
                ));
            }
            if pb.cycles > pa.cycles {
                bad.push(format!(
                    "{bench}: NEVE ({}) costs more cycles than v8.3 ({}): {} vs {}",
                    neve.label(),
                    v83.label(),
                    pb.cycles,
                    pa.cycles
                ));
            }
        }
    }
    for c in Config::all() {
        if c.is_x86() {
            continue;
        }
        let eoi = m.costs(c).virtual_eoi;
        if eoi.traps != 0.0 {
            bad.push(format!(
                "virtual_eoi on {} must take zero traps, took {}",
                c.label(),
                eoi.traps
            ));
        }
    }
    bad
}

/// EXPERIMENTS.md Table 6 golden values ("ours" column), cycles per
/// operation; columns v8.3, v8.3-VHE, NEVE, NEVE-VHE, x86-nested.
const GOLDEN_T6: [(&str, [u64; 5]); 4] = [
    ("Hypercall", [361_337, 245_735, 60_973, 59_666, 31_882]),
    ("Device I/O", [361_848, 246_246, 61_484, 60_177, 32_286]),
    ("Virtual IPI", [727_913, 496_484, 130_452, 127_613, 64_884]),
    ("Virtual EOI", [69, 69, 69, 69, 293]),
];

/// EXPERIMENTS.md Table 7 golden values ("ours"), traps per operation.
const GOLDEN_T7: [(&str, [u64; 5]); 4] = [
    ("Hypercall", [107, 73, 15, 16, 5]),
    ("Device I/O", [107, 73, 15, 16, 5]),
    ("Virtual IPI", [215, 147, 32, 34, 11]),
    ("Virtual EOI", [0, 0, 0, 0, 0]),
];

/// Declared tolerance band for cycle counts (EXPERIMENTS.md): the cost
/// model is deterministic, so the band only absorbs deliberate
/// re-calibrations small enough not to change any claim.
const CYCLE_TOLERANCE: f64 = 0.02;

fn within_band(measured: u64, golden: u64) -> bool {
    let slack = (golden as f64 * CYCLE_TOLERANCE).ceil() as i64;
    (measured as i64 - golden as i64).abs() <= slack
}

/// Diffs the regenerated Tables 6 and 7 against the EXPERIMENTS.md
/// golden values: cycles within ±2%, trap counts exact. A failed cell
/// is itself a violation — goldens cannot be checked against
/// placeholders.
pub fn golden_diff(m: &MicroMatrix) -> Vec<String> {
    let mut bad = Vec::new();
    for (rows, golden, traps) in [
        (tables::table6(m), &GOLDEN_T6, false),
        (tables::table7(m), &GOLDEN_T7, true),
    ] {
        let table = if traps { "Table 7" } else { "Table 6" };
        for (row, (bench, want)) in rows.iter().zip(golden.iter()) {
            debug_assert_eq!(row.bench, *bench);
            for (cell, &g) in row.cells.iter().zip(want.iter()) {
                if cell.failed {
                    bad.push(format!(
                        "{table} {bench} / {}: cell failed to measure",
                        cell.config.label()
                    ));
                    continue;
                }
                let ok = if traps {
                    cell.value == g
                } else {
                    within_band(cell.value, g)
                };
                if !ok {
                    bad.push(format!(
                        "{table} {bench} / {}: measured {} vs golden {} ({})",
                        cell.config.label(),
                        cell.value,
                        g,
                        if traps {
                            "trap counts are exact".to_string()
                        } else {
                            format!("band ±{:.0}%", CYCLE_TOLERANCE * 100.0)
                        }
                    ));
                }
            }
        }
    }
    bad
}

/// One named check's outcome.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Check name (stable, kebab-case).
    pub name: String,
    /// Violations; empty means the check passed.
    pub violations: Vec<String>,
}

/// The full oracle report the `neve check` command renders.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Every check that ran, in order.
    pub checks: Vec<CheckResult>,
}

impl OracleReport {
    /// True when every check passed.
    pub fn is_clean(&self) -> bool {
        self.checks.iter().all(|c| c.violations.is_empty())
    }

    /// Total violations across all checks.
    pub fn violation_count(&self) -> usize {
        self.checks.iter().map(|c| c.violations.len()).sum()
    }

    /// Text rendering: one line per check, violations indented.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            if c.violations.is_empty() {
                out.push_str(&format!("ok   {}\n", c.name));
            } else {
                out.push_str(&format!("FAIL {}\n", c.name));
                for v in &c.violations {
                    out.push_str(&format!("     {v}\n"));
                }
            }
        }
        out
    }
}

/// Runs the oracle suite over a measured matrix. `smoke` restricts the
/// differential grid to one representative pair (the CI gate); the full
/// run covers both guest-hypervisor flavours across all four
/// microbenchmarks.
pub fn run_checks(m: &MicroMatrix, smoke: bool) -> OracleReport {
    let mut checks = vec![
        CheckResult {
            name: "trap-algebra".into(),
            violations: trap_algebra(m),
        },
        CheckResult {
            name: "golden-tables".into(),
            violations: golden_diff(m),
        },
    ];
    let grid: Vec<(bool, MicroBench, u64)> = if smoke {
        vec![(false, MicroBench::Hypercall, 4)]
    } else {
        let mut g = Vec::new();
        for vhe in [false, true] {
            g.push((vhe, MicroBench::Hypercall, 6));
            g.push((vhe, MicroBench::DeviceIo, 6));
            g.push((vhe, MicroBench::VirtualIpi, 4));
            g.push((vhe, MicroBench::VirtualEoi, 6));
        }
        g
    };
    for (vhe, bench, iters) in grid {
        let pair = diff_pair(vhe, bench, iters);
        checks.push(CheckResult {
            name: format!("differential {}", pair.label()),
            violations: pair.violations.clone(),
        });
    }
    // Cross-engine lockstep: micro-op IR vs reference interpreter on
    // the same configuration. (vhe, neve, bench, iters) tuples.
    let engine_grid: Vec<(bool, bool, MicroBench, u64)> = if smoke {
        vec![
            (false, false, MicroBench::Hypercall, 4),
            (false, true, MicroBench::Hypercall, 4),
        ]
    } else {
        let mut g = Vec::new();
        for vhe in [false, true] {
            for neve in [false, true] {
                g.push((vhe, neve, MicroBench::Hypercall, 6));
            }
        }
        g.push((false, false, MicroBench::VirtualIpi, 3));
        g.push((false, true, MicroBench::VirtualEoi, 6));
        g
    };
    for (vhe, neve, bench, iters) in engine_grid {
        checks.push(CheckResult {
            name: format!(
                "engine-lockstep {} ({}, {})",
                bench_name(bench),
                if neve { "NEVE" } else { "v8.3" },
                if vhe { "VHE" } else { "non-VHE" }
            ),
            violations: engine_lockstep(vhe, neve, bench, iters),
        });
    }
    OracleReport { checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::MicroCosts;
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    fn matrix() -> &'static MicroMatrix {
        static M: OnceLock<MicroMatrix> = OnceLock::new();
        M.get_or_init(MicroMatrix::measure)
    }

    #[test]
    fn hypercall_pair_is_bit_identical_and_balanced() {
        let r = diff_pair(false, MicroBench::Hypercall, 4);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
        assert!(r.steps > 1_000, "suspiciously short run: {}", r.steps);
        // NEVE actually deferred something, and the identity is not
        // trivially 0 == 0 + 0.
        assert!(r.neve_deferrals > 0);
        assert_eq!(
            r.v83_deferrable_traps,
            r.neve_deferrals + r.neve_residual_traps
        );
    }

    #[test]
    fn vhe_eoi_pair_is_identical_and_balanced() {
        let r = diff_pair(true, MicroBench::VirtualEoi, 4);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
        // The measured region is trap-free (Table 7's bottom row; see
        // trap_algebra); the whole-run counters still obey the
        // deferral identity through the setup world switch.
        assert_eq!(
            r.v83_deferrable_traps,
            r.neve_deferrals + r.neve_residual_traps
        );
    }

    #[test]
    fn ipi_pair_runs_both_cpus_in_lockstep() {
        let r = diff_pair(false, MicroBench::VirtualIpi, 3);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
    }

    #[test]
    fn engine_lockstep_is_clean_on_v83_and_neve() {
        for neve in [false, true] {
            let v = engine_lockstep(false, neve, MicroBench::Hypercall, 4);
            assert!(v.is_empty(), "neve={neve}: {v:#?}");
        }
    }

    #[test]
    fn engine_lockstep_covers_multi_cpu_benches() {
        let v = engine_lockstep(false, true, MicroBench::VirtualIpi, 3);
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn trap_algebra_holds_on_the_measured_matrix() {
        assert_eq!(trap_algebra(matrix()), Vec::<String>::new());
    }

    #[test]
    fn trap_algebra_catches_an_inverted_cell() {
        let mut results = BTreeMap::new();
        for c in Config::all() {
            results.insert(c, matrix().costs(c));
        }
        let mut c: MicroCosts = results[&Config::ArmNestedNeve];
        // A NEVE that traps more than v8.3 violates the paper's claim.
        c.hypercall.traps = results[&Config::ArmNestedV83].hypercall.traps + 1.0;
        results.insert(Config::ArmNestedNeve, c);
        let bad = trap_algebra(&MicroMatrix::from_results(results));
        assert!(
            bad.iter().any(|v| v.contains("more traps than v8.3")),
            "{bad:?}"
        );
    }

    #[test]
    fn golden_diff_accepts_the_measured_matrix() {
        assert_eq!(golden_diff(matrix()), Vec::<String>::new());
    }

    #[test]
    fn golden_diff_catches_drift_beyond_the_band() {
        let mut results = BTreeMap::new();
        for c in Config::all() {
            results.insert(c, matrix().costs(c));
        }
        let mut c: MicroCosts = results[&Config::ArmNestedNeve];
        c.hypercall.cycles = (c.hypercall.cycles as f64 * 1.05) as u64;
        results.insert(Config::ArmNestedNeve, c);
        let bad = golden_diff(&MicroMatrix::from_results(results));
        assert!(bad.iter().any(|v| v.contains("Table 6")), "{bad:?}");
        // Trap drift of even one trap is out of band.
        let mut results2 = BTreeMap::new();
        for c in Config::all() {
            results2.insert(c, matrix().costs(c));
        }
        let mut c2: MicroCosts = results2[&Config::ArmNestedV83];
        c2.device_io.traps += 1.0;
        results2.insert(Config::ArmNestedV83, c2);
        let bad2 = golden_diff(&MicroMatrix::from_results(results2));
        assert!(bad2.iter().any(|v| v.contains("Table 7")), "{bad2:?}");
    }

    #[test]
    fn report_renders_pass_and_fail_lines() {
        let rep = OracleReport {
            checks: vec![
                CheckResult {
                    name: "good".into(),
                    violations: vec![],
                },
                CheckResult {
                    name: "bad".into(),
                    violations: vec!["broke".into()],
                },
            ],
        };
        assert!(!rep.is_clean());
        assert_eq!(rep.violation_count(), 1);
        let s = rep.render();
        assert!(s.contains("ok   good"));
        assert!(s.contains("FAIL bad"));
        assert!(s.contains("broke"));
    }
}
