//! Evaluation cells driven below the session layer: the exact work
//! counts of one (configuration, benchmark) cell, and the same cell
//! driven step by step through the hypervisor timing wrapper.

use crate::trace::TimedHyp;
use crate::Mismatch;
use neve_armv8::machine::{Hypervisor, Machine, StepOutcome};
use neve_kvmarm::testbed::DEFAULT_STEP_BUDGET;
use neve_kvmarm::{guests, ArmConfig, MicroBench, ParaMode, TestBed};
use neve_workloads::{Bench, Config};
use neve_x86vt::testbed::{X86Bench, X86Config, X86TestBed};
use std::time::Instant;

/// Every configuration with its CLI alias (the per-layer metric suffix).
pub const CONFIGS: [(Config, &str); 7] = [
    (Config::ArmVm, "vm"),
    (Config::ArmNestedV83, "v83"),
    (Config::ArmNestedV83Vhe, "v83-vhe"),
    (Config::ArmNestedNeve, "neve"),
    (Config::ArmNestedNeveVhe, "neve-vhe"),
    (Config::X86Vm, "x86-vm"),
    (Config::X86Nested, "x86-nested"),
];

/// The CLI alias of `c`.
pub fn alias(c: Config) -> &'static str {
    CONFIGS
        .iter()
        .find(|(k, _)| *k == c)
        .map(|(_, a)| *a)
        .expect("every config has an alias")
}

/// The ARM testbed configuration behind `c` (the session layer's
/// mapping), or `None` for x86.
pub fn arm_config(c: Config) -> Option<ArmConfig> {
    let nested = |guest_vhe, neve| ArmConfig::Nested {
        guest_vhe,
        neve,
        para: ParaMode::None,
    };
    Some(match c {
        Config::ArmVm => ArmConfig::Vm,
        Config::ArmNestedV83 => nested(false, false),
        Config::ArmNestedV83Vhe => nested(true, false),
        Config::ArmNestedNeve => nested(false, true),
        Config::ArmNestedNeveVhe => nested(true, true),
        Config::X86Vm | Config::X86Nested => return None,
    })
}

fn arm_bench(b: Bench) -> MicroBench {
    match b {
        Bench::Hypercall => MicroBench::Hypercall,
        Bench::DeviceIo => MicroBench::DeviceIo,
        Bench::VirtualIpi => MicroBench::VirtualIpi,
        Bench::VirtualEoi => MicroBench::VirtualEoi,
    }
}

fn x86_bench(b: Bench) -> X86Bench {
    match b {
        Bench::Hypercall => X86Bench::Hypercall,
        Bench::DeviceIo => X86Bench::DeviceIo,
        Bench::VirtualIpi => X86Bench::VirtualIpi,
        Bench::VirtualEoi => X86Bench::VirtualEoi,
    }
}

/// Exact, deterministic work counts of one whole cell run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellCounts {
    /// Machine steps retired (warm-up included).
    pub steps: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Traps recorded.
    pub traps: u64,
    /// TLB hits (ARM only).
    pub tlb_hits: u64,
    /// TLB misses (ARM only).
    pub tlb_misses: u64,
    /// NEVE deferred accesses (ARM only).
    pub vncr_deferrals: u64,
}

fn cell_name(c: Config, b: Bench) -> String {
    format!("{}/{}", alias(c), b.label())
}

/// Runs `c`/`b` on a testbed exactly as the session layer does and
/// reads the machine's counters afterwards.
pub fn counts(c: Config, b: Bench) -> Result<CellCounts, Mismatch> {
    let fail = |e: String| Mismatch(format!("cell {} failed: {e}", cell_name(c, b)));
    match arm_config(c) {
        Some(ac) => {
            let mut tb = TestBed::new(ac, arm_bench(b), b.iters());
            tb.try_run_measured(b.iters())
                .map_err(|f| fail(f.to_string()))?;
            let (tlb_hits, tlb_misses, _) = tb.m.tlb.stats();
            Ok(CellCounts {
                steps: tb.m.steps_retired(),
                cycles: tb.m.counter.cycles(),
                traps: tb.m.counter.traps_total(),
                tlb_hits,
                tlb_misses,
                vncr_deferrals: tb.m.vncr_deferrals(),
            })
        }
        None => {
            let xc = match c {
                Config::X86Vm => X86Config::Vm,
                _ => X86Config::Nested { shadowing: true },
            };
            let mut tb = X86TestBed::new(xc, x86_bench(b), b.iters());
            tb.try_run_measured(b.iters())
                .map_err(|f| fail(f.to_string()))?;
            Ok(CellCounts {
                steps: tb.m.steps_retired(),
                cycles: tb.m.counter.cycles(),
                traps: tb.m.counter.traps_total(),
                ..CellCounts::default()
            })
        }
    }
}

/// One single-CPU ARM cell driven through `Machine::step`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Driven {
    /// Steps retired.
    pub steps: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Hypervisor calls (0 when driven without the wrapper).
    pub exits: u64,
    /// Host ns inside the hypervisor (0 without the wrapper).
    pub hyp_ns: u64,
    /// Host ns of the whole step loop.
    pub loop_ns: u64,
}

/// The single-CPU benchmarks a cell can be driven step by step on (the
/// IPI benchmark interleaves two CPUs in the testbed's own loop).
pub fn single_cpu(b: Bench) -> bool {
    b != Bench::VirtualIpi
}

/// Drives ARM cell `c`/`b` to its halt through `Machine::step`, with
/// the hypervisor behind the timing wrapper when `timed`.
pub fn drive(c: Config, b: Bench, timed: bool) -> Result<Driven, Mismatch> {
    let ac = arm_config(c).expect("driven cells are ARM cells");
    assert!(single_cpu(b), "driven cells are single-CPU cells");
    let mut tb = TestBed::new(ac, arm_bench(b), b.iters());
    tb.m.refresh_cost_table();
    let start = Instant::now();
    let (exits, hyp_ns) = if timed {
        let mut timer = TimedHyp::new(&mut tb.hyp);
        run_to_halt(&mut tb.m, &mut timer, c, b)?;
        (timer.exits, timer.ns)
    } else {
        run_to_halt(&mut tb.m, &mut tb.hyp, c, b)?;
        (0, 0)
    };
    let loop_ns = start.elapsed().as_nanos() as u64;
    Ok(Driven {
        steps: tb.m.steps_retired(),
        cycles: tb.m.counter.cycles(),
        exits,
        hyp_ns,
        loop_ns,
    })
}

fn run_to_halt(
    m: &mut Machine,
    hyp: &mut dyn Hypervisor,
    c: Config,
    b: Bench,
) -> Result<(), Mismatch> {
    for steps in 1..=DEFAULT_STEP_BUDGET {
        match m.step(hyp, 0) {
            StepOutcome::Executed => {}
            StepOutcome::Halted(code) if code == guests::DONE => return Ok(()),
            other => {
                return Err(Mismatch(format!(
                    "cell {} stopped early: {other:?} after {steps} steps",
                    cell_name(c, b)
                )))
            }
        }
    }
    Err(Mismatch(format!(
        "cell {} exceeded its step budget",
        cell_name(c, b)
    )))
}
