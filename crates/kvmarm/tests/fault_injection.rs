//! Property-based robustness of the fault-injection harness: any
//! seeded [`FaultPlan`] under any step budget always terminates — a
//! clean measurement or a structured [`SimFault`], never a panic and
//! never an unbounded loop.

use neve_armv8::FaultPlan;
use neve_cycles::FaultCause;
use neve_kvmarm::{ArmConfig, MicroBench, ParaMode, TestBed};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary injection schedules against the nested v8.3 hypercall
    /// cell: the run loop must end in `Ok` or `Err(SimFault)` within
    /// the budget, and the watchdog itself must never panic.
    #[test]
    fn any_fault_plan_terminates_within_its_budget(
        seed in 0u64..1_000_000,
        count in 0usize..12,
        budget in 10_000u64..200_000,
    ) {
        let plan = FaultPlan::seeded(seed, count, 50_000);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut tb = TestBed::new(
                ArmConfig::Nested {
                    guest_vhe: false,
                    neve: false,
                    para: ParaMode::None,
                },
                MicroBench::Hypercall,
                3,
            );
            tb.set_step_budget(budget);
            tb.attach_fault_plan(plan);
            tb.try_run_measured(3)
        }));
        // Ok(Ok) and Ok(Err(fault)) are both acceptable terminations;
        // an unwinding panic is the one forbidden outcome.
        prop_assert!(outcome.is_ok(), "fault-injected run panicked");
        if let Ok(Err(fault)) = outcome {
            // The diagnostic snapshot must be coherent: the fault fired
            // at or under the budget (strictly above only for the
            // budget fault itself, which reports exactly the limit).
            prop_assert!(fault.steps <= budget, "{fault}");
        }
    }

    /// The same plan and budget twice: bit-identical outcomes, whether
    /// the run completes or faults (replayability of injected runs).
    #[test]
    fn injected_runs_replay_bit_identically(
        seed in 0u64..1_000_000,
    ) {
        let run = || {
            let mut tb = TestBed::new(
                ArmConfig::Nested {
                    guest_vhe: false,
                    neve: true,
                    para: ParaMode::None,
                },
                MicroBench::Hypercall,
                3,
            );
            tb.set_step_budget(100_000);
            tb.attach_fault_plan(FaultPlan::seeded(seed, 4, 50_000));
            tb.try_run_measured(3)
        };
        prop_assert_eq!(run(), run());
    }
}

/// The step budget bounds every retired step on every core: the IPI
/// receiver's burst steps count too, so a stalled two-CPU cell stops
/// at its budget instead of retiring up to five times that.
#[test]
fn ipi_budget_counts_receiver_steps() {
    let budget = 5_000;
    let mut tb = TestBed::new(
        ArmConfig::Nested {
            guest_vhe: false,
            neve: true,
            para: ParaMode::None,
        },
        MicroBench::VirtualIpi,
        8,
    );
    tb.set_step_budget(budget);
    let fault = tb
        .try_run_measured(8)
        .expect_err("budget too small to finish");
    assert_eq!(fault.cause, FaultCause::StepBudgetExhausted { budget });
    assert!(
        tb.m.steps_retired() <= budget,
        "retired {} steps under a budget of {budget}",
        tb.m.steps_retired()
    );
}
