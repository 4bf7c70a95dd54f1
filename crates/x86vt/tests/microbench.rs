//! End-to-end x86 microbenchmarks (Tables 1/6 x86 columns).

use neve_x86vt::testbed::{X86Bench, X86Config, X86TestBed};

fn run(cfg: X86Config, bench: X86Bench, iters: u64) -> neve_cycles::counter::PerOp {
    let mut tb = X86TestBed::new(cfg, bench, iters);
    tb.run(iters)
}

#[test]
fn vm_hypercall_is_one_exit_around_a_thousand_cycles() {
    // Paper Table 1: 1,188 cycles, 1 exit.
    let p = run(X86Config::Vm, X86Bench::Hypercall, 50);
    assert!((1.0 - p.traps).abs() < 0.05, "traps {}", p.traps);
    assert!((800..2_000).contains(&p.cycles), "cycles {}", p.cycles);
}

#[test]
fn nested_hypercall_is_a_handful_of_exits() {
    // Paper Table 7: 5 exits per nested hypercall with shadowing.
    let p = run(
        X86Config::Nested { shadowing: true },
        X86Bench::Hypercall,
        50,
    );
    assert!((4.0..7.0).contains(&p.traps), "traps {}", p.traps);
    // Paper Table 1: 36,345 cycles (31x the VM's).
    let vm = run(X86Config::Vm, X86Bench::Hypercall, 50);
    let ratio = p.cycles as f64 / vm.cycles as f64;
    assert!((10.0..60.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn shadowing_off_multiplies_exits() {
    let on = run(
        X86Config::Nested { shadowing: true },
        X86Bench::Hypercall,
        30,
    );
    let off = run(
        X86Config::Nested { shadowing: false },
        X86Bench::Hypercall,
        30,
    );
    assert!(off.traps > 2.0 * on.traps, "{} vs {}", off.traps, on.traps);
    assert!(off.cycles > on.cycles);
}

#[test]
fn device_io_exceeds_hypercall() {
    for cfg in [X86Config::Vm, X86Config::Nested { shadowing: true }] {
        let h = run(cfg, X86Bench::Hypercall, 30);
        let d = run(cfg, X86Bench::DeviceIo, 30);
        assert!(d.cycles > h.cycles, "{cfg:?}: {} <= {}", d.cycles, h.cycles);
    }
}

#[test]
fn virtual_eoi_is_exit_free_and_more_expensive_than_arm() {
    // Paper Tables 1/6: 316 cycles, identical for VM and nested.
    let vm = run(X86Config::Vm, X86Bench::VirtualEoi, 30);
    let nested = run(
        X86Config::Nested { shadowing: true },
        X86Bench::VirtualEoi,
        30,
    );
    assert_eq!(vm.traps, 0.0);
    assert_eq!(nested.traps, 0.0);
    assert_eq!(vm.cycles, nested.cycles);
    assert!((200..500).contains(&vm.cycles), "{}", vm.cycles);
}

#[test]
fn virtual_ipi_works_at_both_levels() {
    let vm = run(X86Config::Vm, X86Bench::VirtualIpi, 15);
    assert!(vm.traps >= 2.0, "sender + receiver exits: {}", vm.traps);
    let nested = run(
        X86Config::Nested { shadowing: true },
        X86Bench::VirtualIpi,
        10,
    );
    assert!(nested.cycles > vm.cycles);
    assert!(nested.traps > vm.traps);
}

#[test]
fn ipi_budget_counts_receiver_steps() {
    // The receiver's burst steps count against the budget too, so a
    // two-CPU cell stops at its budget, not at five times it.
    let budget = 2_000;
    let mut tb = X86TestBed::new(
        X86Config::Nested { shadowing: true },
        X86Bench::VirtualIpi,
        8,
    );
    tb.set_step_budget(budget);
    let fault = tb
        .try_run_measured(8)
        .expect_err("budget too small to finish");
    assert_eq!(
        fault.cause,
        neve_cycles::FaultCause::StepBudgetExhausted { budget }
    );
    assert!(
        tb.m.steps_retired() <= budget,
        "retired {}",
        tb.m.steps_retired()
    );
}
