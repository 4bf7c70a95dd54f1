//! The trap-provenance layer under a full nested stack: ring
//! eviction, per-kind agreement between the trace and the counter,
//! and phase attribution of the measured region.

use neve_armv8::trace::TraceEvent;
use neve_cycles::{Phase, TrapKind};
use neve_kvmarm::testbed::{ArmConfig, MicroBench, TestBed};
use neve_kvmarm::ParaMode;
use std::collections::BTreeMap;

const V83: ArmConfig = ArmConfig::Nested {
    guest_vhe: false,
    neve: false,
    para: ParaMode::None,
};

const NEVE: ArmConfig = ArmConfig::Nested {
    guest_vhe: false,
    neve: true,
    para: ParaMode::None,
};

#[test]
fn ring_evicts_under_a_full_nested_run() {
    let mut tb = TestBed::new(V83, MicroBench::Hypercall, 8);
    tb.m.attach_trace(16);
    let (delta, _) = tb.try_run_region(8).expect("measured run");
    assert!(delta.traps > 0);
    let t = tb.m.trace.as_ref().expect("attached");
    // A nested hypercall run emits far more events than a 16-slot ring
    // holds: retention is pinned at capacity while the total keeps
    // counting past it.
    assert_eq!(t.len(), t.capacity());
    assert!(
        t.total > t.capacity() as u64,
        "total {} never exceeded capacity",
        t.total
    );
}

#[test]
fn trace_trap_events_match_the_counter_per_kind() {
    let mut tb = TestBed::new(V83, MicroBench::Hypercall, 8);
    // Big enough to retain the whole measured region (the testbed
    // clears the ring at the measurement snapshot).
    tb.m.attach_trace(1 << 16);
    let (delta, _) = tb.try_run_region(8).expect("measured run");

    let t = tb.m.trace.as_ref().expect("attached");
    assert!(
        t.total <= t.capacity() as u64,
        "region overflowed the ring; the comparison below would be partial"
    );
    let mut from_trace: BTreeMap<TrapKind, u64> = BTreeMap::new();
    for ev in t.events() {
        if let TraceEvent::TrapToEl2 { kind, phase, .. } = ev {
            *from_trace.entry(*kind).or_insert(0) += 1;
            // Handlers are native: every trap interrupts guest code.
            assert_eq!(*phase, Phase::Guest);
        }
    }
    // The ring and the counter observed the same trap population —
    // Table 7's counts, event by event.
    assert_eq!(from_trace, delta.traps_by_kind);

    // System-register traps carry the decoded register that caused
    // them (the non-VHE switch code is full of them).
    let tagged = tb.m.trace.as_ref().unwrap().events().any(|ev| {
        matches!(
            ev,
            TraceEvent::TrapToEl2 {
                kind: TrapKind::SysReg,
                sysreg: Some(_),
                ..
            }
        )
    });
    assert!(tagged, "no sysreg trap carried its register");
}

#[test]
fn phases_partition_the_measured_region() {
    let mut tb = TestBed::new(V83, MicroBench::Hypercall, 8);
    tb.m.attach_trace(1 << 16);
    let (delta, _) = tb.try_run_region(8).expect("measured run");

    let phase_cycles: u64 = delta.cycles_by_phase.values().sum();
    assert_eq!(phase_cycles, delta.cycles, "cycles leak out of the phases");
    let phase_traps: u64 = delta.traps_by_phase.values().sum();
    assert_eq!(phase_traps, delta.traps);

    // The nested world switch's anatomy is visible: eret emulation,
    // EL1 context moves and GIC switching all carry cycles, and the
    // trace recorded the corresponding phase markers.
    for p in [
        Phase::EretEmul,
        Phase::El1Save,
        Phase::El1Restore,
        Phase::GicSwitch,
    ] {
        assert!(
            delta.cycles_by_phase.get(&p).copied().unwrap_or(0) > 0,
            "no cycles attributed to {p:?}: {:?}",
            delta.cycles_by_phase
        );
        let marked =
            tb.m.trace
                .as_ref()
                .unwrap()
                .events()
                .any(|ev| matches!(ev, TraceEvent::PhaseChange { phase, .. } if *phase == p));
        assert!(marked, "no trace marker for {p:?}");
    }
}

#[test]
fn neve_records_deferrals_instead_of_traps() {
    let mut tb = TestBed::new(NEVE, MicroBench::Hypercall, 8);
    tb.m.attach_trace(1 << 16);
    let (delta, _) = tb.try_run_region(8).expect("measured run");
    let t = tb.m.trace.as_ref().expect("attached");
    let deferrals = t
        .events()
        .filter(|ev| matches!(ev, TraceEvent::VncrDeferred { .. }))
        .count();
    assert!(
        deferrals > 0,
        "NEVE ran the switch without touching the deferred access page"
    );
    // And the deferred accesses are exactly the ones not trapping:
    // NEVE still traps eret and TLBI, but far fewer sysregs than the
    // page absorbs.
    let sysreg_traps = delta
        .traps_by_kind
        .get(&TrapKind::SysReg)
        .copied()
        .unwrap_or(0);
    assert!(
        deferrals as u64 > sysreg_traps,
        "page absorbed {deferrals} accesses vs {sysreg_traps} sysreg traps"
    );
    // The refresh work the host does for the page is attributed.
    assert!(
        delta
            .cycles_by_phase
            .get(&Phase::VncrRefresh)
            .copied()
            .unwrap_or(0)
            > 0,
        "{:?}",
        delta.cycles_by_phase
    );
}
