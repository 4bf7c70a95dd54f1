//! The parallel-evaluation determinism guarantee: fanning the matrix
//! out across worker threads changes wall-clock time and nothing else.

use neve_json::JsonValue;
use neve_workloads::platforms::{Config, MicroMatrix};
use neve_workloads::provenance;
use std::sync::OnceLock;

/// One serial reference measurement, shared across the tests here (a
/// full matrix is 28 simulations; measure it once).
fn serial() -> &'static MicroMatrix {
    static M: OnceLock<MicroMatrix> = OnceLock::new();
    M.get_or_init(MicroMatrix::measure)
}

#[test]
fn parallel_matrix_is_bit_identical_to_serial() {
    let parallel = MicroMatrix::measure_parallel(4);
    assert_eq!(&parallel, serial());
    // Equality must include the trap-stat observability data, not just
    // the headline numbers (spell it out in case PartialEq drifts).
    for c in Config::all() {
        assert_eq!(parallel.costs(c), serial().costs(c), "{c:?}");
        assert_eq!(parallel.trap_kinds(c), serial().trap_kinds(c), "{c:?}");
        assert_eq!(parallel.phases(c), serial().phases(c), "{c:?}");
    }
}

#[test]
fn tracing_attached_is_bit_identical_to_detached() {
    // The provenance layer's hard invariant: attaching an execution
    // trace to every session (even a tiny ring that evicts constantly)
    // changes nothing about measured cycles, trap counts, or phase
    // attribution.
    for capacity in [8, 1 << 12] {
        let traced = MicroMatrix::measure_traced(capacity);
        assert_eq!(&traced, serial(), "capacity {capacity}");
    }
}

#[test]
fn worker_count_does_not_leak_into_results() {
    // One worker (degenerate case) and more workers than cells both
    // reproduce the reference exactly.
    assert_eq!(&MicroMatrix::measure_parallel(1), serial());
    assert_eq!(&MicroMatrix::measure_parallel(64), serial());
}

#[test]
fn consecutive_runs_agree() {
    let a = MicroMatrix::measure_parallel(3);
    let b = MicroMatrix::measure_parallel(3);
    assert_eq!(a, b);
}

/// The committed `results/neve_results.json`, as `dump_results`
/// writes it.
const COMMITTED_RESULTS: &str = include_str!("../../../results/neve_results.json");

#[test]
fn serial_matrix_reproduces_the_committed_results() {
    // Every simulated number of the microbenchmark matrix is pinned:
    // per-op cycles and traps, the trap-kind breakdown and the
    // per-phase attribution of all 28 cells must match the recorded
    // export exactly, so a run-loop or scheduler change that moves
    // simulated time fails here.
    let committed = neve_json::parse(COMMITTED_RESULTS).expect("results/neve_results.json parses");
    let recorded = committed.get("micro").expect("a micro section");
    let measured = provenance::micro_results(serial());
    for c in Config::all() {
        assert_eq!(
            measured.get(c.label()).map(JsonValue::pretty),
            recorded.get(c.label()).map(JsonValue::pretty),
            "{} drifted from results/neve_results.json",
            c.label()
        );
    }
    assert_eq!(measured.pretty(), recorded.pretty());
}
