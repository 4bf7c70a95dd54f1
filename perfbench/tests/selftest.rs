//! Self-tests of the benchmark's own pieces. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use neve_perfbench::report::{check_exact, per_layer, Report, END_TO_END};
use neve_perfbench::serve::{schedule, Kind};
use neve_perfbench::stats::{beyond, min_samples, percentile, rank};
use neve_perfbench::{cells, Mismatch};
use neve_workloads::{parse_request, Bench, Config};

#[test]
fn percentiles_use_the_nearest_rank() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 5.0);
    assert_eq!(percentile(&v, 90.0), 9.0);
    assert_eq!(percentile(&v, 100.0), 10.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    let shuffled = [7.0, 1.0, 10.0, 3.0, 5.0, 9.0, 2.0, 8.0, 6.0, 4.0];
    assert_eq!(
        percentile(&shuffled, 90.0),
        9.0,
        "input order must not matter"
    );
    assert!(percentile(&[], 50.0).is_nan());
    assert_eq!(rank(1, 99.0), 1);
}

#[test]
fn every_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(min_samples(50.0), 20);
    assert_eq!(min_samples(90.0), 100);
    assert_eq!(min_samples(99.0), 1000);
    for p in [50.0, 90.0, 99.0] {
        let n = min_samples(p);
        assert_eq!(beyond(n, p), 10, "p{p} at {n} samples");
        assert_eq!(beyond(n - 1, p), 9, "p{p} at {} samples", n - 1);
    }
}

#[test]
fn the_mix_is_identical_per_seed_and_differs_across_seeds() {
    let a = schedule(7, "hi", 1100.0, 2000);
    assert_eq!(a, schedule(7, "hi", 1100.0, 2000));
    assert_ne!(a, schedule(8, "hi", 1100.0, 2000));
    assert_ne!(
        a,
        schedule(7, "lo", 1100.0, 2000),
        "phases draw their own schedules"
    );
    assert!(
        a.windows(2).all(|w| w[0].due <= w[1].due),
        "due times never go back"
    );
    let share = |k: Kind| a.iter().filter(|r| r.kind == k).count() as f64 / a.len() as f64;
    assert!(
        (share(Kind::Read) - 0.6).abs() < 0.05,
        "reads {}",
        share(Kind::Read)
    );
    assert!(
        (share(Kind::Write) - 0.3).abs() < 0.05,
        "writes {}",
        share(Kind::Write)
    );
    assert!(
        (share(Kind::Dup) - 0.1).abs() < 0.05,
        "duplicates {}",
        share(Kind::Dup)
    );
    let mean_gap = a.last().unwrap().due.as_secs_f64() / a.len() as f64;
    assert!(
        (mean_gap * 1100.0 - 1.0).abs() < 0.1,
        "offered rate {}",
        1.0 / mean_gap
    );
    for r in &a {
        parse_request(&r.line).unwrap_or_else(|e| panic!("{}: {e}", r.line));
        assert_eq!(
            r.kind == Kind::Read,
            !r.line.contains("\"plan\""),
            "{}",
            r.line
        );
    }
    let write = a.iter().position(|r| r.kind == Kind::Write).unwrap();
    let dup = a[write..].iter().find(|r| r.kind == Kind::Dup).unwrap();
    let body = |l: &str| l.split_once(',').unwrap().1.to_string();
    assert!(
        a[..a.iter().position(|r| r == dup).unwrap()]
            .iter()
            .rev()
            .find(|r| r.kind == Kind::Write)
            .is_some_and(|w| body(&w.line) == body(&dup.line)),
        "a duplicate repeats the latest write"
    );
}

/// True when `name` is a valid metric name.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn benchmark_json() -> neve_json::JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    neve_json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &neve_json::JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(|v| v.as_str())
                    .unwrap_or_default()
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn metric_names_are_valid_and_match_benchmark_json() {
    let doc = benchmark_json();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared(&doc, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared(&doc, "per_layer"), layers);
    let mut names: Vec<&String> = e2e.iter().chain(&layers).map(|(n, _)| n).collect();
    for n in &names {
        assert!(valid_name(n), "{n}");
    }
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "metric names are used once");
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect();
    assert_eq!(workloads, ["matrix", "fuzz", "consolidate"]);
    assert!(!valid_name("has space") && !valid_name(".lead") && !valid_name(""));
}

#[test]
fn results_print_every_digit() {
    let mut r = Report {
        attempted: 3,
        failed: 0,
        metrics: Vec::new(),
    };
    r.push("latency_ms_p50", 0.1 + 0.2, "ms");
    r.push("cycles.idle_share.v83", 0.8223596342057637, "ratio");
    let doc = neve_json::parse(&r.to_json()).unwrap();
    let value = |k: &str| {
        doc.get("metrics")
            .unwrap()
            .get(k)
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64()
            .unwrap()
    };
    assert_eq!(value("latency_ms_p50").to_bits(), (0.1f64 + 0.2).to_bits());
    assert_eq!(
        value("cycles.idle_share.v83").to_bits(),
        0.8223596342057637f64.to_bits()
    );
}

#[test]
fn exact_counts_fail_on_any_difference() {
    assert!(check_exact(&[("armv8.steps.v83".into(), 46585.0)]).is_ok());
    let Err(Mismatch(msg)) = check_exact(&[("armv8.steps.v83".into(), 46586.0)]) else {
        panic!("a one-step difference must fail");
    };
    assert!(msg.contains("armv8.steps.v83"), "{msg}");
    assert!(check_exact(&[("armv8.steps.unknown".into(), 1.0)]).is_err());
}

#[test]
fn the_hypervisor_timing_wrapper_leaves_the_cell_unchanged() {
    for (c, b) in [
        (Config::ArmNestedV83, Bench::Hypercall),
        (Config::ArmNestedNeve, Bench::DeviceIo),
    ] {
        let untraced = cells::counts(c, b).unwrap();
        let timed = cells::drive(c, b, true).unwrap();
        assert_eq!(
            (timed.steps, timed.cycles),
            (untraced.steps, untraced.cycles),
            "{c:?}/{b:?}"
        );
        assert!(timed.exits > 0 && timed.hyp_ns > 0 && timed.hyp_ns < timed.loop_ns);
        let plain = cells::drive(c, b, false).unwrap();
        assert_eq!(
            (plain.steps, plain.cycles, plain.exits),
            (untraced.steps, untraced.cycles, 0)
        );
    }
}
