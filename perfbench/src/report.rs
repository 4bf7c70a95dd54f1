//! The result line, the end-to-end metric set, and the exact-count gate.

use crate::stats::{peak_rss_mb, percentile};
use crate::Mismatch;
use neve_json::JsonValue;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, all digits kept.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run prints as its last line.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations the run attempted: rounds or tables, or a traced
    /// run's probe passes.
    pub attempted: u64,
    /// Operations that failed (a failed operation also fails the run).
    pub failed: u64,
    /// Every metric of the run's kind, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The result object, on one line.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    JsonValue::Object(vec![
                        ("value".into(), JsonValue::Number(m.value)),
                        ("unit".into(), JsonValue::String(m.unit.into())),
                    ]),
                )
            })
            .collect();
        JsonValue::Object(vec![
            ("correct".into(), JsonValue::Bool(true)),
            ("attempted".into(), JsonValue::from(self.attempted)),
            ("failed".into(), JsonValue::from(self.failed)),
            ("metrics".into(), JsonValue::Object(metrics)),
        ])
        .compact()
    }
}

/// The end-to-end metrics every gated workload reports, each with its
/// own meaning of "operation" (see `README.md`). Times are process CPU
/// time.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_cpu_s", "1/s"),
    ("op_cpu_ms_p50", "ms"),
    ("op_cpu_ms_p90", "ms"),
];

/// Fills the end-to-end metrics of an untraced run: `ops` operations
/// completed in `busy_s` CPU seconds, each taking `lat_ms` CPU ms.
pub fn end_to_end(
    setup_s: f64,
    ops: f64,
    busy_s: f64,
    lat_ms: &[f64],
    attempted: u64,
    failed: u64,
) -> Report {
    let values = [
        setup_s,
        peak_rss_mb(),
        ops / busy_s,
        percentile(lat_ms, 50.0),
        percentile(lat_ms, 90.0),
    ];
    let mut r = Report {
        attempted,
        failed,
        metrics: Vec::new(),
    };
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        r.push(name, value, unit);
    }
    r
}

/// Deterministic work counts recorded at the parent commit; every
/// traced run must reproduce each one exactly.
const EXACT: &str = include_str!("../exact_counts.json");

/// Checks `got` (name, value) against the recorded exact counts.
/// Every mismatch and every name without a record is listed.
pub fn check_exact(got: &[(String, f64)]) -> Result<(), Mismatch> {
    let doc = neve_json::parse(EXACT).map_err(|e| Mismatch(format!("exact_counts.json: {e:?}")))?;
    let mut bad = Vec::new();
    for (name, value) in got {
        match doc.get(name).and_then(JsonValue::as_f64) {
            Some(want) if want.to_bits() == value.to_bits() => {}
            Some(want) => bad.push(format!("{name}: recorded {want}, measured {value}")),
            None => bad.push(format!("{name}: no recorded value (measured {value})")),
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(Mismatch(format!(
            "exact counts differ:\n  {}",
            bad.join("\n  ")
        )))
    }
}

/// Every per-layer metric a traced run reports, with its unit, in
/// `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    use crate::cells::CONFIGS;
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut family = |prefix: &str, unit: &'static str, suffixes: &[&str]| {
        for s in suffixes {
            out.push((format!("{prefix}.{s}"), unit));
        }
    };
    let all: Vec<&str> = CONFIGS.iter().map(|(_, a)| *a).collect();
    let arm = &all[..5];
    let wheel = ["vm", "v83", "neve"];
    family("session.build_us", "us", &all);
    family("session.run_ns_per_step", "ns/step", &all);
    family(
        "session.run_ns",
        "ns",
        &["hypercall", "device_io", "virtual_ipi", "virtual_eoi"],
    );
    family("armv8.self_ns_per_step", "ns/step", arm);
    family("kvmarm.exit_ns_share", "ratio", arm);
    family("kvmarm.ns_per_exit", "ns", arm);
    family("kvmarm.exits", "count", arm);
    family("armv8.steps", "steps", arm);
    family("cycles.total", "cycles", arm);
    family("cycles.traps", "count", arm);
    family("memsim.tlb_misses", "count", arm);
    family("memsim.tlb_hit_ratio", "ratio", arm);
    family("neve.vncr_deferrals", "count", &["neve", "neve-vhe"]);
    family("platforms", "ratio", &["parallel_efficiency"]);
    family("armv8", "us", &["snapshot_us", "restore_us"]);
    family("armv8", "ns/step", &["interp_ns_per_step"]);
    family("armv8", "ratio", &["checker_ns_share"]);
    family(
        "fuzz",
        "count",
        &[
            "cases",
            "coverage_tuples",
            "injections_detected",
            "findings",
        ],
    );
    family("serve", "ms", &["lo_p99_ms", "hi_p99_ms"]);
    family("serve", "ratio", &["hi_slo_ratio"]);
    family("serve", "us", &["submit_us_p50", "submit_us_p99"]);
    family("serve", "ms", &["hit_req_ms_p99", "miss_req_ms_p50"]);
    family(
        "serve",
        "count",
        &["cells_measured", "cells_coalesced", "cells_memory"],
    );
    family("serve", "ratio", &["store_hit_ratio"]);
    family("serve", "count", &["computed", "backlog_max"]);
    family("loadgen", "ms", &["late_ms_p99", "late_ms_max"]);
    family("kvmarm.tick_build_us", "us", &wheel);
    family("sched.wheel_ns_per_step", "ns/step", &wheel);
    family("sched.steps", "steps", &wheel);
    family("cycles.idle_share", "ratio", &wheel);
    family("trace", "ratio", &["overhead_ratio"]);
    out
}

/// Puts a traced run's metrics in [`per_layer`] order, failing if the
/// run reported a different set of names or units.
pub fn order_per_layer(r: &mut Report) -> Result<(), Mismatch> {
    let want = per_layer();
    let mut got: Vec<(String, &'static str)> =
        r.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
    let mut sorted = want.clone();
    got.sort();
    sorted.sort();
    if got != sorted {
        let missing: Vec<_> = sorted.iter().filter(|w| !got.contains(w)).collect();
        let extra: Vec<_> = got.iter().filter(|g| !sorted.contains(g)).collect();
        return Err(Mismatch(format!(
            "per-layer metrics differ from the declared set: missing {missing:?}, unexpected {extra:?}"
        )));
    }
    r.metrics
        .sort_by_key(|m| want.iter().position(|(n, _)| *n == m.name));
    Ok(())
}
