//! One shared rendering of trap-provenance data.
//!
//! The per-kind trap totals and the per-phase cycle/trap attribution
//! appear in three places — the persistent results cache, `neve trace
//! --json`, and `dump_results`' JSON export — and a consumer should be
//! able to diff them directly. This module owns the schema (one
//! `trap_kinds` object plus one `phases` object of `{cycles, traps}`
//! records) and the text table the `trace` subcommand and `table7`
//! print, so the three cannot drift apart.

use crate::platforms::{Config, MicroMatrix, PerOpSer, PhaseStat};
use neve_cycles::Phase;
use neve_json::JsonValue;
use std::collections::BTreeMap;

/// The provenance block of one measurement as JSON object fields:
/// `("trap_kinds", {...})` and `("phases", {label: {cycles, traps}})`.
/// Splice into a larger object with `Vec::extend`.
pub fn json_fields(
    trap_kinds: &BTreeMap<String, u64>,
    phases: &BTreeMap<String, PhaseStat>,
) -> [(String, JsonValue); 2] {
    let kinds = trap_kinds
        .iter()
        .map(|(k, v)| (k.clone(), JsonValue::from(*v)))
        .collect();
    let phases = phases
        .iter()
        .map(|(p, s)| {
            let body = JsonValue::Object(vec![
                ("cycles".into(), JsonValue::from(s.cycles)),
                ("traps".into(), JsonValue::from(s.traps)),
            ]);
            (p.clone(), body)
        })
        .collect();
    [
        ("trap_kinds".into(), JsonValue::Object(kinds)),
        ("phases".into(), JsonValue::Object(phases)),
    ]
}

/// The `micro` section of `results/neve_results.json`: per
/// configuration, the four per-op `{cycles, traps}` figures followed by
/// the provenance block.
pub fn micro_results(m: &MicroMatrix) -> JsonValue {
    let per_op = |p: PerOpSer| {
        JsonValue::Object(vec![
            ("cycles".into(), JsonValue::from(p.cycles)),
            ("traps".into(), JsonValue::from(p.traps)),
        ])
    };
    let configs = Config::all()
        .into_iter()
        .map(|c| {
            let costs = m.costs(c);
            let mut body = vec![
                ("hypercall".into(), per_op(costs.hypercall)),
                ("device_io".into(), per_op(costs.device_io)),
                ("virtual_ipi".into(), per_op(costs.virtual_ipi)),
                ("virtual_eoi".into(), per_op(costs.virtual_eoi)),
            ];
            body.extend(json_fields(&m.trap_kinds(c), &m.phases(c)));
            (c.label().to_string(), JsonValue::Object(body))
        })
        .collect();
    JsonValue::Object(configs)
}

/// Renders the per-phase breakdown as an aligned text table in
/// world-switch order (guest first, trap return last — not the
/// alphabetical map order), skipping phases with nothing attributed.
pub fn render_phases(phases: &BTreeMap<String, PhaseStat>) -> String {
    let total: u64 = phases.values().map(|s| s.cycles).sum();
    let mut out = format!(
        "{:<14} {:>14} {:>8} {:>7}\n",
        "phase", "cycles", "traps", "share"
    );
    for p in Phase::all() {
        let Some(s) = phases.get(p.label()) else {
            continue;
        };
        if s.cycles == 0 && s.traps == 0 {
            continue;
        }
        let share = if total == 0 {
            0.0
        } else {
            100.0 * s.cycles as f64 / total as f64
        };
        out.push_str(&format!(
            "{:<14} {:>14} {:>8} {:>6.1}%\n",
            p.label(),
            s.cycles,
            s.traps,
            share
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (BTreeMap<String, u64>, BTreeMap<String, PhaseStat>) {
        let kinds = BTreeMap::from([("Hvc".to_string(), 24u64), ("SysReg".to_string(), 80)]);
        let phases = BTreeMap::from([
            (
                "guest".to_string(),
                PhaseStat {
                    cycles: 9_000,
                    traps: 100,
                },
            ),
            (
                "eret_emul".to_string(),
                PhaseStat {
                    cycles: 1_000,
                    traps: 4,
                },
            ),
            ("vncr_refresh".to_string(), PhaseStat::default()),
        ]);
        (kinds, phases)
    }

    #[test]
    fn json_fields_follow_the_cache_schema() {
        let (kinds, phases) = sample();
        let [(k, kv), (p, pv)] = json_fields(&kinds, &phases);
        assert_eq!(k, "trap_kinds");
        assert_eq!(p, "phases");
        assert_eq!(kv.get("Hvc").unwrap().as_u64(), Some(24));
        let eret = pv.get("eret_emul").unwrap();
        assert_eq!(eret.get("cycles").unwrap().as_u64(), Some(1_000));
        assert_eq!(eret.get("traps").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn phase_table_is_in_switch_order_and_skips_empty() {
        let (_, phases) = sample();
        let s = render_phases(&phases);
        let guest = s.find("guest").unwrap();
        let eret = s.find("eret_emul").unwrap();
        assert!(guest < eret, "world-switch order, not alphabetical:\n{s}");
        assert!(!s.contains("vncr_refresh"), "empty phase printed:\n{s}");
        assert!(s.contains("90.0%"), "{s}");
    }
}
