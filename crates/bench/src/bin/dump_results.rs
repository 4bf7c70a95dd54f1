//! Dumps every regenerated result (Tables 1/6/7 and Figure 2) as JSON to
//! `results/` for downstream plotting. The per-config provenance block
//! (`trap_kinds` + `phases`) is rendered by the same
//! [`neve_workloads::provenance`] helper the results cache and `neve
//! trace --json` use, so the three exports share one schema.

use neve_json::JsonValue;
use neve_workloads::platforms::Config;
use neve_workloads::{apps, provenance};
use std::fmt::Write as _;
use std::fs;

fn main() {
    // Filesystem problems (read-only checkout, missing permissions,
    // `results` existing as a file) are environment errors, not bugs:
    // one line on stderr and a non-zero exit, no panic backtrace.
    if let Err(e) = run() {
        eprintln!("dump_results: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    fs::create_dir_all("results").map_err(|e| format!("cannot create results/: {e}"))?;
    let m = neve_bench::shared_matrix();

    let rows = apps::figure2(&m);
    let figure2 = rows
        .iter()
        .map(|r| {
            let cells = r
                .overheads
                .iter()
                // Round to four decimals so the export diffs cleanly.
                .map(|(c, o)| {
                    let rounded = (o * 10_000.0).round() / 10_000.0;
                    (c.label().to_string(), JsonValue::from(rounded))
                })
                .collect();
            (r.name.to_string(), JsonValue::Object(cells))
        })
        .collect();

    let doc = JsonValue::Object(vec![
        ("micro".into(), provenance::micro_results(&m)),
        ("figure2".into(), JsonValue::Object(figure2)),
    ]);
    let out = doc.pretty();
    fs::write("results/neve_results.json", &out)
        .map_err(|e| format!("cannot write results/neve_results.json: {e}"))?;
    println!("Wrote results/neve_results.json ({} bytes).", out.len());

    // A CSV of Figure 2 for spreadsheet users.
    let mut csv = String::from("workload");
    for c in Config::all() {
        let _ = write!(csv, ",{}", c.label());
    }
    csv.push('\n');
    for r in &rows {
        let _ = write!(csv, "{}", r.name);
        for (_, o) in &r.overheads {
            let _ = write!(csv, ",{o:.4}");
        }
        csv.push('\n');
    }
    fs::write("results/figure2.csv", &csv)
        .map_err(|e| format!("cannot write results/figure2.csv: {e}"))?;
    println!("Wrote results/figure2.csv.");
    if m.has_failures() {
        return Err(format!(
            "{} matrix cell(s) failed to measure; the export contains zero placeholders",
            m.failed_cells()
        ));
    }
    Ok(())
}
