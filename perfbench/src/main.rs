//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's result as the last line of standard output: a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! non-zero, printing no result, on a bad argument, a failed output
//! check or an exact-count mismatch.

use neve_perfbench::report::Report;
use neve_perfbench::trace::Tracer;
use neve_perfbench::{consolidate, fuzz, matrix, nproc, serve, Mismatch, RunSpec};
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["matrix", "fuzz", "consolidate"];

fn parse_args() -> Result<(String, RunSpec), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok((
        workload,
        RunSpec {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        },
    ))
}

/// The traced run: the named workload's probe for 70% of the window (at
/// least three passes), alternating untraced and traced passes, one pass
/// of each other probe, and the open-loop serve probe, so every
/// per-layer family is reported on every workload.
fn traced(workload: &str, spec: &RunSpec, jobs: usize) -> Result<Report, Mismatch> {
    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut report = Report::default();
    let primary = Duration::from_secs_f64(spec.seconds as f64 * 0.7);

    let mut mp = matrix::Probe::new(jobs)?;
    let mut fp = fuzz::Probe::new(spec.seed, jobs, &mut on)?;
    let mut cp = consolidate::Probe::default();
    let sp = serve::probe(spec.seed, jobs, Duration::from_secs(2), &mut on)?;

    let start = Instant::now();
    let mut passes = 0u64;
    loop {
        for tr in [&mut off, &mut on] {
            if passes == 0 || workload == "matrix" {
                mp.pass(tr)?;
            }
            if passes == 0 || workload == "fuzz" {
                fp.pass(tr, 16);
            }
            if passes == 0 || workload == "consolidate" {
                cp.pass(tr)?;
            }
        }
        passes += 1;
        if passes >= 3 && start.elapsed() >= primary {
            break;
        }
    }
    let mut exact = mp.exact();
    exact.extend(cp.exact());
    neve_perfbench::report::check_exact(&exact)?;

    mp.metrics(&mut report);
    fp.metrics(&mut report);
    cp.metrics(&mut report);
    sp.metrics(&mut report);
    let ratio = match workload {
        "matrix" => mp.overhead_ratio(),
        "fuzz" => fp.overhead_ratio(),
        _ => cp.overhead_ratio(),
    };
    report.push("trace.overhead_ratio", ratio, "ratio");
    neve_perfbench::report::order_per_layer(&mut report)?;
    report.attempted = passes;
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.spans.jsonl"));
    on.write(&path)
        .map_err(|e| Mismatch(format!("writing spans to {}: {e}", path.display())))?;
    Ok(report)
}

fn main() {
    let (workload, spec) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let jobs = nproc();
    let result = if spec.trace {
        traced(&workload, &spec, jobs)
    } else {
        match workload.as_str() {
            "matrix" => matrix::run(&spec, jobs),
            "fuzz" => fuzz::run(&spec, jobs),
            _ => consolidate::run(&spec, jobs),
        }
    };
    let report = match result {
        Ok(r) => r,
        Err(m) => {
            eprintln!("perfbench: {workload}: {m}");
            std::process::exit(1);
        }
    };
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "perfbench: {workload}: metric {} is not a number ({})",
            bad.name, bad.value
        );
        std::process::exit(1);
    }
    println!("{}", report.to_json());
}
