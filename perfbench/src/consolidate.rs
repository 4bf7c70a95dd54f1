//! The `consolidate` workload: back-to-back full consolidation tables,
//! the only workload on the event wheel (`cycles::sched`) and the
//! `vtimer` EL2 tick.
//!
//! Its traced run builds tick stacks with `TestBed::new_tick` and drives
//! them with `TestBed::try_run_wheel`, re-arming the scheduler tick
//! between wheel runs the way the consolidation rig does.

use crate::cells::alias;
use crate::report::{end_to_end, Report};
use crate::stats::{median, min_samples};
use crate::trace::Tracer;
use crate::{measure, Mismatch, RunSpec};
use neve_cycles::Phase;
use neve_kvmarm::TestBed;
use neve_sysreg::SysReg;
use neve_vtimer::PPI_HPTIMER;
use neve_workloads::consolidate::TICK_PERIOD;
use neve_workloads::{run_consolidate, Config, ConsolidateSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// The committed table every round must reproduce byte for byte.
const COMMITTED: &str = include_str!("../../results/consolidate.json");

/// Rows of the table.
const ROWS: usize = 5;

/// One full table on `jobs` workers (the table is byte-identical for
/// every worker count).
fn table(jobs: usize) -> Result<String, Mismatch> {
    let json = run_consolidate(ConsolidateSpec {
        jobs,
        ..ConsolidateSpec::full()
    })
    .map_err(|e| Mismatch(format!("consolidate: {e}")))?
    .to_json();
    if json != COMMITTED {
        return Err(Mismatch(first_row_diff(&json)));
    }
    Ok(json)
}

/// Names the first row whose JSON differs from the committed table.
fn first_row_diff(json: &str) -> String {
    let parse = |s: &str| neve_json::parse(s).ok();
    let rows =
        |d: &neve_json::JsonValue| d.get("rows").and_then(|r| r.as_array()).map(|r| r.to_vec());
    if let (Some(got), Some(want)) = (
        parse(json).as_ref().and_then(rows),
        parse(COMMITTED).as_ref().and_then(rows),
    ) {
        for (g, w) in got.iter().zip(&want) {
            if g != w {
                let label = w.get("label").and_then(|l| l.as_str()).unwrap_or("?");
                return format!(
                    "consolidate row `{label}`: measured {}, committed {}",
                    g.compact(),
                    w.compact()
                );
            }
        }
    }
    "consolidate table differs from results/consolidate.json".into()
}

/// The untraced `consolidate` run.
pub fn run(spec: &RunSpec, jobs: usize) -> Result<Report, Mismatch> {
    let (_, setup_s, rounds) = measure(
        spec.window(),
        min_samples(90.0),
        || table(jobs),
        |_| table(jobs).map(|_| ()),
    )?;
    let busy_s = rounds.iter().sum::<f64>() / 1e3;
    Ok(end_to_end(
        setup_s,
        (ROWS * rounds.len()) as f64,
        busy_s,
        &rounds,
        rounds.len() as u64,
        0,
    ))
}

/// The configurations the probe drives, with their table labels.
const PROBED: [(Config, &str); 3] = [
    (Config::ArmVm, "VM"),
    (Config::ArmNestedV83, "Nested v8.3"),
    (Config::ArmNestedNeve, "Nested NEVE"),
];

/// One tick stack driven on the wheel.
#[derive(Debug, Clone, Copy)]
struct Wheeled {
    steps: u64,
    idle_share: f64,
    build_ns: u64,
    wheel_ns: u64,
}

/// Builds the `label` stack and drives it through the table's tick
/// schedule: every cpu takes `warmup + measured` staggered ticks.
fn wheel(c: Config, tr: &mut Tracer, id: u64) -> Result<Wheeled, Mismatch> {
    let spec = ConsolidateSpec::full();
    let cfg = crate::cells::arm_config(c).expect("probed configs are ARM");
    let tag = alias(c);
    let t = Instant::now();
    let sp = tr.begin("kvmarm.new_tick", tag, id, Tracer::root());
    let mut tb = TestBed::new_tick(cfg, spec.vcpus);
    tr.end(sp);
    let build_ns = t.elapsed().as_nanos() as u64;
    let n = spec.vcpus;
    let target = spec.warmup_ticks + spec.measured_ticks;
    let t0 = tb.m.counter.cycles();
    let mut deadline = vec![0u64; n];
    for (cpu, d) in deadline.iter_mut().enumerate() {
        tb.m.gic.dist.enable(cpu, PPI_HPTIMER);
        *d = t0 + TICK_PERIOD + (cpu as u64 * TICK_PERIOD) / n as u64;
        tb.m.timers.write(cpu, SysReg::CnthpCvalEl2, *d);
        tb.m.timers.write(cpu, SysReg::CnthpCtlEl2, 1);
    }
    let mut ticks = vec![0u64; n];
    let mut steps = 0u64;
    let t = Instant::now();
    let sp = tr.begin("sched.try_run_wheel", tag, id, Tracer::root());
    loop {
        let (tk, dl) = (&ticks, &deadline);
        steps += tb
            .try_run_wheel(|m| {
                let now = m.counter.cycles();
                (0..n).any(|cpu| tk[cpu] < target && now >= dl[cpu])
                    || (m.runnable().is_empty() && tk.iter().all(|&k| k >= target))
            })
            .map_err(|f| Mismatch(format!("wheel run of {tag}: {f}")))?;
        let now = tb.m.counter.cycles();
        for cpu in 0..n {
            if ticks[cpu] < target && now >= deadline[cpu] {
                ticks[cpu] += 1;
                if ticks[cpu] == target {
                    tb.m.timers.write(cpu, SysReg::CnthpCtlEl2, 0);
                } else {
                    deadline[cpu] += TICK_PERIOD;
                    tb.m.timers.write(cpu, SysReg::CnthpCvalEl2, deadline[cpu]);
                }
            }
        }
        if tb.m.runnable().is_empty() && ticks.iter().all(|&k| k >= target) {
            break;
        }
    }
    tr.end(sp);
    let wheel_ns = t.elapsed().as_nanos() as u64;
    Ok(Wheeled {
        steps,
        idle_share: tb.m.counter.cycles_in(Phase::Idle) as f64 / tb.m.counter.cycles() as f64,
        build_ns,
        wheel_ns,
    })
}

/// Host steps the committed table records for `label`.
fn committed_steps(label: &str) -> Option<u64> {
    let doc = neve_json::parse(COMMITTED).ok()?;
    doc.get("rows")?
        .as_array()?
        .iter()
        .find(|r| r.get("label").and_then(|l| l.as_str()) == Some(label))?
        .get("host_steps")?
        .as_u64()
}

/// Per-layer results of the wheel probe.
#[derive(Default)]
pub struct Probe {
    runs: BTreeMap<Config, Vec<Wheeled>>,
    traced_wall: Vec<f64>,
    untraced_wall: Vec<f64>,
    passes: u64,
}

impl Probe {
    /// One pass over the probed configurations. Each drive must retire
    /// the host steps the committed table records.
    pub fn pass(&mut self, tr: &mut Tracer) -> Result<(), Mismatch> {
        let start = Instant::now();
        for (i, (c, label)) in PROBED.into_iter().enumerate() {
            let w = wheel(c, tr, self.passes * 10 + i as u64)?;
            if committed_steps(label) != Some(w.steps) {
                return Err(Mismatch(format!(
                    "consolidate row `{label}`: the wheel probe retired {} host steps, committed {:?}",
                    w.steps,
                    committed_steps(label)
                )));
            }
            let runs = self.runs.entry(c).or_default();
            if let Some(first) = runs.first() {
                if first.idle_share.to_bits() != w.idle_share.to_bits() {
                    return Err(Mismatch(format!(
                        "consolidate row `{label}`: idle share {} on a repeat drive, {} before",
                        w.idle_share, first.idle_share
                    )));
                }
            }
            if tr.is_on() || runs.is_empty() {
                runs.push(w);
            }
        }
        let wall = start.elapsed().as_secs_f64();
        if tr.is_on() {
            self.traced_wall.push(wall);
        } else {
            self.untraced_wall.push(wall);
        }
        self.passes += 1;
        Ok(())
    }

    /// Traced wall ÷ untraced wall of the passes.
    pub fn overhead_ratio(&self) -> f64 {
        median(&self.traced_wall) / median(&self.untraced_wall)
    }

    /// The exact counts this probe gates.
    pub fn exact(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (c, runs) in &self.runs {
            let a = alias(*c);
            out.push((format!("sched.steps.{a}"), runs[0].steps as f64));
            out.push((format!("cycles.idle_share.{a}"), runs[0].idle_share));
        }
        out
    }

    /// Every per-layer metric of the probe.
    pub fn metrics(&self, r: &mut Report) {
        for (c, runs) in &self.runs {
            let a = alias(*c);
            let builds: Vec<f64> = runs.iter().map(|w| w.build_ns as f64 / 1e3).collect();
            r.push(format!("kvmarm.tick_build_us.{a}"), median(&builds), "us");
            let ns: u64 = runs.iter().map(|w| w.wheel_ns).sum();
            let steps: u64 = runs.iter().map(|w| w.steps).sum();
            r.push(
                format!("sched.wheel_ns_per_step.{a}"),
                ns as f64 / steps as f64,
                "ns/step",
            );
        }
        for (name, value) in self.exact() {
            let unit = if name.starts_with("sched.steps") {
                "steps"
            } else {
                "ratio"
            };
            r.push(name, value, unit);
        }
    }
}
