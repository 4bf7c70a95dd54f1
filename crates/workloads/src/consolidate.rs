//! Multi-VM consolidation: how many idle guests fit on one host.
//!
//! The paper's consolidation argument is that nested-virtualization
//! overhead is paid even by *idle* guest hypervisors — every host
//! scheduler tick that lands on a vCPU whose guest hypervisor is
//! time-sliced in forces a full exit/entry world switch, and the cost
//! of that switch (trap-and-emulate on ARMv8.3 vs deferred register
//! access with NEVE) bounds how many guests a host can carry before
//! the ticks alone eat a fixed overhead budget.
//!
//! The rig builds one [`TestBed::new_tick`] stack per configuration:
//! `vcpus` co-resident single-vCPU idle guests, each a full guest
//! hypervisor (its own image and save area) whose nested VM sits in
//! `wfi` — or a plain idle VM for the baseline row. The
//! driver arms the host's physical EL2 timer ([`PPI_HPTIMER`], the
//! scheduler tick) on every cpu, staggered across one period, then
//! drives the event wheel: a tick wakes the parked core, the host
//! hypervisor injects the interrupt, the guest hypervisor takes it at
//! virtual EL2, acknowledges, and world-switches back into its idle
//! VM — which immediately parks again. Between ticks every core is
//! parked and the wheel leaps the clock, so the *simulated* busy
//! cycles per tick are exactly the virtualization cost of one
//! tick-and-reenter round trip.
//!
//! From the measured busy cycles per tick `h` and the tick period `T`
//! the table reports `floor(budget · T / h)` — the number of such
//! idle guests one host core can time-slice before their ticks exceed
//! `budget` (5%) of the core, the paper's "VMs per host at ≤5%
//! overhead" consolidation figure.
//!
//! Determinism: the simulation is single-threaded per row and
//! event-wheel ordered, so every row is bit-identical across runs;
//! `--jobs` fan-out stripes whole rows across threads and combines
//! them in table order, so the rendered report is byte-identical for
//! every jobs count (asserted by `neve consolidate --smoke` in CI).

use crate::cache;
use neve_cycles::Phase;
use neve_json::JsonValue;
use neve_kvmarm::{ArmConfig, ParaMode, TestBed};
use neve_sysreg::SysReg;
use neve_vtimer::PPI_HPTIMER;
use std::path::Path;

/// Where `neve consolidate` records the table.
pub const CONSOLIDATE_PATH: &str = "results/consolidate.json";

/// Host scheduler-tick period in simulated cycles: 4 ms at 2 GHz, a
/// 250 Hz tick.
pub const TICK_PERIOD: u64 = 8_000_000;

/// The consolidation overhead budget (the paper's "≤5%" column).
pub const OVERHEAD_BUDGET: f64 = 0.05;

/// Measurement shape for one consolidation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsolidateSpec {
    /// Co-resident single-vCPU idle guests (one guest-hypervisor
    /// stack per cpu) per configuration.
    pub vcpus: usize,
    /// Ticks per cpu dropped as warm-up (lazy Stage-2 faults, shadow
    /// fills on the first switches).
    pub warmup_ticks: u64,
    /// Ticks per cpu inside the measured window.
    pub measured_ticks: u64,
    /// Worker threads for the row fan-out.
    pub jobs: usize,
}

impl ConsolidateSpec {
    /// The recorded-artifact shape.
    pub fn full() -> Self {
        Self {
            vcpus: 4,
            warmup_ticks: 4,
            measured_ticks: 32,
            jobs: 1,
        }
    }

    /// The CI shape: small but still multi-cpu and multi-tick.
    pub fn smoke() -> Self {
        Self {
            vcpus: 2,
            warmup_ticks: 2,
            measured_ticks: 8,
            jobs: 1,
        }
    }
}

/// One table row: a configuration's per-tick cost and the
/// consolidation figure it implies.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsolidateRow {
    /// Configuration label (table order).
    pub label: String,
    /// Busy (non-idle) simulated cycles inside the measured window.
    pub busy_cycles: u64,
    /// Ticks delivered inside the measured window (all cpus).
    pub ticks: u64,
    /// Host steps retired over the whole run — the host-work
    /// denominator (parked cores cost none).
    pub host_steps: u64,
}

impl ConsolidateRow {
    /// Busy cycles per delivered tick.
    pub fn cycles_per_tick(&self) -> f64 {
        self.busy_cycles as f64 / self.ticks as f64
    }

    /// Fraction of one core a single idle guest's ticks consume.
    pub fn overhead(&self) -> f64 {
        self.cycles_per_tick() / TICK_PERIOD as f64
    }

    /// Idle guests one host core carries within [`OVERHEAD_BUDGET`].
    pub fn vms_per_host(&self) -> u64 {
        (OVERHEAD_BUDGET / self.overhead()).floor() as u64
    }
}

/// The assembled table.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsolidateReport {
    /// The spec the table was measured under.
    pub spec: ConsolidateSpec,
    /// Rows in fixed table order.
    pub rows: Vec<ConsolidateRow>,
}

/// The fixed table rows: a plain-VM reference plus the four nested
/// configurations of Table 1 (architecture × guest-hypervisor mode).
fn table_configs() -> Vec<(&'static str, ArmConfig)> {
    let nested = |guest_vhe, neve| ArmConfig::Nested {
        guest_vhe,
        neve,
        para: ParaMode::None,
    };
    vec![
        ("VM", ArmConfig::Vm),
        ("Nested v8.3", nested(false, false)),
        ("Nested VHE v8.3", nested(true, false)),
        ("Nested NEVE", nested(false, true)),
        ("Nested VHE NEVE", nested(true, true)),
    ]
}

/// Measures one configuration: arms the scheduler tick on every cpu,
/// drives the wheel until each cpu has taken `warmup + measured`
/// ticks, and accounts busy cycles between the two quiescent (every
/// core parked) window boundaries.
fn measure_row(
    label: &str,
    cfg: ArmConfig,
    spec: ConsolidateSpec,
) -> Result<ConsolidateRow, String> {
    let mut tb = TestBed::new_tick(cfg, spec.vcpus);
    let ncpus = spec.vcpus;
    let target = spec.warmup_ticks + spec.measured_ticks;

    // Arm the physical EL2 timer (the host scheduler tick) on every
    // cpu, staggered across one period so wakes interleave. The EL2
    // timer is in no world-switch roster, so the deadline survives
    // every VM entry/exit.
    let mut deadline = vec![0u64; ncpus];
    let t0 = tb.m.counter.cycles();
    for (cpu, d) in deadline.iter_mut().enumerate() {
        tb.m.gic.dist.enable(cpu, PPI_HPTIMER);
        *d = t0 + TICK_PERIOD + (cpu as u64 * TICK_PERIOD) / ncpus as u64;
        tb.m.timers.write(cpu, SysReg::CnthpCvalEl2, *d);
        tb.m.timers.write(cpu, SysReg::CnthpCtlEl2, 1);
    }

    let busy = |tb: &TestBed| tb.m.counter.cycles() - tb.m.counter.cycles_in(Phase::Idle);
    let mut ticks = vec![0u64; ncpus];
    let mut window: Option<(u64, u64)> = None; // (busy, ticks) at warm-up boundary
    let steps = tb
        .exec(|tb| {
            // Re-arm every expired deadline *before* stepping anything:
            // the timer is level-triggered, so an expired cval left armed
            // re-delivers the same tick on every interrupt poll. A cpu
            // that has taken all its ticks gets its timer disabled
            // instead, so the run drains.
            let now = tb.m.counter.cycles();
            for cpu in 0..ncpus {
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
            if !tb.m.runnable().is_empty() {
                return false;
            }
            // Quiescent: every core is parked, all delivered ticks
            // fully processed — the only honest window boundary.
            if window.is_none() && ticks.iter().all(|&t| t >= spec.warmup_ticks) {
                window = Some((busy(tb), ticks.iter().sum()));
            }
            ticks.iter().all(|&t| t >= target)
        })
        .map_err(|f| format!("{label}: {}", f.describe()))?;
    let Some((busy0, ticks0)) = window else {
        return Err(format!("{label}: warm-up window never closed"));
    };
    let total_ticks: u64 = ticks.iter().sum();
    Ok(ConsolidateRow {
        label: label.to_string(),
        busy_cycles: busy(&tb) - busy0,
        ticks: total_ticks - ticks0,
        host_steps: steps,
    })
}

/// Runs the whole table, striping rows across `spec.jobs` threads and
/// combining in fixed table order (bit-identical for any jobs count).
///
/// # Errors
///
/// The first row failure (a stack that crashed, stalled, or never
/// quiesced), labelled with its configuration.
pub fn run_consolidate(spec: ConsolidateSpec) -> Result<ConsolidateReport, String> {
    let configs = table_configs();
    let jobs = spec.jobs.max(1).min(configs.len());
    let mut slots: Vec<Option<Result<ConsolidateRow, String>>> = Vec::new();
    slots.resize_with(configs.len(), || None);
    if jobs <= 1 {
        for (slot, (label, cfg)) in slots.iter_mut().zip(&configs) {
            *slot = Some(measure_row(label, *cfg, spec));
        }
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs)
                .map(|worker| {
                    let configs = &configs;
                    s.spawn(move || {
                        configs
                            .iter()
                            .enumerate()
                            .skip(worker)
                            .step_by(jobs)
                            .map(|(i, (label, cfg))| (i, measure_row(label, *cfg, spec)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(chunk) => {
                        for (i, r) in chunk {
                            slots[i] = Some(r);
                        }
                    }
                    Err(payload) => {
                        let msg = crate::session::panic_message(payload.as_ref());
                        // The worker's rows never arrived; mark them as
                        // failed rather than aborting the process.
                        for slot in slots.iter_mut().filter(|s| s.is_none()) {
                            *slot = Some(Err(format!("consolidate worker panicked: {msg}")));
                        }
                    }
                }
            }
        });
    }
    let mut rows = Vec::with_capacity(slots.len());
    for slot in slots {
        rows.push(slot.expect("row not measured")?);
    }
    Ok(ConsolidateReport { spec, rows })
}

impl ConsolidateReport {
    /// The rendered table (the `neve consolidate` output and the CI
    /// byte-identity artifact).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Multi-VM consolidation: {} co-resident single-vCPU idle \
             guests, one tick each\n(period {} cycles, {} measured \
             ticks/guest, budget {:.0}% of one core)\n\n",
            self.spec.vcpus,
            TICK_PERIOD,
            self.spec.measured_ticks,
            OVERHEAD_BUDGET * 100.0
        ));
        out.push_str(&format!(
            "{:<18} {:>12} {:>10} {:>16}\n",
            "configuration", "cycles/tick", "overhead", "VMs/host @ <=5%"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<18} {:>12.0} {:>9.3}% {:>16}\n",
                r.label,
                r.cycles_per_tick(),
                r.overhead() * 100.0,
                r.vms_per_host()
            ));
        }
        for (a, b, what) in [
            ("Nested NEVE", "Nested v8.3", "non-VHE"),
            ("Nested VHE NEVE", "Nested VHE v8.3", "VHE"),
        ] {
            let find = |l: &str| self.rows.iter().find(|r| r.label == l);
            if let (Some(neve), Some(v83)) = (find(a), find(b)) {
                out.push_str(&format!(
                    "\nNEVE vs v8.3 ({what}): {:.2}x more idle guests per host",
                    neve.vms_per_host() as f64 / v83.vms_per_host().max(1) as f64
                ));
            }
        }
        out.push('\n');
        out
    }

    /// JSON form for `results/consolidate.json`.
    pub fn to_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                JsonValue::Object(vec![
                    ("label".to_string(), JsonValue::String(r.label.clone())),
                    (
                        "busy_cycles".to_string(),
                        JsonValue::Number(r.busy_cycles as f64),
                    ),
                    ("ticks".to_string(), JsonValue::Number(r.ticks as f64)),
                    (
                        "host_steps".to_string(),
                        JsonValue::Number(r.host_steps as f64),
                    ),
                    (
                        "cycles_per_tick".to_string(),
                        JsonValue::Number(r.cycles_per_tick()),
                    ),
                    (
                        "vms_per_host".to_string(),
                        JsonValue::Number(r.vms_per_host() as f64),
                    ),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            (
                "format".to_string(),
                JsonValue::String("neve-consolidate-v1".to_string()),
            ),
            (
                "tick_period".to_string(),
                JsonValue::Number(TICK_PERIOD as f64),
            ),
            (
                "vcpus".to_string(),
                JsonValue::Number(self.spec.vcpus as f64),
            ),
            (
                "measured_ticks".to_string(),
                JsonValue::Number(self.spec.measured_ticks as f64),
            ),
            (
                "overhead_budget".to_string(),
                JsonValue::Number(OVERHEAD_BUDGET),
            ),
            ("rows".to_string(), JsonValue::Array(rows)),
        ])
        .pretty()
    }

    /// Writes the JSON artifact (atomically, like every other
    /// `results/` file).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    pub fn write(&self) -> std::io::Result<()> {
        let path = Path::new(CONSOLIDATE_PATH);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        cache::write_atomically(path, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table_is_deterministic_and_ordered_sanely() {
        let spec = ConsolidateSpec::smoke();
        let a = run_consolidate(spec).expect("consolidate run");
        let b = run_consolidate(spec).expect("consolidate rerun");
        assert_eq!(
            a, b,
            "consolidation table must be bit-identical across runs"
        );
        assert_eq!(a.rows.len(), 5);
        let vms = |label: &str| {
            a.rows
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("missing row {label}"))
                .vms_per_host()
        };
        // A plain VM's tick never leaves the host hypervisor; every
        // nested stack pays a guest-hypervisor round trip on top.
        assert!(vms("VM") > vms("Nested NEVE"));
        // The paper's claim: deferred register access beats
        // trap-and-emulate on the world-switch-heavy tick path.
        assert!(vms("Nested NEVE") > vms("Nested v8.3"));
        assert!(vms("Nested VHE NEVE") > vms("Nested VHE v8.3"));
        // Every stack fits at least one idle guest within budget.
        assert!(a.rows.iter().all(|r| r.vms_per_host() >= 1));
    }

    #[test]
    fn jobs_fanout_is_byte_identical() {
        let spec = ConsolidateSpec::smoke();
        let serial = run_consolidate(spec).expect("serial run");
        let fanned = run_consolidate(ConsolidateSpec { jobs: 3, ..spec }).expect("fanned run");
        assert_eq!(serial.render(), fanned.render());
        assert_eq!(serial.to_json(), fanned.to_json());
    }
}
