//! The simulated machine: cores, memory system, interrupt controller,
//! timers, cycle accounting and the run loop.
//!
//! Control-flow model: guest software (anything at EL0/EL1, including
//! deprivileged guest hypervisors) is interpreted one instruction at a
//! time by [`Machine::step`]. Exceptions taken **to EL2** latch the
//! syndrome registers and synchronously invoke the native-Rust
//! [`Hypervisor`] (the host hypervisor), after which the machine performs
//! the `eret` the handler prepared in `ELR_EL2`/`SPSR_EL2`. Exceptions
//! taken **to EL1** are pure state mutation — the interpreter continues
//! at the EL1 vector. Both rules together give the paper's nested
//! reflection (Section 4) without coroutines: a nested VM's trap enters
//! the host, the host *emulates an exception into virtual EL2* by
//! adjusting EL1 state, and the interpreter finds itself running the
//! guest hypervisor's vector code.

use crate::check::{Checker, Violation, ViolationKind};
use crate::cpu::CoreState;
use crate::fault::{FaultPlan, InjectedFault, Injection, VncrTamper};
use crate::isa::{Instr, Program, Special};
use crate::pstate::Pstate;
use crate::trace::{Trace, TraceEvent};
use crate::uop::{self, CompiledProgram, Engine, Uop};
use crate::ArchLevel;
use neve_core::{Disposition, NeveEngine};
use neve_cycles::{CostModel, CostTable, CycleCounter, Event, Phase, Rank, TrapKind, Waker, Wheel};
use neve_gic::Gic;
use neve_memsim::{walk, Access, PageTable, PhysMem, Tlb, TlbKey, TlbSnapshot};
use neve_sysreg::bits::{esr, hcr, vttbr};
use neve_sysreg::classify::{neve_class, NeveClass};
use neve_sysreg::{RegId, SysReg};
use neve_vtimer::Timers;
use std::cell::Cell;
use std::sync::Arc;

/// Machine construction parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Architecture revision of the hardware.
    pub arch: ArchLevel,
    /// Number of CPU cores.
    pub ncpus: usize,
    /// Physical memory size in bytes.
    pub mem_size: u64,
    /// The cycle cost model.
    pub cost: CostModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            arch: ArchLevel::V8_4,
            ncpus: 1,
            mem_size: 1 << 32,
            cost: CostModel::default(),
        }
    }
}

/// A trapped MMIO access awaiting emulation (the simulator's equivalent
/// of the ISS "instruction syndrome valid" information KVM decodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmioRequest {
    /// True for a store.
    pub write: bool,
    /// GPR that supplies (store) or receives (load) the data.
    pub reg: u8,
    /// Store data (0 for loads).
    pub value: u64,
    /// Faulting intermediate physical address.
    pub ipa: u64,
}

/// What a single [`Machine::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction retired (possibly after trapping to the hypervisor
    /// and returning).
    Executed,
    /// The core is waiting for an interrupt.
    Wfi,
    /// The core executed [`Instr::Halt`].
    Halted(u16),
    /// The program counter points at no loaded program: a simulator
    /// usage error (or a crashed guest that jumped into the weeds).
    FetchFailure(u64),
}

/// Details of the exception that entered EL2, for hypervisor handlers.
#[derive(Debug, Clone, Copy)]
pub struct ExitInfo {
    /// `ESR_EL2` at entry.
    pub esr: u64,
    /// `ELR_EL2` at entry (preferred return address).
    pub elr: u64,
    /// `FAR_EL2` at entry.
    pub far: u64,
    /// `HPFAR_EL2` at entry (faulting IPA page).
    pub hpfar: u64,
}

/// The native-software interface: the host hypervisor running in EL2.
pub trait Hypervisor {
    /// A synchronous exception reached EL2. Syndrome registers are
    /// latched; the handler prepares `ELR_EL2`/`SPSR_EL2` (and any other
    /// state) for the `eret` the machine performs on return.
    fn handle_sync(&mut self, m: &mut Machine, cpu: usize, info: ExitInfo);

    /// A physical interrupt routed to EL2 (`HCR_EL2.IMO`).
    fn handle_irq(&mut self, m: &mut Machine, cpu: usize);
}

/// The machine.
#[derive(Debug)]
pub struct Machine {
    /// Construction parameters.
    pub cfg: MachineConfig,
    /// Physical memory.
    pub mem: PhysMem,
    /// Interrupt controller.
    pub gic: Gic,
    /// Generic timers.
    pub timers: Timers,
    /// Translation cache.
    pub tlb: Tlb,
    /// Cycle and trap accounting.
    pub counter: CycleCounter,
    cores: Vec<CoreState>,
    /// Loaded programs, kept sorted by base address (the ranges are
    /// disjoint — [`Machine::load`] asserts it — so instruction fetch
    /// binary-searches this instead of scanning).
    programs: Vec<Program>,
    /// Per-core index of the program the core last fetched from.
    /// Straight-line code hits this without the binary search. Interior
    /// mutability keeps [`Machine::peek`] (and fetch inside `step`)
    /// `&self`; a `Cell` is `Send`, so machines still cross threads.
    /// Pure performance state: it never changes *what* a fetch returns.
    fetch_hints: Vec<Cell<usize>>,
    /// The ARM half of `cfg.cost` resolved to a flat per-event array;
    /// rebuilt whenever the model's fingerprint changes (see
    /// [`Machine::refresh_cost_table`]).
    cost_table: CostTable,
    pending_mmio: Vec<Option<MmioRequest>>,
    /// Optional execution trace (attach with [`Machine::attach_trace`]).
    pub trace: Option<Trace>,
    /// Machine steps retired (across all CPUs); the clock fault
    /// injections are scheduled against.
    steps: u64,
    /// Optional deterministic injection schedule. `None` (the default)
    /// leaves every execution path untouched.
    fault_plan: Option<FaultPlan>,
    /// Optional invariant checker (attach with
    /// [`Machine::attach_checker`]). Like the trace, pure observability:
    /// never charges cycles, and when detached every hook is one test.
    checker: Option<Checker>,
    /// NEVE deferred accesses performed (would-be traps rewritten into
    /// access-page memory operations). Pure count, for the oracle's
    /// trap-count algebra.
    vncr_deferrals: u64,
    /// System-register traps taken to EL2 whose access *full* NEVE
    /// hardware would have deferred to the access page. On an ARMv8.3
    /// machine this counts exactly the traps NEVE eliminates (paper
    /// Table 7's reduction); the oracle asserts the algebra.
    deferrable_sysreg_traps: u64,
    /// Which engine [`Machine::step`] dispatches through.
    engine: Engine,
    /// Pre-decoded micro-op programs, index-parallel to `programs`
    /// (same sorted order, so `fetch_hints` serve both).
    compiled: Vec<CompiledProgram>,
    /// Per-core cached "no interrupt deliverable" verdicts for the
    /// micro-op engine's poll elision (see [`Machine::quiet_valid`]).
    quiet: Vec<PollQuiet>,
    /// Monotonic snapshot stamp: [`Machine::snapshot`] bumps it, and
    /// [`Machine::restore`] refuses a snapshot from a different stamp —
    /// memory keeps only one copy-on-write window, so only the *latest*
    /// snapshot is restorable.
    snap_epoch: u64,
    /// The discrete-event wheel: exact wake-ups for parked cores.
    wheel: Wheel,
    /// Per-core park state: `Some(waker)` while the core sits in WFI
    /// with the run loop skipping it entirely (see [`Machine::park`]).
    parked: Vec<Option<Waker>>,
    /// The cpus a wheel-driven run loop should step, sorted ascending.
    /// Exactly the complement of `parked`; maintained incrementally so
    /// a loop over it costs nothing per parked core.
    runnable: Vec<usize>,
    /// Bumped on every change to `runnable` (park, wake, restore), so a
    /// run loop can cache its round and re-read it only on change.
    runnable_epoch: u64,
    /// The `(timers, gic)` epoch pair last examined by
    /// [`Machine::service_wakeups`]; an unchanged pair proves no device
    /// mutation since, so the rescan of parked cores is skipped.
    serviced_epochs: (u64, u64),
}

/// Everything [`Machine::restore`] needs to rewind the machine to the
/// moment [`Machine::snapshot`] was called: architectural core state,
/// devices, cycle accounting and the loaded programs. Guest memory is
/// *not* copied here — it rewinds through the copy-on-write undo log in
/// [`PhysMem`], so taking a snapshot is O(1) in memory size and restoring
/// is proportional to the pages dirtied since.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    epoch: u64,
    cores: Vec<CoreState>,
    counter: CycleCounter,
    tlb: TlbSnapshot,
    gic: Gic,
    timers: Timers,
    steps: u64,
    vncr_deferrals: u64,
    deferrable_sysreg_traps: u64,
    pending_mmio: Vec<Option<MmioRequest>>,
    programs: Vec<Program>,
    wheel: Wheel,
    parked: Vec<Option<Waker>>,
    runnable: Vec<usize>,
    serviced_epochs: (u64, u64),
}

/// A cached "the interrupt poll would find nothing" verdict, valid
/// while every input the poll reads is provably unchanged: the timer
/// and GIC mutation epochs, the polled core's exception level,
/// interrupt mask and `HCR_EL2`, and the cycle counter staying inside
/// `[since, until)` — `until` being the earliest armed timer deadline
/// ([`Timers::next_fire_at`]). `since` additionally catches a counter
/// reset between runs, which would re-open wrapped virtual-timer
/// windows.
#[derive(Debug, Clone, Copy, Default)]
struct PollQuiet {
    valid: bool,
    since: u64,
    until: u64,
    timers_epoch: u64,
    gic_epoch: u64,
    el: u8,
    irq_masked: bool,
    dist_enabled: bool,
    hcr: u64,
}

/// Internal: what a system-register access decision resolved to.
enum RouteOutcome {
    Done(u64),
    TrapEl2(TrapKind, u64),
    UndefEl1,
}

impl Machine {
    /// Builds a machine per `cfg`; cores start halted at EL1 with pc 0 —
    /// the embedder (hypervisor harness) sets them up.
    pub fn new(cfg: MachineConfig) -> Self {
        let ncpus = cfg.ncpus;
        Self {
            mem: PhysMem::new(cfg.mem_size),
            gic: Gic::new(ncpus),
            timers: Timers::new(ncpus),
            tlb: Tlb::default(),
            counter: CycleCounter::new(),
            cores: (0..ncpus).map(|_| CoreState::new()).collect(),
            programs: Vec::new(),
            fetch_hints: (0..ncpus).map(|_| Cell::new(0)).collect(),
            cost_table: CostTable::arm(&cfg.cost),
            pending_mmio: vec![None; ncpus],
            trace: None,
            steps: 0,
            fault_plan: None,
            checker: None,
            vncr_deferrals: 0,
            deferrable_sysreg_traps: 0,
            engine: Engine::default(),
            compiled: Vec::new(),
            quiet: vec![PollQuiet::default(); ncpus],
            snap_epoch: 0,
            wheel: Wheel::new(),
            parked: vec![None; ncpus],
            runnable: (0..ncpus).collect(),
            runnable_epoch: 0,
            serviced_epochs: (0, 0),
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Snapshot / restore.
    // ------------------------------------------------------------------

    /// Captures the machine's architectural state and opens the
    /// copy-on-write window in guest memory.
    ///
    /// The snapshot owns clones of the core register files, PSTATE,
    /// system registers, GIC, timers, TLB contents, cycle/trap
    /// accounting, oracle counters, pending MMIO and the loaded program
    /// list (cheap `Arc` clones). Memory itself is not copied: writes
    /// after this call log their pre-image pages, so
    /// [`Machine::restore`] costs time proportional to the dirty set.
    ///
    /// Only the most recent snapshot is restorable (memory keeps a
    /// single undo window); taking a new snapshot invalidates older
    /// handles, which [`Machine::restore`] enforces.
    pub fn snapshot(&mut self) -> MachineSnapshot {
        self.snap_epoch += 1;
        self.mem.begin_snapshot();
        let tlb = self.tlb.begin_snapshot();
        MachineSnapshot {
            epoch: self.snap_epoch,
            cores: self.cores.clone(),
            counter: self.counter.clone(),
            tlb,
            gic: self.gic.clone(),
            timers: self.timers.clone(),
            steps: self.steps,
            vncr_deferrals: self.vncr_deferrals,
            deferrable_sysreg_traps: self.deferrable_sysreg_traps,
            pending_mmio: self.pending_mmio.clone(),
            programs: self.programs.clone(),
            wheel: self.wheel.clone(),
            parked: self.parked.clone(),
            runnable: self.runnable.clone(),
            serviced_epochs: self.serviced_epochs,
        }
    }

    /// Rewinds the machine to `snap`'s capture point. The copy-on-write
    /// window stays open, so the same snapshot can be restored again —
    /// the shape of a fuzzing loop (snapshot once, restore per case).
    ///
    /// A restored machine is bit-identical to the captured one for every
    /// architectural observer: registers, PSTATE, memory, devices, TLB
    /// contents (restored, not flushed, so post-restore walk charges
    /// replay exactly), cycle accounting and step counts. Pure
    /// performance state — fetch hints and the micro-op engine's cached
    /// quiet verdicts — is invalidated instead, which an engine can
    /// never observe architecturally. Observers (trace, fault plan,
    /// checker) are *detached*: they record history, and the history
    /// just rewound — a restore after a fault-corrupted run yields a
    /// clean machine.
    ///
    /// # Panics
    ///
    /// Panics if `snap` is not the machine's most recent snapshot.
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        assert_eq!(
            snap.epoch, self.snap_epoch,
            "restore of a stale snapshot (memory keeps one undo window)"
        );
        self.mem.restore_snapshot();
        self.tlb.restore_snapshot(&snap.tlb);
        self.cores.clone_from(&snap.cores);
        self.counter.clone_from(&snap.counter);
        self.gic.clone_from(&snap.gic);
        self.timers.clone_from(&snap.timers);
        self.steps = snap.steps;
        self.vncr_deferrals = snap.vncr_deferrals;
        self.deferrable_sysreg_traps = snap.deferrable_sysreg_traps;
        self.pending_mmio.clone_from(&snap.pending_mmio);
        // Scheduler state rewinds with everything else: a wheel event
        // posted after the snapshot would otherwise fire against the
        // restored (earlier) clock — the stale-event use-after-restore
        // bug — and a core parked after the snapshot would stay
        // invisibly skipped forever.
        self.wheel.clone_from(&snap.wheel);
        self.parked.clone_from(&snap.parked);
        self.runnable.clone_from(&snap.runnable);
        self.runnable_epoch += 1;
        self.serviced_epochs = snap.serviced_epochs;
        // Observers are history, and the history just rewound.
        self.trace = None;
        self.fault_plan = None;
        self.checker = None;
        // Pure performance state: never architecturally observable, so
        // invalidating is always safe (and cheaper than reasoning about
        // whether the cached facts survived the rewind).
        for h in &self.fetch_hints {
            h.set(0);
        }
        for q in &mut self.quiet {
            *q = PollQuiet::default();
        }
        // Programs changed since the snapshot (a fuzz case swapped one
        // in): put the captured list back and rebuild the micro-op
        // images. The common restore (same programs) skips the rebuild.
        let same = self.programs.len() == snap.programs.len()
            && self
                .programs
                .iter()
                .zip(&snap.programs)
                .all(|(a, b)| a.base == b.base && Arc::ptr_eq(&a.code, &b.code));
        if !same {
            self.programs = snap.programs.clone();
            self.compiled = self
                .programs
                .iter()
                .map(|p| uop::compile(p, &self.cost_table))
                .collect();
        }
    }

    // ------------------------------------------------------------------
    // Discrete-event scheduling.
    //
    // The wheel-driven run loop protocol:
    //
    //   1. Step only the cpus in `runnable()`.
    //   2. A step returning `Wfi` -> `park(hyp, cpu)`; parked cores
    //      drop out of `runnable` and cost zero host work.
    //   3. After each step, `service_wakeups(hyp)` — O(1) when nothing
    //      happened: it compares two epoch words and peeks the wheel.
    //   4. When `runnable()` is empty, `advance_to_wake(hyp)` jumps the
    //      clock (as `Phase::Idle` cycles) to the earliest pending
    //      event; `false` means no event is armed — a real deadlock.
    //
    // Everything here is deterministic: wake order is the wheel's
    // `(time, rank, cpu, seq)` total order, and the epoch rescan walks
    // cpus in index order. The scheduler only decides *when* a core is
    // stepped; the step itself charges exactly what it always charged,
    // which is why the recorded microbenchmark matrices are
    // bit-identical under it.
    // ------------------------------------------------------------------

    /// Parks `cpu` after a step returned [`StepOutcome::Wfi`]: the core
    /// leaves the runnable set and registers a [`Waker`] (its earliest
    /// armed timer deadline plus the device epochs it observed).
    ///
    /// Polls interrupts first — between the WFI step and this call
    /// another core may have made an interrupt deliverable, and parking
    /// on top of it would sleep through a wake that already happened.
    /// Returns `false` (not parked) in that case.
    pub fn park(&mut self, hyp: &mut dyn Hypervisor, cpu: usize) -> bool {
        if self.parked[cpu].is_some() {
            return true;
        }
        if self.poll_interrupts(cpu, hyp) || !self.cores[cpu].wfi {
            return false;
        }
        let now = self.counter.cycles();
        let wake_at = self.timers.next_fire_at(cpu, now);
        self.parked[cpu] = Some(Waker {
            wake_at,
            timers_epoch: self.timers.epoch_of(cpu),
            gic_epoch: self.gic.epoch_of(cpu),
        });
        if wake_at != u64::MAX {
            self.wheel.post(wake_at, Rank::Timer, cpu);
        }
        self.runnable.retain(|&c| c != cpu);
        self.runnable_epoch += 1;
        true
    }

    /// The cpus a wheel-driven run loop should step: every core not
    /// parked, sorted ascending.
    pub fn runnable(&self) -> &[usize] {
        &self.runnable
    }

    /// Changes whenever [`Machine::runnable`] does: an unchanged value
    /// proves the set is the same, so a run loop may keep its copy.
    pub fn runnable_epoch(&self) -> u64 {
        self.runnable_epoch
    }

    /// True while `cpu` is parked (skipped by wheel-driven run loops).
    pub fn is_parked(&self, cpu: usize) -> bool {
        self.parked[cpu].is_some()
    }

    /// Wakes `cpu` out of WFI unconditionally (PSCI `CPU_ON`, explicit
    /// kicks): clears the wait flag and returns the core to the
    /// runnable set. Any wheel event it left behind becomes stale and
    /// is dropped when popped.
    pub fn kick(&mut self, cpu: usize) {
        self.cores[cpu].wfi = false;
        self.unpark(cpu);
    }

    fn unpark(&mut self, cpu: usize) {
        if self.parked[cpu].take().is_some() {
            if let Err(i) = self.runnable.binary_search(&cpu) {
                self.runnable.insert(i, cpu);
                self.runnable_epoch += 1;
            }
        }
    }

    /// Re-polls a parked core. Unparks (returning `true`) when the poll
    /// delivers or the wait flag was cleared behind its back; otherwise
    /// refreshes the waker in place — the deadline may have moved — and
    /// leaves the core parked.
    fn try_unpark(&mut self, hyp: &mut dyn Hypervisor, cpu: usize) -> bool {
        if self.poll_interrupts(cpu, hyp) || !self.cores[cpu].wfi {
            self.unpark(cpu);
            return true;
        }
        let now = self.counter.cycles();
        let wake_at = self.timers.next_fire_at(cpu, now);
        let refreshed = Waker {
            wake_at,
            timers_epoch: self.timers.epoch_of(cpu),
            gic_epoch: self.gic.epoch_of(cpu),
        };
        let prev = self.parked[cpu].replace(refreshed);
        if prev.is_none_or(|p| p.wake_at != wake_at) && wake_at != u64::MAX {
            self.wheel.post(wake_at, Rank::Timer, cpu);
        }
        false
    }

    /// Delivers every wake-up that is due: pops due wheel events (exact
    /// timer deadlines) in `(time, rank, cpu, seq)` order, and — only
    /// when a device epoch moved since the last call — re-polls the
    /// parked cores whose *own* wake inputs changed (an SGI targeting
    /// them, their timer bank re-armed, their SPI retargeted). Returns
    /// true if any core rejoined the runnable set.
    ///
    /// Two cost tiers keep this affordable after every step: nothing
    /// happened is O(1) (one epoch-pair compare), and a world switch on
    /// a running core — which churns its own timers and list registers
    /// every trap — costs one cached-u64 compare per parked core, never
    /// a re-poll. Only a change that actually touches a parked core's
    /// per-CPU epochs reaches `try_unpark`. With no core parked the
    /// call returns at once: wheel events only ever wake parked cores
    /// (one left behind by a core that woke some other way is stale
    /// and dropped whenever it is popped), and every waker records its
    /// own epochs at park time.
    #[inline]
    pub fn service_wakeups(&mut self, hyp: &mut dyn Hypervisor) -> bool {
        if self.runnable.len() == self.parked.len() {
            return false;
        }
        self.service_parked(hyp)
    }

    /// [`Machine::service_wakeups`] with at least one core parked.
    fn service_parked(&mut self, hyp: &mut dyn Hypervisor) -> bool {
        let mut woke = false;
        let now = self.counter.cycles();
        while let Some(ev) = self.wheel.pop_due(now) {
            // Events for cores that already woke some other way are
            // stale; the park state is authoritative.
            if self.parked[ev.cpu].is_some() {
                woke |= self.try_unpark(hyp, ev.cpu);
            }
        }
        let epochs = (self.timers.epoch(), self.gic.epoch());
        if epochs != self.serviced_epochs {
            self.serviced_epochs = epochs;
            for cpu in 0..self.parked.len() {
                let Some(w) = self.parked[cpu] else { continue };
                if w.timers_epoch != self.timers.epoch_of(cpu)
                    || w.gic_epoch != self.gic.epoch_of(cpu)
                {
                    woke |= self.try_unpark(hyp, cpu);
                }
            }
        }
        woke
    }

    /// With every core parked, jumps the clock to the next pending
    /// event and delivers it. The skipped window is charged as
    /// [`Phase::Idle`] cycles: simulated time passes, host work does
    /// not. Returns `false` when no event can ever wake the machine
    /// (every core in WFI with nothing armed — a guest deadlock).
    pub fn advance_to_wake(&mut self, hyp: &mut dyn Hypervisor) -> bool {
        loop {
            let Some(ev) = self.wheel.pop() else {
                return false;
            };
            if self.parked[ev.cpu].is_none() {
                continue; // stale
            }
            let now = self.counter.cycles();
            if ev.time > now {
                let prev = self.counter.set_phase(Phase::Idle);
                self.counter.advance(ev.time - now);
                self.counter.set_phase(prev);
            }
            if self.try_unpark(hyp, ev.cpu) {
                return true;
            }
            // Spurious (e.g. the timer fired but the core keeps IRQs
            // masked): the waker was refreshed, keep draining.
        }
    }

    /// Selects the execution engine for subsequent steps.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The selected execution engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The pre-decoded micro-op programs (index-parallel to the loaded
    /// programs; test/bench introspection).
    pub fn compiled_programs(&self) -> &[CompiledProgram] {
        &self.compiled
    }

    /// Re-resolves the precomputed cost table if `cfg.cost` changed
    /// since it was built ([`CostModel::fingerprint`] comparison).
    /// Harnesses call this at run boundaries, so per-step charges can
    /// index the flat table instead of re-matching the model — with
    /// identical results, since the table is built by evaluating
    /// [`CostModel::arm_cost`] over every event.
    pub fn refresh_cost_table(&mut self) {
        if !self.cost_table.matches(&self.cfg.cost) {
            self.cost_table = CostTable::arm(&self.cfg.cost);
            // The micro-op programs bake cost-table values in at decode
            // time; a model change invalidates every compiled program.
            for (i, p) in self.programs.iter().enumerate() {
                self.compiled[i] = uop::compile(p, &self.cost_table);
            }
        }
    }

    /// Attaches an execution trace keeping the last `capacity` events.
    pub fn attach_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// Attaches a deterministic fault-injection schedule. Injections
    /// fire from the *next* step onward; attach before running.
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The attached fault plan, if any (inspect `applied()` after a
    /// run to see how many injections actually fired).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Machine steps retired so far, the clock injections fire against.
    pub fn steps_retired(&self) -> u64 {
        self.steps
    }

    /// Attaches an invariant checker (checked mode). From now on every
    /// step validates the structural invariants and every EL transition
    /// is checked for legality; violations accumulate in the checker.
    pub fn attach_checker(&mut self) {
        self.checker = Some(Checker::new());
    }

    /// The attached checker, if any.
    pub fn checker(&self) -> Option<&Checker> {
        self.checker.as_ref()
    }

    /// Detaches and returns the checker with its findings.
    pub fn take_checker(&mut self) -> Option<Checker> {
        self.checker.take()
    }

    /// NEVE deferred accesses performed so far (oracle counter).
    pub fn vncr_deferrals(&self) -> u64 {
        self.vncr_deferrals
    }

    /// Sysreg traps taken whose access full NEVE hardware would defer
    /// (oracle counter; counts NEVE's eliminated traps on ARMv8.3).
    pub fn deferrable_sysreg_traps(&self) -> u64 {
        self.deferrable_sysreg_traps
    }

    /// Records a checker violation at the current step (no-op when no
    /// checker is attached).
    fn check_violation(&mut self, cpu: usize, kind: ViolationKind, detail: String) {
        if let Some(c) = &mut self.checker {
            c.record(Violation {
                step: self.steps,
                cpu,
                kind,
                detail,
            });
        }
    }

    /// Loads a program into the flat interpreter address space.
    ///
    /// # Panics
    ///
    /// Panics if it overlaps an already-loaded program (all guest images
    /// must occupy disjoint virtual ranges; see DESIGN.md).
    pub fn load(&mut self, prog: Program) {
        for p in &self.programs {
            let disjoint = prog.end() <= p.base || prog.base >= p.end();
            assert!(
                disjoint,
                "program [{:#x},{:#x}) overlaps [{:#x},{:#x})",
                prog.base,
                prog.end(),
                p.base,
                p.end()
            );
        }
        // Keep the list sorted by base: the ranges are disjoint, so
        // fetch can binary-search for the unique candidate program.
        let at = self.programs.partition_point(|p| p.base < prog.base);
        self.compiled
            .insert(at, uop::compile(&prog, &self.cost_table));
        self.programs.insert(at, prog);
        // Indices shifted; a stale hint could now point fetch at the
        // wrong program, so every hint is reset whenever the program
        // list mutates (here and in [`Machine::replace_program`]).
        for h in &self.fetch_hints {
            h.set(0);
        }
    }

    /// Replaces whatever is loaded in `prog`'s address range: any
    /// program overlapping it is unloaded, then `prog` is loaded.
    /// Returns the number of programs removed.
    ///
    /// Like [`Machine::load`], this resets every fetch hint — a hint
    /// left pointing at a removed or shifted entry must never serve a
    /// fetch from the wrong program (the pre-decoded micro-op image is
    /// dropped and rebuilt with it).
    pub fn replace_program(&mut self, prog: Program) -> usize {
        let mut removed = 0;
        let mut i = 0;
        while i < self.programs.len() {
            let p = &self.programs[i];
            let overlaps = prog.end() > p.base && prog.base < p.end();
            if overlaps {
                self.programs.remove(i);
                self.compiled.remove(i);
                removed += 1;
            } else {
                i += 1;
            }
        }
        self.load(prog);
        removed
    }

    /// Immutable core access.
    pub fn core(&self, cpu: usize) -> &CoreState {
        &self.cores[cpu]
    }

    /// Mutable core access (hypervisor handlers rewrite state through
    /// this; architectural costs must be charged via the `hyp_*`
    /// helpers).
    pub fn core_mut(&mut self, cpu: usize) -> &mut CoreState {
        &mut self.cores[cpu]
    }

    /// Number of cores.
    pub fn ncpus(&self) -> usize {
        self.cores.len()
    }

    // ------------------------------------------------------------------
    // Host (EL2 native software) access helpers: charge hardware costs.
    // ------------------------------------------------------------------

    /// Host hypervisor system-register read (EL2 privilege, no traps).
    pub fn hyp_read(&mut self, cpu: usize, reg: SysReg) -> u64 {
        let c = self.cost_table.cost(Event::SysRegRead);
        self.counter.charge(Event::SysRegRead, c);
        self.read_storage(cpu, reg)
    }

    /// Host hypervisor system-register write.
    pub fn hyp_write(&mut self, cpu: usize, reg: SysReg, value: u64) {
        let c = self.cost_table.cost(Event::SysRegWrite);
        self.counter.charge(Event::SysRegWrite, c);
        self.write_storage(cpu, reg, value);
    }

    /// Host physical-memory read (one 64-bit word).
    pub fn hyp_mem_read(&mut self, pa: u64) -> u64 {
        let c = self.cost_table.cost(Event::MemLoad);
        self.counter.charge(Event::MemLoad, c);
        self.mem.read_u64(pa)
    }

    /// Host physical-memory write.
    pub fn hyp_mem_write(&mut self, pa: u64, v: u64) {
        let c = self.cost_table.cost(Event::MemStore);
        self.counter.charge(Event::MemStore, c);
        self.mem.write_u64(pa, v);
    }

    /// Lump-sum software work in the host hypervisor (modelled C paths).
    pub fn hyp_work(&mut self, cycles: u64) {
        self.counter.charge_software(cycles);
    }

    /// Host TLB maintenance for one VMID.
    pub fn hyp_tlbi_vmid(&mut self, vmid: u16) {
        let c = self.cost_table.cost(Event::TlbFlush);
        self.counter.charge(Event::TlbFlush, c);
        self.tlb.flush_vmid(vmid);
    }

    /// Takes the pending MMIO request for `cpu`, if any.
    pub fn take_mmio(&mut self, cpu: usize) -> Option<MmioRequest> {
        self.pending_mmio[cpu].take()
    }

    /// Completes a trapped MMIO *load* by writing the destination GPR.
    pub fn complete_mmio_read(&mut self, cpu: usize, req: MmioRequest, value: u64) {
        debug_assert!(!req.write);
        self.cores[cpu].set_gpr(req.reg, value);
    }

    // ------------------------------------------------------------------
    // Register storage routing (no trap logic; privileged perspective).
    // ------------------------------------------------------------------

    fn read_storage(&mut self, cpu: usize, reg: SysReg) -> u64 {
        use SysReg::*;
        match reg {
            IchHcrEl2 | IchVtrEl2 | IchVmcrEl2 | IchMisrEl2 | IchEisrEl2 | IchElrsrEl2
            | IchAp0rEl2(_) | IchAp1rEl2(_) | IchLrEl2(_) => self.gic.ich_read(cpu, reg),
            r if Timers::owns(r) => {
                let now = self.counter.cycles();
                self.timers.read(cpu, r, now)
            }
            r => self.cores[cpu].regs.read(r),
        }
    }

    fn write_storage(&mut self, cpu: usize, reg: SysReg, value: u64) {
        use SysReg::*;
        match reg {
            IchHcrEl2 | IchVtrEl2 | IchVmcrEl2 | IchMisrEl2 | IchEisrEl2 | IchElrsrEl2
            | IchAp0rEl2(_) | IchAp1rEl2(_) | IchLrEl2(_) => self.gic.ich_write(cpu, reg, value),
            r if Timers::owns(r) => self.timers.write(cpu, r, value),
            VncrEl2 => {
                // The architected layout (paper Section 6.1): bits [11:1]
                // and [63:53] are RES0. A raw value carrying them is a
                // host bug — the hardware silently RES0s, but we surface
                // the discrepancy in the trace and to the checker
                // instead of masking it invisibly.
                let vncr = match neve_core::VncrEl2::try_from_raw(value) {
                    Ok(v) => v,
                    Err(e) => {
                        if let Some(t) = &mut self.trace {
                            t.push(TraceEvent::VncrRawSanitized { cpu, raw: value });
                        }
                        if self.checker.is_some() {
                            self.check_violation(
                                cpu,
                                ViolationKind::VncrReservedBits,
                                format!("raw write {value:#x}: {e}"),
                            );
                        }
                        neve_core::VncrEl2::from_raw(value)
                    }
                };
                if self.checker.is_some() && self.cores[cpu].pstate.el < 2 {
                    self.check_violation(
                        cpu,
                        ViolationKind::VncrWriteOutsideEl2,
                        format!("EL{} wrote VNCR_EL2", self.cores[cpu].pstate.el),
                    );
                }
                // The register file holds the sanitized value: reserved
                // bits read back as zero.
                self.cores[cpu].regs.write(reg, vncr.raw());
                self.cores[cpu].neve.vncr = vncr;
            }
            r => self.cores[cpu].regs.write_checked(r, value),
        }
    }

    // ------------------------------------------------------------------
    // Exception machinery.
    // ------------------------------------------------------------------

    fn hw_hcr(&self, cpu: usize) -> u64 {
        self.cores[cpu].regs.read(SysReg::HcrEl2)
    }

    fn nv_active(&self, cpu: usize) -> bool {
        self.cfg.arch.has_nv() && self.hw_hcr(cpu) & hcr::NV != 0
    }

    fn nv2_active(&self, cpu: usize) -> bool {
        self.cfg.arch.has_nv2()
            && self.hw_hcr(cpu) & hcr::NV2 != 0
            && self.nv_active(cpu)
            && self.cores[cpu].neve.enabled()
    }

    /// Latches syndrome state and raises the EL to 2. The caller then
    /// invokes the hypervisor and afterwards [`Machine::eret_from_el2`].
    ///
    /// Provenance: the trap itself is attributed to the phase it
    /// interrupted (almost always [`Phase::Guest`]), the hardware entry
    /// cycles to [`Phase::TrapEntry`], and the counter is left in
    /// [`Phase::HostSw`] — the baseline for the native handler, which
    /// marks finer phases itself via [`Machine::phase`].
    fn enter_el2(
        &mut self,
        cpu: usize,
        kind: TrapKind,
        esr_val: u64,
        far: u64,
        hpfar: u64,
        ret: u64,
    ) -> ExitInfo {
        if self.checker.is_some() {
            let from_el = self.cores[cpu].pstate.el;
            if from_el > 1 {
                self.check_violation(
                    cpu,
                    ViolationKind::IllegalElTransition,
                    format!("trap to EL2 from EL{from_el} (EL2 is native, it cannot trap)"),
                );
            }
            // Trap entry is a synchronization point: everything the TLB
            // cached about the live Stage-2 regime must still agree
            // with a fresh walk of the tables.
            self.check_tlb_coherence(cpu);
        }
        let from_phase = self.counter.phase();
        self.counter.record_trap(kind);
        self.counter.set_phase(Phase::TrapEntry);
        let c = self.cost_table.cost(Event::TrapEnter);
        self.counter.charge(Event::TrapEnter, c);
        if self.trace.is_some() {
            // Which register access pulled us in: system-register traps
            // carry the register code in the ISS (the TLB-maintenance
            // marker `iss == 1` intentionally decodes to none).
            let iss = esr::iss(esr_val);
            let sysreg = (kind == TrapKind::SysReg && iss != 1)
                .then(|| neve_sysreg::regcode::parse_sysreg_iss(iss))
                .flatten()
                .map(|(id, _, _)| id);
            if let Some(t) = &mut self.trace {
                t.push(TraceEvent::TrapToEl2 {
                    cpu,
                    kind,
                    esr: esr_val,
                    pc: ret,
                    phase: from_phase,
                    sysreg,
                });
            }
        }
        let spsr = self.cores[cpu].pstate.to_spsr();
        let regs = &mut self.cores[cpu].regs;
        regs.write(SysReg::EsrEl2, esr_val);
        regs.write(SysReg::FarEl2, far);
        regs.write(SysReg::HpfarEl2, hpfar);
        regs.write(SysReg::ElrEl2, ret);
        regs.write(SysReg::SpsrEl2, spsr);
        self.cores[cpu].pstate = Pstate {
            el: 2,
            irq_masked: true,
            fiq_masked: true,
        };
        self.counter.set_phase(Phase::HostSw);
        ExitInfo {
            esr: esr_val,
            elr: ret,
            far,
            hpfar,
        }
    }

    /// Returns from EL2 using `ELR_EL2`/`SPSR_EL2` (the hardware `eret`
    /// the machine performs after a native handler finishes). Leaves the
    /// counter back in [`Phase::Guest`].
    fn eret_from_el2(&mut self, cpu: usize) {
        self.counter.set_phase(Phase::TrapReturn);
        let c = self.cost_table.cost(Event::TrapReturn);
        self.counter.charge(Event::TrapReturn, c);
        let elr = self.cores[cpu].regs.read(SysReg::ElrEl2);
        let spsr = self.cores[cpu].regs.read(SysReg::SpsrEl2);
        self.cores[cpu].pstate = Pstate::from_spsr(spsr);
        if self.checker.is_some() && self.cores[cpu].pstate.el > 1 {
            let el = self.cores[cpu].pstate.el;
            self.check_violation(
                cpu,
                ViolationKind::IllegalElTransition,
                format!("host eret targets EL{el} (must lower into guest context)"),
            );
        }
        self.cores[cpu].pc = elr;
        self.counter.set_phase(Phase::Guest);
    }

    /// Host hypervisor: marks the world-switch phase now executing, for
    /// per-phase cycle/trap attribution and trace provenance. Returns
    /// the previous phase so callers can scope a region and restore it.
    /// Pure accounting — charges no cycles — so marking phases can never
    /// perturb measured numbers; a trace marker is pushed only when the
    /// phase actually changes.
    pub fn phase(&mut self, cpu: usize, phase: Phase) -> Phase {
        let prev = self.counter.set_phase(phase);
        if prev != phase {
            if let Some(t) = &mut self.trace {
                t.push(TraceEvent::PhaseChange { cpu, phase });
            }
        }
        prev
    }

    /// Delivers an exception to EL1 (state mutation only).
    ///
    /// `vector_offset` follows the architectural table: 0x200 sync /
    /// 0x280 IRQ from the current EL with SP_ELx, 0x400 / 0x480 from a
    /// lower EL.
    fn enter_el1(&mut self, cpu: usize, esr_val: u64, far: u64, ret: u64, is_irq: bool) {
        let c = self.cost_table.cost(Event::El1ExceptionEntry);
        self.counter.charge(Event::El1ExceptionEntry, c);
        let from_el = self.cores[cpu].pstate.el;
        if self.checker.is_some() && from_el > 1 {
            self.check_violation(
                cpu,
                ViolationKind::IllegalElTransition,
                format!("exception to EL1 from EL{from_el}"),
            );
        }
        let base = if from_el == 1 { 0x200 } else { 0x400 };
        let off = base + if is_irq { 0x80 } else { 0 };
        let spsr = self.cores[cpu].pstate.to_spsr();
        let regs = &mut self.cores[cpu].regs;
        regs.write(SysReg::EsrEl1, esr_val);
        regs.write(SysReg::FarEl1, far);
        regs.write(SysReg::ElrEl1, ret);
        regs.write(SysReg::SpsrEl1, spsr);
        let vbar = regs.read(SysReg::VbarEl1);
        if let Some(t) = &mut self.trace {
            t.push(TraceEvent::ExceptionToEl1 {
                cpu,
                esr: esr_val,
                vector: vbar + off,
            });
        }
        self.cores[cpu].pstate = Pstate {
            el: 1,
            irq_masked: true,
            fiq_masked: true,
        };
        self.cores[cpu].pc = vbar + off;
    }

    // ------------------------------------------------------------------
    // Guest system-register access routing (the trap decision tree of
    // paper Sections 2 and 4, plus NEVE's Section 6 rewrites).
    // ------------------------------------------------------------------

    /// Routes a guest `mrs`/`msr` at the core's current EL. `rt` is the
    /// transfer GPR, encoded into the trap syndrome for the hypervisor.
    ///
    /// Returns the value read (reads) or 0 (writes), or the trap that
    /// must be taken instead.
    fn route_sysreg(
        &mut self,
        cpu: usize,
        id: RegId,
        write: bool,
        val: u64,
        rt: u8,
    ) -> RouteOutcome {
        let el = self.cores[cpu].pstate.el;
        match el {
            2 => self.route_sysreg_el2(cpu, id, write, val),
            1 => self.route_sysreg_el1(cpu, id, write, val, rt),
            _ => self.route_sysreg_el0(cpu, id, write, val),
        }
    }

    fn route_sysreg_el2(&mut self, cpu: usize, id: RegId, write: bool, val: u64) -> RouteOutcome {
        // Only reached if a *program* runs at EL2 (bare-metal payloads in
        // unit tests); the host hypervisor is native and uses hyp_read /
        // hyp_write. VHE alias names resolve to the EL1 storage; plain
        // EL1 names under E2H redirect to the EL2 counterpart when one
        // exists (ARMv8.1 semantics, paper Section 2).
        let e2h = self.cfg.arch.has_vhe() && self.hw_hcr(cpu) & hcr::E2H != 0;
        let target = match id {
            RegId::El12(r) | RegId::El02(r) => {
                if !self.cfg.arch.has_vhe() {
                    return RouteOutcome::UndefEl1; // undefined encoding
                }
                r
            }
            RegId::Plain(r) => {
                if e2h && !r.is_el2() {
                    neve_sysreg::classify::el1_counterpart_inverse(r).unwrap_or(r)
                } else {
                    r
                }
            }
        };
        RouteOutcome::Done(self.perform(cpu, target, write, val))
    }

    fn route_sysreg_el1(
        &mut self,
        cpu: usize,
        id: RegId,
        write: bool,
        val: u64,
        rt: u8,
    ) -> RouteOutcome {
        let nv = self.nv_active(cpu);
        let nv1 = self.hw_hcr(cpu) & hcr::NV1 != 0;
        let base = id.base_reg();
        let sysreg_esr = esr::build(
            esr::EC_SYSREG,
            neve_sysreg::regcode::sysreg_iss(id, write, rt),
        );

        // VHE-added alias names (`*_EL12`, `*_EL02`): undefined below EL2
        // without NV; with NV they always trap (paper Section 7.1 notes
        // even the timer EL02 forms "always trap"); with NV2 they are VM
        // register accesses and defer to the access page.
        if id.is_vhe_alias() {
            if !nv {
                return RouteOutcome::UndefEl1;
            }
            if self.nv2_active(cpu) {
                let vhe_guest = true; // only VHE guests emit these names
                match self.cores[cpu].neve.disposition(id, write, vhe_guest) {
                    Disposition::Memory { offset } => {
                        return RouteOutcome::Done(
                            self.vncr_slot_access(cpu, id, offset, write, val),
                        );
                    }
                    Disposition::RedirectEl1(t) => {
                        return RouteOutcome::Done(self.perform(cpu, t, write, val));
                    }
                    Disposition::Trap | Disposition::Passthrough => {}
                }
            }
            self.note_deferrable_trap(id, write, true);
            return RouteOutcome::TrapEl2(TrapKind::SysReg, sysreg_esr);
        }

        if base.is_el2() {
            // A hypervisor instruction. UNDEFINED at EL1 without nested
            // virtualization (the crash the paper describes in Section
            // 2); trapped with NV; rewritten with NEVE.
            if !nv {
                return RouteOutcome::UndefEl1;
            }
            if self.nv2_active(cpu) {
                // The guest's (virtual) E2H selects the TCR/TTBR0
                // treatment; NV1 clear means the host runs a VHE guest.
                let vhe_guest = !nv1;
                match self.cores[cpu].neve.disposition(id, write, vhe_guest) {
                    Disposition::Memory { offset } => {
                        return RouteOutcome::Done(
                            self.vncr_slot_access(cpu, id, offset, write, val),
                        );
                    }
                    Disposition::RedirectEl1(t) => {
                        return RouteOutcome::Done(self.perform(cpu, t, write, val));
                    }
                    Disposition::Trap | Disposition::Passthrough => {}
                }
            }
            self.note_deferrable_trap(id, write, !nv1);
            return RouteOutcome::TrapEl2(TrapKind::SysReg, sysreg_esr);
        }

        // Plain EL1/EL0-named access at EL1.
        if nv
            && nv1
            && matches!(
                neve_class(base),
                NeveClass::VmExecutionControl | NeveClass::DebugTrapOnWrite
            )
        {
            // The EL1 register file holds the *VM's* state while a
            // non-VHE guest hypervisor runs (paper Section 4, second
            // kind): these accesses trap (TVM/TRVM/NV1) or, with NEVE,
            // defer to the access page.
            if self.nv2_active(cpu) {
                if let Disposition::Memory { offset } =
                    self.cores[cpu].neve.disposition(id, write, false)
                {
                    return RouteOutcome::Done(self.vncr_slot_access(cpu, id, offset, write, val));
                }
            }
            self.note_deferrable_trap(id, write, false);
            return RouteOutcome::TrapEl2(TrapKind::SysReg, sysreg_esr);
        }

        // GIC SGI generation traps to the hypervisor when running as a VM
        // (virtual IPIs are emulated, paper Section 5's Virtual IPI
        // microbenchmark).
        if base == SysReg::IccSgi1rEl1 && write && self.hw_hcr(cpu) & hcr::IMO != 0 {
            return RouteOutcome::TrapEl2(TrapKind::SysReg, sysreg_esr);
        }

        // EL1 physical-timer access traps when the hypervisor keeps
        // CNTHCTL_EL2.EL1PCEN clear for a VM.
        if matches!(base, SysReg::CntpCtlEl0 | SysReg::CntpCvalEl0)
            && self.hw_hcr(cpu) & hcr::VM != 0
        {
            let cnthctl = self.read_storage(cpu, SysReg::CnthctlEl2);
            if cnthctl & neve_sysreg::bits::cnthctl::EL1PCEN == 0 {
                return RouteOutcome::TrapEl2(TrapKind::SysReg, sysreg_esr);
            }
        }

        RouteOutcome::Done(self.perform(cpu, base, write, val))
    }

    fn route_sysreg_el0(&mut self, cpu: usize, id: RegId, write: bool, val: u64) -> RouteOutcome {
        let base = id.base_reg();
        if id.is_vhe_alias() || base.min_el() > 0 {
            return RouteOutcome::UndefEl1;
        }
        RouteOutcome::Done(self.perform(cpu, base, write, val))
    }

    /// Performs an (already-routed) register access with device dispatch
    /// and VM-interrupt-interface semantics.
    fn perform(&mut self, cpu: usize, reg: SysReg, write: bool, val: u64) -> u64 {
        use SysReg::*;
        let virtual_if = self.cores[cpu].pstate.el <= 1 && self.hw_hcr(cpu) & hcr::IMO != 0;
        match (reg, write) {
            // The GIC CPU interface: a VM (IMO set) talks to the *virtual*
            // interface backed by list registers — acknowledge and EOI
            // complete in hardware without traps (paper's Virtual EOI).
            (IccIar1El1, false) => {
                if virtual_if {
                    self.gic.virq_ack(cpu).map(u64::from).unwrap_or(1023)
                } else {
                    self.gic.dist.ack(cpu).map(u64::from).unwrap_or(1023)
                }
            }
            (IccEoir1El1, true) => {
                if virtual_if {
                    self.gic.virq_eoi(cpu, val as u32);
                } else {
                    self.gic.dist.eoi(cpu, val as u32);
                }
                0
            }
            (IccSgi1rEl1, true) => {
                // Only reachable untrapped from hypervisor-ish contexts.
                let intid = (val >> 24) & 0xf;
                let targets = (val & 0xffff) as u16;
                self.gic.dist.send_sgi(cpu, targets, intid as u32);
                0
            }
            (r, false) => self.read_storage(cpu, r),
            (r, true) => {
                self.write_storage(cpu, r, val);
                0
            }
        }
    }

    /// Oracle counter: a system-register trap is about to be taken that
    /// *full* NEVE hardware would have rewritten into an access-page
    /// memory operation. The architectural disposition deliberately
    /// ignores this machine's VNCR enable state and feature knobs — the
    /// same access is counted identically on ARMv8.3 (where every such
    /// access traps) and on NEVE hardware with deferral partially
    /// disabled, which is what makes the trap-count algebra
    /// `v8.3 deferrable = NEVE deferrals + NEVE residual deferrable`
    /// well-defined across configurations.
    fn note_deferrable_trap(&mut self, id: RegId, write: bool, vhe_guest: bool) {
        if matches!(
            NeveEngine::architectural_disposition(id, write, vhe_guest),
            Disposition::Memory { .. }
        ) {
            self.deferrable_sysreg_traps += 1;
        }
    }

    /// NEVE: a register access rewritten into a deferred-access-page slot
    /// access (charged as memory, paper Section 6.1). Records the
    /// suppressed trap — which register, which direction, which slot —
    /// in the trace, so deferrals are as attributable as real traps.
    fn vncr_slot_access(
        &mut self,
        cpu: usize,
        id: RegId,
        offset: u16,
        write: bool,
        val: u64,
    ) -> u64 {
        self.vncr_deferrals += 1;
        if let Some(t) = &mut self.trace {
            t.push(TraceEvent::VncrDeferred {
                cpu,
                reg: id,
                write,
                offset,
            });
        }
        let addr = self.cores[cpu].neve.slot_address(offset);
        if write {
            let c = self.cost_table.cost(Event::MemStore);
            self.counter.charge(Event::MemStore, c);
            // An armed injection tampers with this one deferred write:
            // Drop models a lost cached-copy synchronization (the store
            // is charged but the slot keeps its stale value), Double a
            // duplicated one (the second store is charged too).
            let tamper = self.fault_plan.as_mut().and_then(|p| p.take_armed_vncr());
            match tamper {
                Some(VncrTamper::Drop) => {}
                Some(VncrTamper::Double) => {
                    self.counter.charge(Event::MemStore, c);
                    self.mem.write_u64(addr, val);
                    self.mem.write_u64(addr, val);
                }
                None => self.mem.write_u64(addr, val),
            }
            0
        } else {
            let c = self.cost_table.cost(Event::MemLoad);
            self.counter.charge(Event::MemLoad, c);
            self.mem.read_u64(addr)
        }
    }

    // ------------------------------------------------------------------
    // Checked-mode invariants (only run with a checker attached; raw
    // memory reads, so never a cycle charged).
    // ------------------------------------------------------------------

    /// Per-step structural scan of the live Stage-2 table: every root
    /// descriptor covering populated RAM must be invalid or a
    /// well-formed next-table pointer (this format has no level-1
    /// blocks, and a pointer outside RAM can never be walked). Running
    /// this *every step* is what pins a corrupted shadow table to the
    /// exact step the corruption appeared — the host transparently
    /// repairs such corruption within the same step on the next guest
    /// access, so any later sync point may already see a healthy table.
    fn checked_step_invariants(&mut self, cpu: usize) {
        use neve_memsim::{DESC_ADDR, DESC_TABLE, DESC_VALID};
        let vttbr_v = self.cores[cpu].regs.read(SysReg::VttbrEl2);
        let root = vttbr::baddr(vttbr_v);
        if root == 0 || root + 4096 > self.mem.limit() {
            return;
        }
        // One root slot covers 1 GiB; only slots that can translate a
        // populated physical address are live (the rest never walk).
        let covered = (self.mem.limit().div_ceil(1 << 30)).min(512);
        for i in 0..covered {
            let desc = self.mem.read_u64(root + i * 8);
            if desc & DESC_VALID == 0 {
                continue;
            }
            if desc & DESC_TABLE == 0 {
                self.check_violation(
                    cpu,
                    ViolationKind::MalformedStage2,
                    format!("root slot {i} descriptor {desc:#x}: valid but not a table"),
                );
                continue;
            }
            let next = desc & DESC_ADDR;
            if next + 4096 > self.mem.limit() {
                self.check_violation(
                    cpu,
                    ViolationKind::MalformedStage2,
                    format!("root slot {i} table pointer {next:#x} outside populated RAM"),
                );
            }
        }
    }

    /// Trap-sync-point check: every TLB entry cached for the live
    /// Stage-2 regime must agree with a fresh walk of the current
    /// tables. Combined S1+S2 entries cannot be decomposed after the
    /// fact, so the check only runs while Stage 1 is off for this cpu
    /// (exactly the regime the nested configurations use).
    fn check_tlb_coherence(&mut self, cpu: usize) {
        let vttbr_v = self.cores[cpu].regs.read(SysReg::VttbrEl2);
        let root = vttbr::baddr(vttbr_v);
        if root == 0 {
            return;
        }
        if self.cores[cpu].regs.read(SysReg::SctlrEl1) & 1 != 0 {
            return;
        }
        let vmid = vttbr::vmid(vttbr_v);
        let mut bad = Vec::new();
        for (key, entry) in self.tlb.entries() {
            if !key.stage2 || key.vmid != vmid {
                continue;
            }
            // Walk with an access the cached entry claims to permit, so
            // a permission fault genuinely means the grant changed.
            let access = if entry.perms.r {
                Access::Read
            } else if entry.perms.w {
                Access::Write
            } else {
                Access::Fetch
            };
            match walk(&self.mem, PageTable { root }, key.page, access) {
                Ok(t) => {
                    if t.pa & !0xfff != entry.out_page || t.perms != entry.perms {
                        bad.push(format!(
                            "page {:#x}: cached {:#x} {:?}, tables say {:#x} {:?}",
                            key.page,
                            entry.out_page,
                            entry.perms,
                            t.pa & !0xfff,
                            t.perms,
                        ));
                    }
                }
                // A translation hole is not a violation: the simulator
                // shares one TLB across cores while shadow tables are
                // per-core under a common VMID, so an entry may have
                // been filled from a sibling core's (lazily populated)
                // shadow — and wholesale shadow invalidation always
                // flushes the VMID, so a genuine unmap cannot leave a
                // stale entry behind. Structural damage and permission
                // regressions, by contrast, are always violations.
                Err(f) if f.kind == neve_memsim::FaultKind::Translation => {}
                Err(f) => bad.push(format!(
                    "page {:#x}: cached {:#x}, fresh walk faults ({:?} at level {})",
                    key.page, entry.out_page, f.kind, f.level,
                )),
            }
        }
        for detail in bad {
            self.check_violation(cpu, ViolationKind::TlbIncoherent, detail);
        }
    }

    // ------------------------------------------------------------------
    // Deterministic fault injection.
    // ------------------------------------------------------------------

    /// Fires every injection due at the current step count.
    fn inject_due_faults(&mut self, hyp: &mut dyn Hypervisor, cpu: usize) {
        loop {
            let due = match &mut self.fault_plan {
                Some(plan) => plan.take_due(self.steps),
                None => None,
            };
            let Some(inj) = due else { return };
            self.inject_fault(hyp, cpu, inj);
        }
    }

    /// Applies one scheduled injection.
    fn inject_fault(&mut self, hyp: &mut dyn Hypervisor, cpu: usize, inj: Injection) {
        if let Some(t) = &mut self.trace {
            t.push(TraceEvent::FaultInjected {
                cpu,
                fault: inj.fault,
                step: self.steps,
            });
        }
        match inj.fault {
            InjectedFault::CorruptShadowPte => self.corrupt_stage2_pte(cpu, inj.param),
            InjectedFault::DropVncrWrite => {
                if let Some(p) = &mut self.fault_plan {
                    p.arm_vncr(VncrTamper::Drop);
                }
            }
            InjectedFault::DoubleVncrWrite => {
                if let Some(p) = &mut self.fault_plan {
                    p.arm_vncr(VncrTamper::Double);
                }
            }
            InjectedFault::SpuriousTrap => self.inject_spurious_trap(hyp, cpu),
            InjectedFault::ResetCycleCounter => self.counter.reset(),
        }
    }

    /// Overwrites one root-level descriptor of the Stage-2 table the
    /// hardware VTTBR points at (the shadow table while a nested guest
    /// runs), then invalidates the TLB for that VMID so the next walk
    /// observes the corruption. The garbage flavour cycles through the
    /// interesting failure shapes: a vanished entry, a malformed
    /// (block-where-table-expected) descriptor, and a table pointer
    /// into the weeds.
    fn corrupt_stage2_pte(&mut self, cpu: usize, param: u64) {
        let vttbr_v = self.cores[cpu].regs.read(SysReg::VttbrEl2);
        let root = vttbr::baddr(vttbr_v);
        if root == 0 {
            // No Stage-2 table installed (bare-metal context): nothing
            // to corrupt.
            return;
        }
        let slot = root + (param % 512) * 8;
        if slot + 8 > self.mem.limit() {
            return;
        }
        use neve_memsim::{DESC_ADDR, DESC_TABLE, DESC_VALID};
        let garbage = match param % 3 {
            0 => 0,
            1 => DESC_VALID | (param & DESC_ADDR),
            _ => DESC_VALID | DESC_TABLE | (param.rotate_left(17) & DESC_ADDR),
        };
        self.mem.write_u64(slot, garbage);
        self.tlb.flush_vmid(vttbr::vmid(vttbr_v));
    }

    /// Delivers an IRQ trap to EL2 with nothing pending: the host
    /// hypervisor's interrupt path runs, finds no interrupt, and
    /// returns — a phantom interrupt mid world switch.
    fn inject_spurious_trap(&mut self, hyp: &mut dyn Hypervisor, cpu: usize) {
        if self.cores[cpu].pstate.el > 1 {
            return;
        }
        let pc = self.cores[cpu].pc;
        let info = self.enter_el2(cpu, TrapKind::Irq, 0, 0, 0, pc);
        let _ = info;
        hyp.handle_irq(self, cpu);
        self.eret_from_el2(cpu);
    }

    // ------------------------------------------------------------------
    // Data memory access with two-stage translation.
    // ------------------------------------------------------------------

    /// Translates and performs a guest load/store. `Err` carries the trap
    /// that was delivered instead (EL1 aborts are delivered internally).
    fn data_access(
        &mut self,
        cpu: usize,
        hyp: &mut dyn Hypervisor,
        va: u64,
        write: bool,
        reg: u8,
    ) -> Option<u64> {
        let el = self.cores[cpu].pstate.el;
        let pc = self.cores[cpu].pc;
        let access = if write { Access::Write } else { Access::Read };

        // Stage 1: the guest's own tables when enabled; identity
        // otherwise. Hypervisor-native contexts (EL2) are identity.
        let s1_on = el <= 1 && self.cores[cpu].regs.read(SysReg::SctlrEl1) & 1 != 0;
        let s2_on = el <= 1 && self.hw_hcr(cpu) & hcr::VM != 0;
        let vmid = if s2_on {
            vttbr::vmid(self.cores[cpu].regs.read(SysReg::VttbrEl2))
        } else {
            0
        };

        let key = TlbKey {
            vmid,
            stage2: s2_on,
            page: va & !0xfff,
        };
        let pa = if let Some(e) = self.tlb.lookup_cpu(cpu, key) {
            if !e.perms.allows(access) {
                // Conservative: permission misses re-walk below.
                None
            } else {
                Some(e.out_page | (va & 0xfff))
            }
        } else {
            None
        };

        let pa = match pa {
            Some(pa) => pa,
            None => {
                // The permissions to cache are what every enabled stage
                // grants; identity (disabled) stages grant everything.
                let mut walked_perms = neve_memsim::Perms::RWX;
                // Walk stage 1.
                let ipa = if s1_on {
                    let root = self.cores[cpu].regs.read(SysReg::Ttbr0El1) & !0xfff;
                    match walk(&self.mem, PageTable { root }, va, access) {
                        Ok(t) => {
                            let c = self.cost_table.cost(Event::PageWalkLevel);
                            self.counter
                                .charge_n(Event::PageWalkLevel, c, t.levels_walked as u64);
                            walked_perms = walked_perms.intersect(t.perms);
                            t.pa
                        }
                        Err(f) => {
                            let c = self.cost_table.cost(Event::PageWalkLevel);
                            self.counter
                                .charge_n(Event::PageWalkLevel, c, f.levels_walked as u64);
                            // Stage-1 abort: to EL1 (or EL2 under TGE).
                            let esr_v = esr::build(esr::EC_DABT_LOW, 0);
                            if self.hw_hcr(cpu) & hcr::TGE != 0 {
                                let info =
                                    self.enter_el2(cpu, TrapKind::Stage1Abort, esr_v, va, 0, pc);
                                hyp.handle_sync(self, cpu, info);
                                self.eret_from_el2(cpu);
                            } else {
                                self.enter_el1(cpu, esr_v, va, pc, false);
                            }
                            return None;
                        }
                    }
                } else {
                    va
                };
                // Walk stage 2.
                let pa = if s2_on {
                    let root = vttbr::baddr(self.cores[cpu].regs.read(SysReg::VttbrEl2));
                    match walk(&self.mem, PageTable { root }, ipa, access) {
                        Ok(t) => {
                            let c = self.cost_table.cost(Event::PageWalkLevel);
                            self.counter
                                .charge_n(Event::PageWalkLevel, c, t.levels_walked as u64);
                            walked_perms = walked_perms.intersect(t.perms);
                            t.pa
                        }
                        Err(f) => {
                            let c = self.cost_table.cost(Event::PageWalkLevel);
                            self.counter
                                .charge_n(Event::PageWalkLevel, c, f.levels_walked as u64);
                            // Stage-2 abort: to EL2 with the IPA latched;
                            // this is also the MMIO emulation path.
                            self.pending_mmio[cpu] = Some(MmioRequest {
                                write,
                                reg,
                                value: if write { self.cores[cpu].gpr(reg) } else { 0 },
                                ipa,
                            });
                            let esr_v = esr::build(esr::EC_DABT_LOW, 1 << 24);
                            let info = self.enter_el2(
                                cpu,
                                TrapKind::Stage2Abort,
                                esr_v,
                                va,
                                ipa & !0xfff,
                                pc,
                            );
                            hyp.handle_sync(self, cpu, info);
                            self.eret_from_el2(cpu);
                            return None;
                        }
                    }
                } else {
                    ipa
                };
                self.tlb.insert(
                    key,
                    neve_memsim::tlb::TlbEntry {
                        out_page: pa & !0xfff,
                        perms: walked_perms,
                    },
                );
                pa
            }
        };

        // A physical access beyond the populated RAM is an external
        // abort, delivered to EL1 — a guest can reach here with the MMU
        // off and a wild pointer; it must never bring the machine down.
        if pa.checked_add(8).is_none() || pa + 8 > self.mem.limit() {
            self.enter_el1(cpu, esr::build(esr::EC_DABT_LOW, 0), va, pc, false);
            return None;
        }

        if write {
            let c = self.cost_table.cost(Event::MemStore);
            self.counter.charge(Event::MemStore, c);
            let v = self.cores[cpu].gpr(reg);
            self.mem.write_u64(pa, v);
            Some(0)
        } else {
            let c = self.cost_table.cost(Event::MemLoad);
            self.counter.charge(Event::MemLoad, c);
            Some(self.mem.read_u64(pa))
        }
    }

    // ------------------------------------------------------------------
    // Interrupt delivery.
    // ------------------------------------------------------------------

    /// Polls timers into the distributor and delivers any deliverable
    /// interrupt. Returns true if an exception was delivered.
    fn poll_interrupts(&mut self, cpu: usize, hyp: &mut dyn Hypervisor) -> bool {
        // Timer lines -> banked PPIs.
        let now = self.counter.cycles();
        for ppi in self.timers.firing(cpu, now) {
            self.gic.dist.raise_banked(cpu, ppi);
        }

        let el = self.cores[cpu].pstate.el;
        if el == 2 {
            return false;
        }
        let hcr_v = self.hw_hcr(cpu);

        // Physical interrupts routed to EL2 (taken regardless of
        // PSTATE.I at EL0/EL1 when IMO is set).
        if hcr_v & hcr::IMO != 0 && self.gic.dist.pending_for(cpu).is_some() {
            self.cores[cpu].wfi = false;
            let pc = self.cores[cpu].pc;
            let info = self.enter_el2(cpu, TrapKind::Irq, 0, 0, 0, pc);
            let _ = info;
            hyp.handle_irq(self, cpu);
            self.eret_from_el2(cpu);
            return true;
        }

        // Virtual interrupts from the list registers.
        if hcr_v & hcr::IMO != 0 && !self.cores[cpu].pstate.irq_masked && self.gic.virq_line(cpu) {
            self.cores[cpu].wfi = false;
            let pc = self.cores[cpu].pc;
            self.enter_el1(cpu, 0, 0, pc, true);
            return true;
        }

        // Bare-metal (no IMO): physical IRQ to EL1.
        if hcr_v & hcr::IMO == 0
            && !self.cores[cpu].pstate.irq_masked
            && self.gic.dist.pending_for(cpu).is_some()
        {
            self.cores[cpu].wfi = false;
            let pc = self.cores[cpu].pc;
            self.enter_el1(cpu, 0, 0, pc, true);
            return true;
        }
        false
    }

    // ------------------------------------------------------------------
    // The interpreter.
    // ------------------------------------------------------------------

    /// Fetches through `cpu`'s last-program-hit hint. Straight-line
    /// code stays within one program for thousands of steps, so the
    /// common case is a single range check; the binary search over the
    /// sorted, disjoint program list only runs on a program change.
    /// Equivalent to the old linear scan for every pc (the ranges are
    /// disjoint, so at most one program can serve a pc — the
    /// `indexed_fetch_agrees_with_linear_scan` proptest holds this).
    fn fetch(&self, cpu: usize, pc: u64) -> Option<Instr> {
        let hint = &self.fetch_hints[cpu];
        if let Some(p) = self.programs.get(hint.get()) {
            if let Some(i) = p.fetch(pc) {
                return Some(i);
            }
        }
        // Unique candidate: the last program whose base is <= pc.
        let idx = self
            .programs
            .partition_point(|p| p.base <= pc)
            .checked_sub(1)?;
        let i = self.programs[idx].fetch(pc)?;
        hint.set(idx);
        Some(i)
    }

    /// Looks up the instruction at `pc` without executing (harness use:
    /// bracketing fine-grained measurements). Shares cpu 0's fetch
    /// hint: the bracketing harnesses peek at the pc cpu 0 is about to
    /// execute.
    pub fn peek(&self, pc: u64) -> Option<Instr> {
        self.fetch(0, pc)
    }

    /// Executes one instruction on `cpu` (delivering pending interrupts
    /// first). Traps to EL2 synchronously invoke `hyp`.
    ///
    /// Dispatches through the selected [`Engine`]: the pre-decoded
    /// micro-op IR by default, or the reference interpreter
    /// ([`Machine::step_interp`]) — which also takes over automatically
    /// whenever an observer is attached (trace, fault plan, checker),
    /// so every instrumented run exercises the oracle semantics.
    pub fn step(&mut self, hyp: &mut dyn Hypervisor, cpu: usize) -> StepOutcome {
        match self.active_engine() {
            Engine::Uop => self.step_uop(hyp, cpu),
            Engine::Interp => self.step_interp(hyp, cpu),
        }
    }

    /// The engine [`Machine::step`] will actually dispatch to: the
    /// configured engine, downgraded to the reference interpreter
    /// whenever a trace, fault plan, or checker is attached — those
    /// layers observe or perturb per-step state the micro-op fast path
    /// deliberately does not model, so instrumented runs always get
    /// oracle semantics.
    pub fn active_engine(&self) -> Engine {
        if self.engine == Engine::Uop
            && self.trace.is_none()
            && self.fault_plan.is_none()
            && self.checker.is_none()
        {
            Engine::Uop
        } else {
            Engine::Interp
        }
    }

    /// The reference interpreter: fetches, decodes and executes one
    /// instruction from the loaded [`Program`]s. This is the oracle the
    /// micro-op engine is checked against; it never reads the
    /// pre-decoded IR.
    pub fn step_interp(&mut self, hyp: &mut dyn Hypervisor, cpu: usize) -> StepOutcome {
        if let Some(code) = self.cores[cpu].halted {
            return StepOutcome::Halted(code);
        }
        // The step counter advances unconditionally; everything else in
        // the injection path is gated on a plan being attached, so with
        // injection off the measured run is bit-identical to a build
        // without this machinery.
        self.steps += 1;
        if self.fault_plan.is_some() {
            self.inject_due_faults(hyp, cpu);
            if let Some(code) = self.cores[cpu].halted {
                return StepOutcome::Halted(code);
            }
        }
        // Checked mode validates *after* injections fire, so a fault
        // planted this step is observed at exactly this step count —
        // before the host gets any chance to repair it in-line.
        if self.checker.is_some() {
            self.checked_step_invariants(cpu);
        }
        if self.poll_interrupts(cpu, hyp) {
            return StepOutcome::Executed;
        }
        if self.cores[cpu].wfi {
            // Idle. A wheel-driven run loop reacts by parking the core
            // ([`Machine::park`]) so it costs nothing until an event
            // targets it; a legacy polling loop just sees `Wfi` again
            // next round.
            self.counter.advance(0);
            return StepOutcome::Wfi;
        }

        let pc = self.cores[cpu].pc;
        let Some(instr) = self.fetch(cpu, pc) else {
            return StepOutcome::FetchFailure(pc);
        };
        if let Some(t) = &mut self.trace {
            t.push(TraceEvent::Retired {
                cpu,
                pc,
                el: self.cores[cpu].pstate.el,
                instr,
            });
        }
        self.exec_instr(hyp, cpu, pc, instr)
    }

    /// Executes one fetched instruction: the shared decode-and-execute
    /// arm behind both engines (the interpreter for every instruction,
    /// the micro-op engine for [`Uop::Slow`] ones), so their semantics
    /// and cycle charges cannot drift apart.
    fn exec_instr(
        &mut self,
        hyp: &mut dyn Hypervisor,
        cpu: usize,
        pc: u64,
        instr: Instr,
    ) -> StepOutcome {
        let mut next_pc = pc + 4;
        let instr_c = self.cost_table.cost(Event::Instr);
        let barrier_c = self.cost_table.cost(Event::Barrier);
        let tlb_c = self.cost_table.cost(Event::TlbFlush);
        let eret_c = self.cost_table.cost(Event::EretNative);
        let sread_c = self.cost_table.cost(Event::SysRegRead);
        let swrite_c = self.cost_table.cost(Event::SysRegWrite);
        let dirq_c = self.cost_table.cost(Event::DirectIrqOp);

        match instr {
            Instr::Nop => self.counter.charge(Event::Instr, instr_c),
            Instr::Work(n) => self.counter.charge(Event::Instr, instr_c * n.max(1)),
            Instr::MovImm(rd, imm) => {
                self.counter.charge(Event::Instr, instr_c);
                self.cores[cpu].set_gpr(rd, imm);
            }
            Instr::Mov(rd, rn) => {
                self.counter.charge(Event::Instr, instr_c);
                let v = self.cores[cpu].gpr(rn);
                self.cores[cpu].set_gpr(rd, v);
            }
            Instr::Add(rd, rn, rm) => {
                self.counter.charge(Event::Instr, instr_c);
                let v = self.cores[cpu]
                    .gpr(rn)
                    .wrapping_add(self.cores[cpu].gpr(rm));
                self.cores[cpu].set_gpr(rd, v);
            }
            Instr::AddImm(rd, rn, imm) => {
                self.counter.charge(Event::Instr, instr_c);
                let v = self.cores[cpu].gpr(rn).wrapping_add(imm);
                self.cores[cpu].set_gpr(rd, v);
            }
            Instr::Sub(rd, rn, rm) => {
                self.counter.charge(Event::Instr, instr_c);
                let v = self.cores[cpu]
                    .gpr(rn)
                    .wrapping_sub(self.cores[cpu].gpr(rm));
                self.cores[cpu].set_gpr(rd, v);
            }
            Instr::SubImm(rd, rn, imm) => {
                self.counter.charge(Event::Instr, instr_c);
                let v = self.cores[cpu].gpr(rn).wrapping_sub(imm);
                self.cores[cpu].set_gpr(rd, v);
            }
            Instr::And(rd, rn, rm) => {
                self.counter.charge(Event::Instr, instr_c);
                let v = self.cores[cpu].gpr(rn) & self.cores[cpu].gpr(rm);
                self.cores[cpu].set_gpr(rd, v);
            }
            Instr::Orr(rd, rn, rm) => {
                self.counter.charge(Event::Instr, instr_c);
                let v = self.cores[cpu].gpr(rn) | self.cores[cpu].gpr(rm);
                self.cores[cpu].set_gpr(rd, v);
            }
            Instr::OrrImm(rd, rn, imm) => {
                self.counter.charge(Event::Instr, instr_c);
                let v = self.cores[cpu].gpr(rn) | imm;
                self.cores[cpu].set_gpr(rd, v);
            }
            Instr::LslImm(rd, rn, sh) => {
                self.counter.charge(Event::Instr, instr_c);
                // AArch64 shifts take the amount modulo the register
                // width; a plain `<<` would panic in debug for sh >= 64.
                let v = self.cores[cpu].gpr(rn).wrapping_shl(u32::from(sh));
                self.cores[cpu].set_gpr(rd, v);
            }
            Instr::LsrImm(rd, rn, sh) => {
                self.counter.charge(Event::Instr, instr_c);
                let v = self.cores[cpu].gpr(rn).wrapping_shr(u32::from(sh));
                self.cores[cpu].set_gpr(rd, v);
            }
            Instr::B(a) => {
                self.counter.charge(Event::Instr, instr_c);
                next_pc = a;
            }
            Instr::Bl(a) => {
                self.counter.charge(Event::Instr, instr_c);
                self.cores[cpu].set_gpr(crate::isa::LR, next_pc);
                next_pc = a;
            }
            Instr::Ret => {
                self.counter.charge(Event::Instr, instr_c);
                next_pc = self.cores[cpu].gpr(crate::isa::LR);
            }
            Instr::Cbz(rn, a) => {
                self.counter.charge(Event::Instr, instr_c);
                if self.cores[cpu].gpr(rn) == 0 {
                    next_pc = a;
                }
            }
            Instr::Cbnz(rn, a) => {
                self.counter.charge(Event::Instr, instr_c);
                if self.cores[cpu].gpr(rn) != 0 {
                    next_pc = a;
                }
            }
            Instr::Halt(code) => {
                self.cores[cpu].halted = Some(code);
                return StepOutcome::Halted(code);
            }
            Instr::Isb | Instr::Dsb => {
                let c = barrier_c;
                self.counter.charge(Event::Barrier, c);
            }
            Instr::Wfi => {
                let el = self.cores[cpu].pstate.el;
                if el <= 1 && self.hw_hcr(cpu) & hcr::TWI != 0 {
                    let info =
                        self.enter_el2(cpu, TrapKind::Wfx, esr::build(esr::EC_WFX, 0), 0, 0, pc);
                    hyp.handle_sync(self, cpu, info);
                    self.eret_from_el2(cpu);
                    next_pc = self.cores[cpu].pc;
                } else {
                    self.counter.charge(Event::Instr, instr_c);
                    self.cores[cpu].wfi = true;
                    self.cores[cpu].pc = next_pc;
                    return StepOutcome::Wfi;
                }
            }
            Instr::TlbiVmall => {
                let el = self.cores[cpu].pstate.el;
                if el == 1 && self.nv_active(cpu) {
                    // A hypervisor TLB-maintenance instruction from
                    // virtual EL2 traps even with NEVE.
                    let info = self.enter_el2(
                        cpu,
                        TrapKind::SysReg,
                        esr::build(esr::EC_SYSREG, 1),
                        0,
                        0,
                        pc,
                    );
                    hyp.handle_sync(self, cpu, info);
                    self.eret_from_el2(cpu);
                    next_pc = self.cores[cpu].pc;
                } else {
                    let c = tlb_c;
                    self.counter.charge(Event::TlbFlush, c);
                    let vmid = vttbr::vmid(self.cores[cpu].regs.read(SysReg::VttbrEl2));
                    self.tlb.flush_vmid(vmid);
                }
            }
            Instr::Hvc(imm) => {
                let el = self.cores[cpu].pstate.el;
                if el == 0 {
                    self.enter_el1(cpu, esr::build(esr::EC_UNKNOWN, 0), 0, pc, false);
                    next_pc = self.cores[cpu].pc;
                } else {
                    // Preferred return for hvc is the *next* instruction.
                    let info = self.enter_el2(
                        cpu,
                        TrapKind::Hvc,
                        esr::build(esr::EC_HVC64, imm as u64),
                        0,
                        0,
                        next_pc,
                    );
                    hyp.handle_sync(self, cpu, info);
                    self.eret_from_el2(cpu);
                    next_pc = self.cores[cpu].pc;
                }
            }
            Instr::Svc(imm) => {
                let el = self.cores[cpu].pstate.el;
                let esr_v = esr::build(esr::EC_SVC64, imm as u64);
                if el == 0 && self.hw_hcr(cpu) & hcr::TGE != 0 {
                    let info = self.enter_el2(cpu, TrapKind::Svc, esr_v, 0, 0, next_pc);
                    hyp.handle_sync(self, cpu, info);
                    self.eret_from_el2(cpu);
                } else {
                    self.enter_el1(cpu, esr_v, 0, next_pc, false);
                }
                next_pc = self.cores[cpu].pc;
            }
            Instr::Smc(imm) => {
                let el = self.cores[cpu].pstate.el;
                if el >= 1 && self.hw_hcr(cpu) & hcr::TSC != 0 {
                    let info = self.enter_el2(
                        cpu,
                        TrapKind::Smc,
                        esr::build(esr::EC_SMC64, imm as u64),
                        0,
                        0,
                        pc,
                    );
                    hyp.handle_sync(self, cpu, info);
                    self.eret_from_el2(cpu);
                } else {
                    // No EL3: UNDEFINED.
                    self.enter_el1(cpu, esr::build(esr::EC_UNKNOWN, 0), 0, pc, false);
                }
                next_pc = self.cores[cpu].pc;
            }
            Instr::Eret => {
                let el = self.cores[cpu].pstate.el;
                if el == 1 && self.nv_active(cpu) {
                    // eret from virtual EL2 traps (ARMv8.3-NV); the host
                    // enters the nested VM on the guest hypervisor's
                    // behalf (paper Section 4).
                    let info =
                        self.enter_el2(cpu, TrapKind::Eret, esr::build(esr::EC_ERET, 0), 0, 0, pc);
                    hyp.handle_sync(self, cpu, info);
                    self.eret_from_el2(cpu);
                    next_pc = self.cores[cpu].pc;
                } else if el >= 1 {
                    let c = eret_c;
                    self.counter.charge(Event::EretNative, c);
                    let (elr_reg, spsr_reg) = (SysReg::ElrEl1, SysReg::SpsrEl1);
                    let elr = self.cores[cpu].regs.read(elr_reg);
                    let spsr = self.cores[cpu].regs.read(spsr_reg);
                    let mut target = Pstate::from_spsr(spsr);
                    // An EL1 eret cannot raise the EL.
                    if el == 1 && target.el > 1 {
                        target.el = 1;
                    }
                    self.cores[cpu].pstate = target;
                    next_pc = elr;
                } else {
                    self.enter_el1(cpu, esr::build(esr::EC_UNKNOWN, 0), 0, pc, false);
                    next_pc = self.cores[cpu].pc;
                }
            }
            Instr::MrsSpecial(rd, sp) => {
                self.counter.charge(Event::SysRegRead, sread_c);
                let v = match sp {
                    Special::CurrentEl => {
                        let el = self.cores[cpu].pstate.el;
                        // The NV disguise (paper Section 2): a
                        // deprivileged hypervisor reads EL2.
                        let shown = if el == 1 && self.nv_active(cpu) {
                            2
                        } else {
                            el
                        };
                        (shown as u64) << 2
                    }
                    Special::CntVct => {
                        let now = self.counter.cycles();
                        self.timers.cntvct(cpu, now)
                    }
                    Special::CntPct => self.counter.cycles(),
                };
                self.cores[cpu].set_gpr(rd, v);
            }
            Instr::Mrs(rd, id) => {
                self.counter.charge(Event::SysRegRead, sread_c);
                match self.route_sysreg(cpu, id, false, 0, rd) {
                    RouteOutcome::Done(v) => {
                        // GIC acknowledge/EOI complete in hardware at the
                        // virtual interface: charge the direct-IRQ cost.
                        if matches!(id.base_reg(), SysReg::IccIar1El1) {
                            let c = dirq_c;
                            self.counter.charge(Event::DirectIrqOp, c);
                        }
                        self.cores[cpu].set_gpr(rd, v);
                    }
                    RouteOutcome::TrapEl2(kind, esr_v) => {
                        let info = self.enter_el2(cpu, kind, esr_v, 0, 0, pc);
                        hyp.handle_sync(self, cpu, info);
                        self.eret_from_el2(cpu);
                        next_pc = self.cores[cpu].pc;
                    }
                    RouteOutcome::UndefEl1 => {
                        self.enter_el1(cpu, esr::build(esr::EC_UNKNOWN, 0), 0, pc, false);
                        next_pc = self.cores[cpu].pc;
                    }
                }
            }
            Instr::Msr(id, rs) => {
                self.counter.charge(Event::SysRegWrite, swrite_c);
                let v = self.cores[cpu].gpr(rs);
                match self.route_sysreg(cpu, id, true, v, rs) {
                    RouteOutcome::Done(_) => {
                        if matches!(id.base_reg(), SysReg::IccEoir1El1 | SysReg::IccDirEl1) {
                            let c = dirq_c;
                            self.counter.charge(Event::DirectIrqOp, c);
                        }
                    }
                    RouteOutcome::TrapEl2(kind, esr_v) => {
                        let info = self.enter_el2(cpu, kind, esr_v, 0, 0, pc);
                        hyp.handle_sync(self, cpu, info);
                        self.eret_from_el2(cpu);
                        next_pc = self.cores[cpu].pc;
                    }
                    RouteOutcome::UndefEl1 => {
                        self.enter_el1(cpu, esr::build(esr::EC_UNKNOWN, 0), 0, pc, false);
                        next_pc = self.cores[cpu].pc;
                    }
                }
            }
            Instr::Ldr(rd, rn, off) => {
                let va = self.cores[cpu].gpr(rn).wrapping_add_signed(off);
                match self.data_access(cpu, hyp, va, false, rd) {
                    Some(v) => self.cores[cpu].set_gpr(rd, v),
                    None => next_pc = self.cores[cpu].pc,
                }
            }
            Instr::Str(rs, rn, off) => {
                let va = self.cores[cpu].gpr(rn).wrapping_add_signed(off);
                match self.data_access(cpu, hyp, va, true, rs) {
                    Some(_) => {}
                    None => next_pc = self.cores[cpu].pc,
                }
            }
        }

        self.cores[cpu].pc = next_pc;
        StepOutcome::Executed
    }

    // ------------------------------------------------------------------
    // The micro-op engine.
    // ------------------------------------------------------------------

    /// Fetches the micro-op at `pc` through `cpu`'s fetch hint. The
    /// compiled list is index-parallel to `programs`, so the hints are
    /// shared with the interpreter's [`Machine::fetch`].
    #[inline]
    fn fetch_uop(&self, cpu: usize, pc: u64) -> Option<Uop> {
        let hint = &self.fetch_hints[cpu];
        if let Some(p) = self.compiled.get(hint.get()) {
            if let Some(u) = p.fetch(pc) {
                return Some(u);
            }
        }
        let idx = self
            .compiled
            .partition_point(|p| p.base <= pc)
            .checked_sub(1)?;
        let u = self.compiled[idx].fetch(pc)?;
        hint.set(idx);
        Some(u)
    }

    /// True while `cpu`'s cached quiet-window verdict still proves the
    /// interrupt poll would find nothing: every input
    /// [`Machine::poll_interrupts`] reads is either compared directly
    /// (EL, interrupt mask, `HCR_EL2`, distributor enable) or covered
    /// by a mutation epoch (timers, GIC), and the cycle counter is
    /// still short of the earliest armed timer deadline.
    #[inline]
    fn quiet_valid(&self, cpu: usize) -> bool {
        let q = &self.quiet[cpu];
        let cycles = self.counter.cycles();
        q.valid
            && cycles >= q.since
            && cycles < q.until
            && self.timers.epoch() == q.timers_epoch
            && self.gic.epoch() == q.gic_epoch
            && self.cores[cpu].pstate.el == q.el
            && self.cores[cpu].pstate.irq_masked == q.irq_masked
            && self.gic.dist.enabled == q.dist_enabled
            && self.hw_hcr(cpu) == q.hcr
    }

    /// Caches a quiet-window verdict for `cpu`; call only immediately
    /// after a full poll returned false (so "nothing deliverable now"
    /// is known to hold at the current state).
    fn establish_quiet(&mut self, cpu: usize) {
        let now = self.counter.cycles();
        self.quiet[cpu] = PollQuiet {
            valid: true,
            since: now,
            until: self.timers.next_fire_at(cpu, now),
            timers_epoch: self.timers.epoch(),
            gic_epoch: self.gic.epoch(),
            el: self.cores[cpu].pstate.el,
            irq_masked: self.cores[cpu].pstate.irq_masked,
            dist_enabled: self.gic.dist.enabled,
            hcr: self.hw_hcr(cpu),
        };
    }

    /// One step through the pre-decoded micro-op IR. Semantically
    /// identical to [`Machine::step_interp`] with no observers
    /// attached: same instruction stream, same cycle charges, same
    /// interrupt delivery points — the engine-lockstep proptests and
    /// the oracle harness hold it to that.
    fn step_uop(&mut self, hyp: &mut dyn Hypervisor, cpu: usize) -> StepOutcome {
        if let Some(code) = self.cores[cpu].halted {
            return StepOutcome::Halted(code);
        }
        self.steps += 1;
        if !self.quiet_valid(cpu) {
            if self.poll_interrupts(cpu, hyp) {
                return StepOutcome::Executed;
            }
            self.establish_quiet(cpu);
        }
        if self.cores[cpu].wfi {
            self.counter.advance(0);
            return StepOutcome::Wfi;
        }

        let pc = self.cores[cpu].pc;
        let Some(u) = self.fetch_uop(cpu, pc) else {
            return StepOutcome::FetchFailure(pc);
        };
        let mut next_pc = pc + 4;
        match u {
            Uop::Nop { c } | Uop::Work { c } => self.counter.charge(Event::Instr, c),
            Uop::MovImm { rd, imm, c } => {
                self.counter.charge(Event::Instr, c);
                self.cores[cpu].set_gpr(rd, imm);
            }
            Uop::Mov { rd, rn, c } => {
                self.counter.charge(Event::Instr, c);
                let v = self.cores[cpu].gpr(rn);
                self.cores[cpu].set_gpr(rd, v);
            }
            Uop::Add { rd, rn, rm, c } => {
                self.counter.charge(Event::Instr, c);
                let v = self.cores[cpu]
                    .gpr(rn)
                    .wrapping_add(self.cores[cpu].gpr(rm));
                self.cores[cpu].set_gpr(rd, v);
            }
            Uop::AddImm { rd, rn, imm, c } => {
                self.counter.charge(Event::Instr, c);
                let v = self.cores[cpu].gpr(rn).wrapping_add(imm);
                self.cores[cpu].set_gpr(rd, v);
            }
            Uop::Sub { rd, rn, rm, c } => {
                self.counter.charge(Event::Instr, c);
                let v = self.cores[cpu]
                    .gpr(rn)
                    .wrapping_sub(self.cores[cpu].gpr(rm));
                self.cores[cpu].set_gpr(rd, v);
            }
            Uop::SubImm { rd, rn, imm, c } => {
                self.counter.charge(Event::Instr, c);
                let v = self.cores[cpu].gpr(rn).wrapping_sub(imm);
                self.cores[cpu].set_gpr(rd, v);
            }
            Uop::And { rd, rn, rm, c } => {
                self.counter.charge(Event::Instr, c);
                let v = self.cores[cpu].gpr(rn) & self.cores[cpu].gpr(rm);
                self.cores[cpu].set_gpr(rd, v);
            }
            Uop::Orr { rd, rn, rm, c } => {
                self.counter.charge(Event::Instr, c);
                let v = self.cores[cpu].gpr(rn) | self.cores[cpu].gpr(rm);
                self.cores[cpu].set_gpr(rd, v);
            }
            Uop::OrrImm { rd, rn, imm, c } => {
                self.counter.charge(Event::Instr, c);
                let v = self.cores[cpu].gpr(rn) | imm;
                self.cores[cpu].set_gpr(rd, v);
            }
            Uop::LslImm { rd, rn, sh, c } => {
                self.counter.charge(Event::Instr, c);
                let v = self.cores[cpu].gpr(rn).wrapping_shl(u32::from(sh));
                self.cores[cpu].set_gpr(rd, v);
            }
            Uop::LsrImm { rd, rn, sh, c } => {
                self.counter.charge(Event::Instr, c);
                let v = self.cores[cpu].gpr(rn).wrapping_shr(u32::from(sh));
                self.cores[cpu].set_gpr(rd, v);
            }
            Uop::B { target, c, .. } => {
                self.counter.charge(Event::Instr, c);
                next_pc = target;
            }
            Uop::Bl { target, c, .. } => {
                self.counter.charge(Event::Instr, c);
                self.cores[cpu].set_gpr(crate::isa::LR, next_pc);
                next_pc = target;
            }
            Uop::Ret { c } => {
                self.counter.charge(Event::Instr, c);
                next_pc = self.cores[cpu].gpr(crate::isa::LR);
            }
            Uop::Cbz { rn, target, c, .. } => {
                self.counter.charge(Event::Instr, c);
                if self.cores[cpu].gpr(rn) == 0 {
                    next_pc = target;
                }
            }
            Uop::Cbnz { rn, target, c, .. } => {
                self.counter.charge(Event::Instr, c);
                if self.cores[cpu].gpr(rn) != 0 {
                    next_pc = target;
                }
            }
            Uop::Barrier { c } => self.counter.charge(Event::Barrier, c),
            Uop::Halt { code } => {
                self.cores[cpu].halted = Some(code);
                return StepOutcome::Halted(code);
            }
            Uop::Slow(instr) => return self.exec_instr(hyp, cpu, pc, instr),
        }

        self.cores[cpu].pc = next_pc;
        StepOutcome::Executed
    }

    /// Runs `cpu` until it halts, idles, or `max_steps` instructions
    /// retire. Returns the last outcome.
    pub fn run(&mut self, hyp: &mut dyn Hypervisor, cpu: usize, max_steps: u64) -> StepOutcome {
        let mut last = StepOutcome::Executed;
        for _ in 0..max_steps {
            last = self.step(hyp, cpu);
            match last {
                StepOutcome::Executed => continue,
                _ => break,
            }
        }
        last
    }
}
