//! The NEVE simulator benchmark: end-to-end host-time metrics from
//! untraced runs, per-layer host time and exact work counts from traced
//! runs, and output checks on every workload. See `README.md`.
//!
//! The benchmark drives only the simulator's public library APIs; every
//! span is recorded here, around a call into one layer.

pub mod cells;
pub mod consolidate;
pub mod fuzz;
pub mod matrix;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::time::{Duration, Instant};

/// Worker threads every workload may use: the host's parallelism, as
/// the CLI's `--jobs` would default to it on a dedicated machine.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// What one run is asked to do (the command-line arguments).
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measured wall time of the run's main loop.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
}

impl RunSpec {
    /// The main loop's measuring window.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// A failed output check or exact-count mismatch; the run exits
/// non-zero with this message and prints no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch(pub String);

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Set-ups per run; `setup_s` is the median of their process CPU times.
pub const SETUP_REPS: usize = 21;

/// A run's measured part. `setup` runs once before the loop, and again
/// at evenly spaced points of the window until it has run
/// [`SETUP_REPS`] times, so `setup_s` samples the host over the same
/// stretch as the ops: set-ups bunched at the start caught whatever the
/// shared host was doing in that one second. Between set-ups, `op` runs
/// back to back until `window` has passed and at least `min` samples
/// exist, or a hard cap of 150 s of wall time. Returns the first
/// set-up's value, the median set-up CPU time in seconds, and each op's
/// process CPU time in ms.
pub fn measure<T>(
    window: Duration,
    min: usize,
    mut setup: impl FnMut() -> Result<T, Mismatch>,
    mut op: impl FnMut(&T) -> Result<(), Mismatch>,
) -> Result<(T, f64, Vec<f64>), Mismatch> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut timed_setup = || -> Result<T, Mismatch> {
        let t = stats::process_cpu_ns();
        let v = setup()?;
        setup_s.push((stats::process_cpu_ns() - t) as f64 / 1e9);
        Ok(v)
    };
    let first = timed_setup()?;
    let mut reps = 1;
    let cap = Duration::from_secs(150);
    let start = Instant::now();
    let mut ms = Vec::new();
    while start.elapsed() < window || ms.len() < min || reps < SETUP_REPS {
        if start.elapsed() > cap {
            return Err(Mismatch(format!(
                "only {} samples in {cap:?}; percentiles need {min}",
                ms.len()
            )));
        }
        if reps < SETUP_REPS && start.elapsed() >= window.mul_f64(reps as f64 / SETUP_REPS as f64) {
            timed_setup()?;
            reps += 1;
            continue;
        }
        let t = stats::process_cpu_ns();
        op(&first)?;
        ms.push((stats::process_cpu_ns() - t) as f64 / 1e6);
    }
    Ok((first, stats::median(&setup_s), ms))
}

/// Splitmix64, the seed expander every generated input uses.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
