//! The fan-out executor shared by every batch campaign.
//!
//! The evaluation matrix, the fault-injection and fuzz campaigns and the
//! consolidation table are each a list of independent deterministic
//! simulations. `map` runs such a list on scoped worker threads and
//! hands the results back in input order, so a campaign's output never
//! depends on the worker count or on which worker finished first.
//! Containment lives here too: `contain` turns a panic into a
//! structured `Err`, so one bad item never aborts its campaign.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The default `--jobs`: the host's available parallelism, or 1 when
/// it cannot be queried.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Workers [`map`] runs `items` items on at a requested `jobs`: at
/// least one, and never more than there are items to give them.
fn workers(jobs: usize, items: usize) -> usize {
    jobs.clamp(1, items.max(1))
}

/// Runs `f`, turning a panic into `Err` carrying the panic's message.
pub(crate) fn contain<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(payload.as_ref()))
}

/// Renders a `catch_unwind` panic payload as text. `panic!` with a
/// literal yields `&str`, with a format string yields `String`;
/// anything else (a `panic_any` value) is opaque.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Maps `f` over `items` on `jobs` scoped worker threads (clamped to
/// between one and the number of items) and returns one result per
/// item, in input order.
///
/// - **Striping.** Item `i` runs on worker `i % workers`, so a run of
///   slow neighbours (the nested-ARM cells of one configuration) is
///   spread across workers rather than landing on one.
/// - **Per-worker state.** Each worker builds its state with `init`
///   before its first item and passes it to `f` by `&mut` for every
///   item it runs (the fuzz campaign's booted machines; `()` for
///   stateless campaigns).
/// - **Containment.** Every `init` and `f` call is contained: a
///   panicking item becomes that item's `Err(panic message)` and every
///   other item still runs. The panicking worker drops its state, which
///   the panic may have left half-updated, and re-runs `init` before its
///   next item. An `init` error becomes the `Err` of the item it was
///   building state for, and the worker's next item tries `init` again.
pub(crate) fn map<I, S, T>(
    items: &[I],
    jobs: usize,
    init: impl Fn() -> Result<S, String> + Sync,
    f: impl Fn(&mut S, &I) -> T + Sync,
) -> Vec<Result<T, String>>
where
    I: Sync,
    T: Send,
{
    let workers = workers(jobs, items.len());
    let mut done: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (init, f) = (&init, &f);
                scope.spawn(move || {
                    let mut state = None;
                    let stripe = items.iter().skip(w).step_by(workers);
                    stripe
                        .map(|item| run_item(&mut state, init, f, item))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // `run_item` contains every `init` and `f` call, so no worker
        // can unwind.
        handles
            .into_iter()
            .map(|h| h.join().expect("worker unwound").into_iter())
            .collect()
    });
    // Item `i` is result `i / workers` of worker `i % workers`.
    (0..items.len())
        .map(|i| done[i % workers].next().expect("one result per item"))
        .collect()
}

/// Runs one item on a worker, building the worker's state first if it
/// has none (its first item, or the one after a panic).
fn run_item<I, S, T>(
    state: &mut Option<S>,
    init: &impl Fn() -> Result<S, String>,
    f: &impl Fn(&mut S, &I) -> T,
    item: &I,
) -> Result<T, String> {
    let s = match state {
        Some(s) => s,
        None => state.insert(contain(init).and_then(|built| built)?),
    };
    let result = contain(|| f(s, item));
    if result.is_err() {
        *state = None;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn workers_are_clamped_to_the_items() {
        assert_eq!(workers(usize::MAX, 28), 28);
        assert_eq!(workers(64, 28), 28);
        assert_eq!(workers(3, 28), 3);
        assert_eq!(workers(0, 5), 1);
        assert_eq!(workers(4, 0), 1);
    }

    #[test]
    fn results_come_back_in_input_order_and_striped() {
        let n = 11;
        let items: Vec<usize> = (0..n).collect();
        for jobs in [1, 2, 3, n, n + 5] {
            // Each worker's state is a distinct id, so the ids reveal
            // which worker ran which item.
            let next_id = AtomicUsize::new(0);
            let init = || Ok(next_id.fetch_add(1, Ordering::SeqCst));
            let out: Vec<(usize, usize)> = map(&items, jobs, init, |id, &i| (i, *id))
                .into_iter()
                .map(Result::unwrap)
                .collect();
            let workers = jobs.min(n);
            assert_eq!(next_id.load(Ordering::SeqCst), workers, "{jobs}");
            for (i, &(item, id)) in out.iter().enumerate() {
                assert_eq!(item, i, "out of input order ({jobs})");
                assert_eq!(id, out[i % workers].1, "item {i} off its stripe ({jobs})");
            }
        }
    }

    #[test]
    fn an_init_error_surfaces_as_each_items_err() {
        let out: Vec<Result<(), String>> = map(
            &[0, 1, 2],
            2,
            || Err::<(), _>("no rig".to_string()),
            |_, _| unreachable!("f runs only with state"),
        );
        assert_eq!(out, vec![Err("no rig".to_string()); 3]);
    }

    #[test]
    fn a_panicking_item_fails_alone_and_its_worker_rebuilds_its_state() {
        let inits = AtomicUsize::new(0);
        // The state counts the items its worker has run since `init`.
        // Worker 0 runs items 0, 2, 4, 6 and worker 1 runs 1, 3, 5, 7.
        let out = map(
            &[0, 1, 2, 3, 4, 5, 6, 7],
            2,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                Ok(0)
            },
            |seen: &mut usize, &i| {
                *seen += 1;
                if i == 2 {
                    panic!("deliberate item crash");
                }
                *seen
            },
        );
        let crash = Err("deliberate item crash".to_string());
        let expected = [Ok(1), Ok(1), crash, Ok(2), Ok(1), Ok(3), Ok(2), Ok(4)];
        assert_eq!(out, expected);
        assert_eq!(inits.load(Ordering::SeqCst), 3);
    }
}
