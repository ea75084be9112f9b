//! One memo type for every engine cache: a map from keys to cells that
//! are filled once.
//!
//! [`Memo::get`] holds the map lock only to find (or insert) the key's
//! cell; a warm hit reads the cell under that lock and takes no other.
//! An empty cell is filled outside the lock, so a slow fill on one key
//! never stalls another key. Concurrent callers that find one cell empty
//! run its fill once: one of them fills it, the others wait for the
//! value, and each learns which it did ([`Outcome`]). A fill that panics
//! leaves the cell empty and releases its waiters; the panic reaches the
//! filler only, and the next caller (a released waiter or a later one)
//! fills the cell.
//!
//! # Waits cannot deadlock
//!
//! A waiter blocks until the filler's fill returns, so a fill must never
//! wait, directly or through other memos, on a cell that waits on it.
//! The rule that prevents it: **a fill reads only memos below its
//! own**, in one fixed order —
//!
//! ```text
//! network ← routing graph ← route, APA, Monte Carlo
//! ```
//!
//! The scrape, constellation and LEO memos read none. Fills then nest
//! strictly down that order and can never close a cycle.
//!
//! # Tracing and the waited mark
//!
//! A hit records nothing. A caller that finds its cell empty records one
//! span: the memo's fill span around the fill, or its wait span around
//! the time it spent waiting for another caller's fill. A caller that
//! waited also marks its thread; [`take_waited`] reads and clears the
//! mark, which is how the serving layer counts requests that shared
//! another request's work.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// How one [`Memo::get`] call was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The cell was already filled.
    Hit,
    /// This caller ran the fill.
    Filled,
    /// The cell was empty and another caller filled it while this one
    /// waited.
    Waited,
}

thread_local! {
    static WAITED: Cell<bool> = const { Cell::new(false) };
}

/// Whether this thread waited on another caller's fill since the last
/// call; clears the mark.
pub fn take_waited() -> bool {
    WAITED.with(|w| w.replace(false))
}

/// A concurrent memo: one once-filled cell per key. See the module docs.
pub struct Memo<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    fill_span: &'static str,
    wait_span: &'static str,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty memo whose fills and waits trace as `fill_span` and
    /// `wait_span`.
    pub fn new(fill_span: &'static str, wait_span: &'static str) -> Memo<K, V> {
        Memo {
            cells: Mutex::new(HashMap::new()),
            fill_span,
            wait_span,
        }
    }

    /// The value for `key`, running `fill` when the key's cell is empty
    /// and no other caller is filling it; otherwise waiting for that
    /// caller's value.
    pub fn get(&self, key: K, fill: impl FnOnce() -> V) -> (V, Outcome) {
        let cell = {
            // Poisoned only by a panic while hashing or cloning under the
            // lock; fills run outside it.
            let mut cells = self.cells.lock().expect("memo map poisoned");
            let cell = cells.entry(key).or_default();
            if let Some(value) = cell.get() {
                return (value.clone(), Outcome::Hit);
            }
            Arc::clone(cell)
        };
        let started = Instant::now();
        let mut filled = false;
        let value = cell.get_or_init(|| {
            filled = true;
            let _span = hft_obs::span(self.fill_span);
            fill()
        });
        if filled {
            return (value.clone(), Outcome::Filled);
        }
        WAITED.with(|w| w.set(true));
        hft_obs::annotate_since(self.wait_span, started);
        (value.clone(), Outcome::Waited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    fn memo<V: Clone>() -> Memo<&'static str, V> {
        Memo::new("test.fill", "test.wait")
    }

    /// Spin until `key`'s cell has `n` handles: the map's own, plus one
    /// per caller between its lookup and its answer. Lets a fill hold
    /// until a second caller has found the cell empty.
    fn await_holders<V: Clone>(m: &Memo<&'static str, V>, key: &str, n: usize) {
        while Arc::strong_count(&m.cells.lock().unwrap()[key]) < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn concurrent_misses_fill_once() {
        let m = memo::<u64>();
        let fills = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let results: Vec<(u64, Outcome, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let (v, outcome) = m.get("slow", || {
                            fills.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(50));
                            42
                        });
                        (v, outcome, take_waited())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(fills.load(Ordering::SeqCst), 1, "one fill for one key");
        assert!(results.iter().all(|&(v, _, _)| v == 42));
        let fillers = results
            .iter()
            .filter(|&&(_, o, _)| o == Outcome::Filled)
            .count();
        assert_eq!(fillers, 1, "exactly one caller reports the fill");
        for &(_, outcome, waited) in &results {
            assert_eq!(
                waited,
                outcome == Outcome::Waited,
                "the mark follows the wait"
            );
        }
    }

    #[test]
    fn distinct_keys_fill_independently() {
        let m: Memo<usize, usize> = Memo::new("test.fill", "test.wait");
        let fills = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for i in 0..4 {
                let (m, fills) = (&m, &fills);
                scope.spawn(move || {
                    let (v, outcome) = m.get(i, || {
                        fills.fetch_add(1, Ordering::SeqCst);
                        i * 10
                    });
                    assert_eq!((v, outcome), (i * 10, Outcome::Filled));
                });
            }
        });
        assert_eq!(fills.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn a_panicking_fill_releases_its_waiters() {
        let m = memo::<u8>();
        let inside = Barrier::new(2);
        std::thread::scope(|scope| {
            let filler = scope.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    m.get("k", || {
                        inside.wait();
                        await_holders(&m, "k", 3);
                        panic!("fill dies");
                    })
                }))
            });
            inside.wait(); // the fill has begun
            let (v, outcome) = m.get("k", || 9);
            assert_eq!(v, 9);
            assert_eq!(outcome, Outcome::Filled, "the released waiter fills");
            assert!(
                filler.join().unwrap().is_err(),
                "the panic reaches the filler"
            );
        });
        assert_eq!(m.get("k", || unreachable!()), (9, Outcome::Hit));
    }

    #[test]
    fn a_filled_cell_answers_without_filling() {
        let m = memo::<u32>();
        assert_eq!(m.get("k", || 7), (7, Outcome::Filled));
        for _ in 0..3 {
            assert_eq!(m.get("k", || unreachable!("filled")), (7, Outcome::Hit));
        }
        assert!(!take_waited(), "nobody waited");
    }

    #[test]
    fn the_waiters_trace_holds_its_wait() {
        let m = memo::<u32>();
        let inside = Barrier::new(2);
        let traced = |id: u128| hft_obs::TraceContext {
            trace_id: id,
            span_id: 1,
            sampled: true,
        };
        let (filler_id, waiter_id) = (0xf111_u128 << 64, 0xa17_u128 << 64);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _root =
                    hft_obs::trace_root("test.request", "test", traced(filler_id), Instant::now());
                m.get("k", || {
                    inside.wait();
                    await_holders(&m, "k", 3);
                    1
                });
            });
            inside.wait(); // the fill is under way
            let _root =
                hft_obs::trace_root("test.request", "test", traced(waiter_id), Instant::now());
            assert_eq!(m.get("k", || 2), (1, Outcome::Waited));
        });
        let names = |id| -> Vec<&'static str> {
            let rec = hft_obs::find_trace(id).expect("sampled trace recorded");
            rec.tree.check().expect("well-formed tree");
            rec.tree.spans.iter().map(|s| s.name).collect()
        };
        assert_eq!(names(filler_id), ["test.request", "test.fill"]);
        assert_eq!(names(waiter_id), ["test.request", "test.wait"]);
    }
}
