//! The work-stealing scoped thread pool.
//!
//! Design: a job is split into contiguous index chunks. Each worker owns
//! a deque of chunks; it pops work from the back of its own deque and,
//! when empty, steals from the *front* of a victim's deque (classic
//! Blumofe–Leiserson discipline, here with mutexed deques — the tasks
//! this workspace runs are milliseconds to seconds, so queue overhead is
//! irrelevant). Workers collect `(index, result)` pairs privately; the
//! caller merges them and sorts by index, so reduction order — and
//! therefore every downstream floating-point fold — is independent of
//! scheduling.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Mutex;

use crate::thread_count;

/// A handle describing how many workers a job may use. Cheap to build;
/// threads are scoped to each call (spawned in [`Pool::map`], joined
/// before it returns), so a `Pool` holds no OS resources.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool sized by `ASICGAP_THREADS` / available parallelism (see
    /// [`thread_count`]). This is the constructor every flow uses.
    pub fn from_env() -> Pool {
        Pool::with_threads(thread_count())
    }

    /// A pool with an explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Pool {
        assert!(threads >= 1, "a pool needs at least one thread");
        Pool { threads }
    }

    /// The worker count this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, in parallel, returning results in item
    /// order. `f` receives `(index, &item)`.
    ///
    /// Determinism: for pure `f`, the result is bit-for-bit identical to
    /// the sequential `items.iter().enumerate().map(..)` at any thread
    /// count. With one worker (or one item) no thread is spawned and the
    /// exact sequential path runs.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f`.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.run(items.len(), |i| f(i, &items[i]))
    }

    /// Index-space variant of [`Pool::map`]: runs `f(0..n)` and returns
    /// the `n` results in index order. Useful when tasks are generated
    /// (Monte-Carlo lots) rather than stored.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f`.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            // The sequential code path — not an emulation of the
            // parallel one, the reference it is measured against.
            return (0..n).map(f).collect();
        }

        // Pre-split the index space into chunks, dealt round-robin so
        // every worker starts with local work spread across the range
        // (neighbouring tasks often cost alike; dealing spreads the
        // expensive region over all workers).
        let chunk = usize::max(1, n / (workers * 4));
        let queues: Vec<Mutex<VecDeque<Range<usize>>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let mut start = 0;
        let mut owner = 0;
        while start < n {
            let end = usize::min(start + chunk, n);
            queues[owner]
                .lock()
                .expect("queue lock")
                .push_back(start..end);
            owner = (owner + 1) % workers;
            start = end;
        }

        let mut merged: Vec<(usize, T)> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let queues = &queues;
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        // Own work first (LIFO), then steal (FIFO).
                        let range = {
                            let mut own = queues[w].lock().expect("queue lock");
                            own.pop_back()
                        };
                        let range = match range {
                            Some(r) => r,
                            None => match steal(queues, w) {
                                Some(r) => r,
                                None => break,
                            },
                        };
                        for i in range {
                            local.push((i, f(i)));
                        }
                    }
                    local
                }));
            }
            for h in handles {
                // join() propagates worker panics to the caller.
                merged.extend(h.join().expect("worker panicked"));
            }
        });

        // Ordered reduction: results leave in task-index order no matter
        // which worker produced them, or when.
        merged.sort_by_key(|&(i, _)| i);
        debug_assert_eq!(merged.len(), n, "every task produced one result");
        merged.into_iter().map(|(_, v)| v).collect()
    }
}

/// Steals one chunk from the front of some other worker's deque.
fn steal(queues: &[Mutex<VecDeque<Range<usize>>>], thief: usize) -> Option<Range<usize>> {
    let n = queues.len();
    for k in 1..n {
        let victim = (thief + k) % n;
        if let Some(r) = queues[victim].lock().expect("queue lock").pop_front() {
            return Some(r);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split_seed;
    use asicgap_tech::Rng64;

    /// A task whose cost varies by index, to exercise stealing.
    fn task(i: usize) -> f64 {
        let mut rng = Rng64::new(split_seed(0xABCD, i as u64));
        let draws = 100 + (i % 7) * 400;
        (0..draws).map(|_| rng.uniform()).sum()
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let sequential: Vec<f64> = (0..100).map(task).collect();
        for threads in [2, 3, 8, 17] {
            let parallel = Pool::with_threads(threads).run(100, task);
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<usize> = (0..57).collect();
        let doubled = Pool::with_threads(4).map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(doubled, (0..57).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_never_spawns() {
        // Thread-id check: with one worker the closure runs on the
        // calling thread.
        let caller = std::thread::current().id();
        let ids = Pool::with_threads(1).run(8, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn empty_and_tiny_jobs() {
        let empty: Vec<u32> = Pool::with_threads(8).run(0, |_| 1u32);
        assert!(empty.is_empty());
        assert_eq!(Pool::with_threads(8).run(1, |i| i), vec![0]);
    }

    #[test]
    fn more_threads_than_tasks() {
        let out = Pool::with_threads(64).run(3, |i| i * i);
        assert_eq!(out, vec![0, 1, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = Pool::with_threads(0);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Pool::with_threads(2).run(16, |i| {
                if i == 11 {
                    panic!("task 11 exploded");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
