//! # asicgap-exec
//!
//! The workspace's deterministic parallel execution engine.
//!
//! The gap experiments are dominated by embarrassingly parallel work:
//! independent [`DesignScenario`](../asicgap/flow) runs, independent
//! Monte-Carlo lots. This crate provides
//! the one primitive they all share — a dependency-free, work-stealing
//! `std::thread` pool with **ordered reduction** — under a contract that
//! every caller in the workspace relies on:
//!
//! ## The determinism contract
//!
//! For a pure task function `f`, `Pool::map(items, f)` returns a vector
//! **bit-for-bit identical** to `items.iter().enumerate().map(f)` run
//! sequentially, at *any* thread count:
//!
//! 1. tasks never share mutable state — each produces its own output;
//! 2. every stochastic task derives its RNG stream from
//!    [`split_seed`]`(base, index)`, a function of the task *index*, never
//!    of the executing thread or of scheduling order;
//! 3. results are reduced in task-index order (ordered reduction), so
//!    floating-point accumulation order is fixed.
//!
//! With one thread (`ASICGAP_THREADS=1`) the pool does not spawn at all:
//! it runs the exact sequential code path, so "parallel off" is not a
//! separately-maintained mode.
//!
//! ## Thread-count policy
//!
//! The `ASICGAP_THREADS` environment variable caps worker threads for
//! every pool constructed through [`Pool::from_env`] (the default used
//! across the workspace). Unset or invalid values fall back to
//! [`std::thread::available_parallelism`]. The variable is re-read on
//! every construction, so tests can pin different counts in one process.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod pool;
mod seed;

pub use pool::Pool;
pub use seed::split_seed;

/// The number of worker threads [`Pool::from_env`] will use: the value
/// of `ASICGAP_THREADS` if it parses to a positive integer, otherwise
/// the machine's available parallelism (1 if even that is unknown).
pub fn thread_count() -> usize {
    match std::env::var("ASICGAP_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }
}
