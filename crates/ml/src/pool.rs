//! The crate's one parallel site: a batch of independent jobs run by one
//! set of workers.
//!
//! A model build is one forest per label, each assessed by its own
//! out-of-bag votes ([`crate::crossval::build_forests`]); a k-fold
//! [`crate::crossval::cross_validate`] is one forest per fold. Each forest
//! is a job, fitted on one thread from start to end; the workers pull job
//! indices from one shared cursor until none are left, so a slow job only
//! delays the worker that drew it. A job's result depends on its index
//! alone, never on which worker ran it or when, so a batch yields the same
//! values at every worker count.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One worker per hardware thread the host offers. A measurement, never a
/// knob: nothing a pool computes depends on it.
pub(crate) fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Runs `job(0)`, …, `job(jobs - 1)` on up to `workers` threads, the
/// calling thread among them, and returns the results in index order.
///
/// With one worker (or one job) nothing is spawned. A job that panics
/// propagates its panic to the caller once the other workers have drained
/// the cursor.
pub(crate) fn run<T, F>(jobs: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, jobs.max(1));
    // tidy:atomic(next: relaxed): a claim cursor; each index is handed out once by the rmw itself, and the results reach the caller through the workers' joins, not through this counter
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return done;
            }
            done.push((i, job(i)));
        }
    };
    let mut done = if workers == 1 {
        drain()
    } else {
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
            let mut done = drain();
            for helper in helpers {
                match helper.join() {
                    Ok(part) => done.extend(part),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            done
        })
    };
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_at_every_worker_count() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [0, 1, 2, 3, 8, 64, host_workers()] {
            assert_eq!(run(37, workers, |i| i * i), expected, "{workers} workers");
        }
    }

    #[test]
    fn an_empty_batch_runs_nothing() {
        let out: Vec<()> = run(0, 4, |_| unreachable!("no job to run"));
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "job 5 fails")]
    fn a_job_panic_reaches_the_caller() {
        let _ = run(8, 3, |i| assert!(i != 5, "job 5 fails"));
    }
}
