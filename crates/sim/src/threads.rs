//! The shared worker-pool sizing policy.
//!
//! Both parallelism layers size themselves through [`worker_count`] — the
//! sweep runner in `bcp-experiments` (many independent runs) and the
//! conservative shard pool in [`conservative`](crate::conservative) (one
//! run split across cores) — so a single `BCP_THREADS` environment
//! variable governs every pool in the process. The cap applies per
//! layer, not jointly: nesting sharded runs inside a parallel sweep
//! multiplies the two pools, so set `BCP_THREADS=1` (or leave
//! `shards = 1`) when sweeping.

/// The environment variable overriding the worker count.
pub const THREADS_ENV: &str = "BCP_THREADS";

/// Number of worker threads to use for a pool of `jobs` parallelisable
/// units: the `BCP_THREADS` override if set (invalid or zero values are
/// ignored), capped at the machine's available parallelism when that is
/// known — threads past the core count only take turns with each other,
/// and a shard pool's barrier then waits on the descheduled — otherwise
/// the available parallelism (4 if unknown); clamped to `jobs` and always
/// at least 1.
pub fn worker_count(jobs: usize) -> usize {
    let asked = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    let cores = || std::thread::available_parallelism().map(|n| n.get());
    let hw = match asked {
        // The core count is read from the OS (cgroup files on Linux), a
        // cost every world build would pay; a pool of one needs no cap.
        Some(n) if n.min(jobs) > 1 => cores().map_or(n, |c| n.min(c)),
        Some(n) => n,
        None => cores().unwrap_or(4),
    };
    hw.min(jobs).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Environment mutation is process-global, so every case that touches
    // BCP_THREADS lives in this one test (tests in a binary may run
    // concurrently).
    #[test]
    fn env_override_and_clamping() {
        std::env::remove_var(THREADS_ENV);
        assert_eq!(worker_count(0), 1, "at least one worker");
        assert!(worker_count(3) <= 3, "clamped to job count");

        let cores = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
        std::env::set_var(THREADS_ENV, "2");
        assert_eq!(worker_count(8), 2.min(cores), "override honoured");
        assert_eq!(worker_count(1), 1, "still clamped to jobs");

        std::env::set_var(THREADS_ENV, cores.saturating_add(1).to_string());
        assert_eq!(worker_count(usize::MAX), cores, "capped at the core count");

        std::env::set_var(THREADS_ENV, "0");
        assert!(worker_count(64) >= 1, "zero override ignored");

        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(worker_count(64) >= 1, "garbage override ignored");

        std::env::remove_var(THREADS_ENV);
    }
}
