//! Back-to-back parallel calls reuse the pool's threads instead of
//! spawning new ones. Its own test binary, so no other test's threads
//! move the process's thread count while it is measured.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

use spark_util::par::{par_map, thread_count};

/// The `Threads:` line of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("status has a Threads: line")
}

#[test]
fn a_thousand_calls_spawn_no_threads_beyond_the_pool() {
    let pool = thread_count() - 1;
    #[cfg(target_os = "linux")]
    let baseline = os_threads();
    let ran_on: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let items: Vec<u64> = (0..16).collect();
    for call in 0..1000u64 {
        let out = par_map(&items, |&x| {
            ran_on.lock().expect("no chunk panics").insert(std::thread::current().id());
            x + call
        });
        assert_eq!(out, (call..call + 16).collect::<Vec<_>>());
    }
    // Every chunk ran on the caller or on one of the pool's workers: a
    // per-call spawn would show up as ~1000 distinct threads here.
    let distinct = ran_on.into_inner().expect("no chunk panics").len();
    assert!(distinct <= pool + 1, "{distinct} threads ran chunks; pool holds {pool}");
    #[cfg(target_os = "linux")]
    {
        let after = os_threads();
        assert!(after <= baseline + pool, "Threads: {baseline} -> {after} with a pool of {pool}");
    }
}
