//! Deterministic parallel execution of independent experiment points.
//!
//! Every figure/table row is a grid of completely independent simulator
//! runs — each point builds its own `Simulator` from its own seed, so runs
//! share no state and their results cannot depend on scheduling. [`sweep`]
//! fans the points out over scoped worker threads and returns results in
//! input order, which together make the output byte-identical to the serial
//! loop (asserted by the determinism regression tests).
//!
//! Thread count comes from `DCP_THREADS` (with `1` forcing the serial
//! path), defaulting to the machine's available parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f` over every point across [`dcp_netsim::env_threads`] workers
/// (`DCP_THREADS`, default all cores) and returns the results in input
/// order. See [`sweep_with_threads`] for the determinism contract.
pub fn sweep<P, R, F>(points: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    sweep_with_threads(points, dcp_netsim::env_threads(), f)
}

/// [`sweep`] over every `(row, col)` pair of two axes, returned as one row
/// of results per `rows` value, in `cols` order within it.
pub(crate) fn grid<A, B, R, F>(rows: &[A], cols: &[B], f: F) -> Vec<Vec<R>>
where
    A: Copy + Send,
    B: Copy + Send,
    R: Send,
    F: Fn(A, B) -> R + Sync,
{
    let points: Vec<(A, B)> =
        rows.iter().flat_map(|&a| cols.iter().map(move |&b| (a, b))).collect();
    let mut results = sweep(points, |(a, b)| f(a, b)).into_iter();
    rows.iter().map(|_| results.by_ref().take(cols.len()).collect()).collect()
}

/// [`sweep`] with an explicit worker count (used by tests to compare thread
/// counts without racing on the environment).
///
/// Determinism: `f` must derive everything from its point (each point
/// carries its own seed and builds its own `Simulator`). Workers claim
/// points via an atomic counter — *which* thread runs a point varies, but
/// since points share no state and results are stored by input index, the
/// returned `Vec` is identical for every thread count.
pub fn sweep_with_threads<P, R, F>(points: Vec<P>, n_threads: usize, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let n_points = points.len();
    if n_threads <= 1 || n_points <= 1 {
        return points.into_iter().map(f).collect();
    }

    // Hand points out by index: each is Some until exactly one worker
    // takes it.
    let work: Vec<Mutex<Option<P>>> = points.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..n_points).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for wi in 0..n_threads.min(n_points) {
            std::thread::Builder::new()
                .name(format!("dcp-sweep-{wi}"))
                .spawn_scoped(s, || loop {
                    let ix = next.fetch_add(1, Ordering::Relaxed);
                    if ix >= n_points {
                        return;
                    }
                    let p = work[ix].lock().expect("unpoisoned").take().expect("claimed once");
                    let r = f(p);
                    *results[ix].lock().expect("unpoisoned") = Some(r);
                })
                .expect("spawn sweep worker");
        }
    });

    results
        .into_iter()
        .map(|m| m.into_inner().expect("unpoisoned").expect("every point ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let points: Vec<u64> = (0..37).collect();
        let serial = sweep_with_threads(points.clone(), 1, |x| x * x);
        let parallel = sweep_with_threads(points, 8, |x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(serial[5], 25);
    }

    #[test]
    fn runs_every_point_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = sweep_with_threads((0..100u64).collect(), 4, |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = sweep_with_threads(Vec::new(), 4, |x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(sweep_with_threads(vec![7u32], 4, |x| x + 1), vec![8]);
    }
}
