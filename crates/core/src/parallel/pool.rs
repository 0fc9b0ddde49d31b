//! Deterministic work-stealing execution of indexed task sets.
//!
//! [`run_indexed`] runs `n` independent tasks, identified by index, on a
//! fixed number of workers. Each worker owns a contiguous index range and
//! claims indices from it with an atomic cursor; a worker whose range is
//! exhausted *steals* from the other ranges, so a straggler task cannot
//! idle the rest of the pool. Results are written into per-index slots —
//! no mutex is touched on the hot path (a mutex guards only the cold
//! panic-collection path).
//!
//! # Determinism contract
//!
//! The pool guarantees that the returned vector is a pure function of the
//! task outputs: slot `i` always holds the result of task `i`, no matter
//! which worker executed it or in what order stealing happened. Combined
//! with per-index RNG derivation in the callers (campaign points seed
//! from `(seed, point_index)`), every result in this crate is
//! bit-identical at any thread count.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;
use scibench_trace::{category, lane_of, ArgValue, Tracer};

/// Runs tasks `0..n` on up to `threads` workers and returns their results
/// in index order.
///
/// A task that panics yields `Err(payload)` in its slot (the panic is
/// contained per-task; it neither poisons shared state nor kills other
/// workers' tasks). All `n` tasks always run — there is no early abort —
/// so callers can resolve errors in *their* preferred order rather than
/// in scheduling order.
pub fn run_indexed<T, F>(n: usize, threads: usize, task: F) -> Vec<std::thread::Result<T>>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_scoped_traced(n, threads, None, || (), |(), i| task(i))
}

/// [`run_indexed`] with a per-worker scratch state and optional tracing.
///
/// `init` runs once on each worker (lane) to build its private scratch
/// value `S`, and every task executed by that worker receives `&mut S`.
/// This is how hot loops reuse arenas — e.g. a
/// `scibench_sim::compile::ReplayCtx` per lane — without any cross-thread
/// sharing: each scratch value is owned by exactly one worker for the
/// whole call. The determinism contract of [`run_indexed`] is unchanged
/// *provided* the task's output does not depend on scratch contents
/// carried across tasks (an arena of reusable buffers qualifies; an
/// accumulator does not). Callers without scratch pass `|| ()`.
///
/// When `tracer` is `Some`, each worker records on its own lane: one
/// [`category::POOL`] span per executed task (exactly `n` at any thread
/// count — a deterministic event stream), plus schedule-dependent
/// [`category::SCHED`] events — a per-worker occupancy span, one steal
/// instant per task claimed outside the worker's own range — which vary
/// run-to-run and are excluded from determinism checks. Tracing never
/// influences task execution or result order, so the determinism
/// contract above is unaffected; with `tracer` `None` every
/// instrumentation point is a single branch.
pub fn run_indexed_scoped_traced<S, T, I, F>(
    n: usize,
    threads: usize,
    tracer: Option<&Tracer>,
    init: I,
    task: F,
) -> Vec<std::thread::Result<T>>
where
    S: Send,
    T: Send + Sync,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        let mut lane = lane_of(tracer, 0);
        let occupancy = lane.begin();
        let mut scratch = init();
        let out = (0..n)
            .map(|i| {
                let start = lane.begin();
                let result = catch_unwind(AssertUnwindSafe(|| task(&mut scratch, i)));
                lane.end(
                    start,
                    category::POOL,
                    "task",
                    &[
                        ("index", ArgValue::U64(i as u64)),
                        ("stolen", ArgValue::Bool(false)),
                    ],
                );
                result
            })
            .collect();
        lane.end(
            occupancy,
            category::SCHED,
            "worker",
            &[
                ("tasks", ArgValue::U64(n as u64)),
                ("steals", ArgValue::U64(0)),
            ],
        );
        return out;
    }

    // Worker `w` owns the contiguous range `bounds[w]..bounds[w + 1]`.
    let bounds: Vec<usize> = (0..=threads).map(|w| w * n / threads).collect();
    let cursors: Vec<AtomicUsize> = (0..threads).map(|w| AtomicUsize::new(bounds[w])).collect();
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let panics: Mutex<Vec<(usize, Box<dyn Any + Send>)>> = Mutex::new(Vec::new());

    {
        let bounds = &bounds;
        let cursors = &cursors;
        let slots = &slots;
        let panics = &panics;
        let task = &task;
        let init = &init;
        std::thread::scope(|scope| {
            for w in 0..threads {
                scope.spawn(move || {
                    let mut lane = lane_of(tracer, w as u32);
                    let occupancy = lane.begin();
                    let mut scratch = init();
                    let mut executed = 0u64;
                    let mut steals = 0u64;
                    // Drain the own range first (probe 0), then steal
                    // from the neighbours in a fixed rotation.
                    for probe in 0..threads {
                        let victim = (w + probe) % threads;
                        let end = bounds[victim + 1];
                        loop {
                            let i = cursors[victim].fetch_add(1, Ordering::Relaxed);
                            if i >= end {
                                break;
                            }
                            if probe > 0 {
                                steals += 1;
                                lane.instant(
                                    category::SCHED,
                                    "steal",
                                    &[
                                        ("victim", ArgValue::U64(victim as u64)),
                                        ("index", ArgValue::U64(i as u64)),
                                    ],
                                );
                            }
                            executed += 1;
                            let start = lane.begin();
                            match catch_unwind(AssertUnwindSafe(|| task(&mut scratch, i))) {
                                Ok(value) => {
                                    let fresh = slots[i].set(value).is_ok();
                                    debug_assert!(fresh, "index {i} claimed twice");
                                }
                                Err(payload) => panics.lock().push((i, payload)),
                            }
                            lane.end(
                                start,
                                category::POOL,
                                "task",
                                &[
                                    ("index", ArgValue::U64(i as u64)),
                                    ("stolen", ArgValue::Bool(probe > 0)),
                                ],
                            );
                        }
                    }
                    lane.end(
                        occupancy,
                        category::SCHED,
                        "worker",
                        &[
                            ("tasks", ArgValue::U64(executed)),
                            ("steals", ArgValue::U64(steals)),
                        ],
                    );
                });
            }
        });
    }

    let mut panic_by_index: Vec<Option<Box<dyn Any + Send>>> = (0..n).map(|_| None).collect();
    for (i, payload) in panics.into_inner() {
        panic_by_index[i] = Some(payload);
    }
    slots
        .into_iter()
        .zip(panic_by_index)
        .map(|(slot, panic)| match panic {
            Some(payload) => Err(payload),
            None => Ok(slot
                .into_inner()
                .expect("every index is claimed by exactly one worker")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_index_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_indexed(37, threads, |i| i * i);
            assert_eq!(out.len(), 37);
            for (i, r) in out.into_iter().enumerate() {
                assert_eq!(r.unwrap(), i * i, "threads={threads}");
            }
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let out = run_indexed(100, 8, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out.len(), 100);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "task {i}");
        }
    }

    #[test]
    fn stealing_finishes_despite_stragglers() {
        // Give worker 0's range all the slow tasks: with stealing the
        // other workers drain them; without it the call would still
        // finish, so the real assertion is completeness + order.
        let out = run_indexed(64, 8, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i + 1
        });
        for (i, r) in out.into_iter().enumerate() {
            assert_eq!(r.unwrap(), i + 1);
        }
    }

    #[test]
    fn panics_are_contained_per_task() {
        let out = run_indexed(10, 4, |i| {
            if i == 3 || i == 7 {
                panic!("boom {i}");
            }
            i
        });
        for (i, r) in out.into_iter().enumerate() {
            if i == 3 || i == 7 {
                let payload = r.expect_err("task panicked");
                let msg = payload.downcast_ref::<String>().unwrap();
                assert_eq!(msg, &format!("boom {i}"));
            } else {
                assert_eq!(r.unwrap(), i);
            }
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_counts_tasks() {
        use scibench_trace::category;
        for threads in [1, 2, 8] {
            let plain = run_indexed(25, threads, |i| i * 3);
            let tracer = Tracer::new();
            let traced =
                run_indexed_scoped_traced(25, threads, Some(&tracer), || (), |(), i| i * 3);
            let plain: Vec<usize> = plain.into_iter().map(|r| r.unwrap()).collect();
            let traced: Vec<usize> = traced.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(plain, traced, "threads={threads}");
            let trace = tracer.drain();
            // Exactly one POOL task span per task at any thread count.
            assert_eq!(trace.count(category::POOL), 25, "threads={threads}");
            assert_eq!(
                trace.deterministic_counts().get(category::POOL),
                Some(&25usize)
            );
            // Schedule-dependent events exist (worker occupancy spans) but
            // are excluded from the deterministic view.
            assert!(trace.count(category::SCHED) >= 1);
            assert!(!trace.deterministic_counts().contains_key(category::SCHED));
        }
    }

    #[test]
    fn traced_pool_spans_carry_task_indices() {
        use scibench_trace::{category, EventKind};
        let tracer = Tracer::new();
        let _ = run_indexed_scoped_traced(10, 3, Some(&tracer), || (), |(), i| i);
        let trace = tracer.drain();
        let mut indices: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| e.cat == category::POOL && matches!(e.kind, EventKind::Span { .. }))
            .filter_map(|e| match e.arg("index") {
                Some(scibench_trace::ArgValue::U64(i)) => Some(*i),
                _ => None,
            })
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..10u64).collect::<Vec<_>>());
    }

    use scibench_trace::Tracer;

    #[test]
    fn scoped_scratch_is_per_worker_and_reused() {
        // Each worker gets its own Vec arena; tasks record the arena
        // address to prove no cross-thread sharing, and results must be
        // identical to the unscoped run at every thread count.
        for threads in [1, 2, 8] {
            let out = run_indexed_scoped_traced(
                50,
                threads,
                None,
                || Vec::<u64>::with_capacity(64),
                |arena, i| {
                    arena.clear();
                    arena.extend((0..=i as u64).map(|x| x * x));
                    (arena.as_ptr() as usize, arena.iter().sum::<u64>())
                },
            );
            let plain = run_indexed(50, threads, |i| (0..=i as u64).map(|x| x * x).sum::<u64>());
            let mut arenas = std::collections::HashSet::new();
            for (i, (r, p)) in out.into_iter().zip(plain).enumerate() {
                let (ptr, sum) = r.unwrap();
                assert_eq!(sum, p.unwrap(), "threads={threads} task={i}");
                arenas.insert(ptr);
            }
            // At most one arena per worker (reallocation can add a few,
            // but never one per task).
            assert!(arenas.len() <= threads.max(1) * 2, "threads={threads}");
        }
    }

    #[test]
    fn degenerate_shapes() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
        let one = run_indexed(1, 16, |i| i + 5);
        assert_eq!(one[0].as_ref().unwrap(), &5);
        // More threads than tasks clamps cleanly.
        let out = run_indexed(3, 100, |i| i);
        assert_eq!(out.len(), 3);
    }
}
