//! Scoped fork-join parallelism for the fleet-scale loops.
//!
//! Every per-vehicle computation in the workspace — batch scoring, the
//! fleet-level Grand ablation, daily-series construction — is
//! embarrassingly parallel: vehicles never share mutable state. Before
//! this module each call site hand-rolled its own `std::thread::scope`
//! round-robin loop; [`par_map`] centralises that pattern (std-only, no
//! thread-pool dependency) so the partitioning, ordering and panic
//! propagation are written once.

/// Sampling mask for per-item task timing: coarse fan-outs (fleets of
/// vehicles) time every item so the `par_map.task_ns` histogram keeps its
/// one-entry-per-task semantics; fine-grained fan-outs over many cheap
/// items time 1 in 8 so the clock reads cannot dominate the work.
fn task_sample_mask(n: usize) -> usize {
    if n > 256 {
        7
    } else {
        0
    }
}

/// Maps `f` over `items` in parallel and returns the results in input
/// order.
///
/// Work is partitioned round-robin over `min(available_parallelism,
/// items.len())` scoped threads — per-vehicle workloads vary smoothly
/// along the fleet (history length decides cost), so round-robin balances
/// within a few percent without a work-stealing queue. `f` receives
/// `(index, &item)`; a panic in any worker is resumed on the caller's
/// thread after the scope joins.
///
/// On a single-core host the scope degenerates to one worker thread, so
/// the overhead over a serial loop is one spawn/join per call.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = parallelism().clamp(1, n);

    // Task timing is resolved once per call, not per item; each worker
    // accumulates into a thread-local `BatchedRecorder` (plain locals, no
    // atomics) flushed once when the worker finishes. Coarse fan-outs
    // (fleets of vehicles) time every item; fine-grained fan-outs over
    // many cheap items sample 1 in 8 so the probe cannot dominate the
    // work. Disabled, `task_ns` is `None` and each item pays one branch.
    let span = navarchos_obs::span("par_map");
    // Workers inherit this id so their spans parent onto the `par_map`
    // frame: a traced evaluate folds into one tree, not a forest with one
    // root per worker thread (ROADMAP: per-thread span parenting).
    let parent_id = span.id();
    let task_ns =
        navarchos_obs::metrics_enabled().then(|| navarchos_obs::histogram("par_map.task_ns"));
    let item_mask = task_sample_mask(n);

    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let f = &f;
        let task_ns = &task_ns;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let _worker = navarchos_obs::span_child_of("par_map.worker", parent_id);
                    let mut recorder = task_ns
                        .as_ref()
                        .map(|h| navarchos_obs::BatchedRecorder::new(std::sync::Arc::clone(h)));
                    let mut out = Vec::new();
                    for (i, item) in items.iter().enumerate().skip(t).step_by(threads) {
                        match &mut recorder {
                            Some(rec) if i & item_mask == 0 => {
                                let t0 = std::time::Instant::now();
                                let r = f(i, item);
                                rec.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(0));
                                out.push((i, r));
                            }
                            _ => out.push((i, f(i, item))),
                        }
                    }
                    // Recorder drop also flushes; explicit for clarity.
                    if let Some(mut rec) = recorder {
                        rec.flush();
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(part) => part,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    drop(span);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Maps `f` over `items` in parallel with exclusive (`&mut`) access to
/// each item, returning the results in input order.
///
/// The companion to [`par_map`] for fan-outs over *stateful* workers — the
/// ingest engine's shards each own per-vehicle pipelines that must be
/// mutated in place, once per batch. Items are partitioned into
/// `min(available_parallelism, items.len())` contiguous chunks via
/// `split_at_mut`, so the borrow checker can prove the `&mut` slices are
/// disjoint. The calling thread runs the first chunk itself and scoped
/// threads run the rest: one item (one shard) spawns no thread, two spawn
/// one. `f` receives `(index, &mut item)` with `index` relative to
/// `items`. A panic in any chunk — the caller's or a spawned one — reaches
/// the caller only after every spawned thread has joined. Every chunk,
/// the caller's included, runs under a `par_map.worker` span parented onto
/// the `par_map_mut` span, same as [`par_map`].
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    par_map_mut_on(parallelism(), items, f)
}

/// Worker threads a fan-out may use: `available_parallelism`, resolved once
/// per process (on Linux it reads cgroup files, tens of µs per call).
fn parallelism() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4))
}

/// [`par_map_mut`] over at most `threads` chunks.
fn par_map_mut_on<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let span = navarchos_obs::span("par_map_mut");
    let parent_id = span.id();
    let run = |base: usize, chunk: &mut [T]| -> Vec<R> {
        let _worker = navarchos_obs::span_child_of("par_map.worker", parent_id);
        chunk.iter_mut().enumerate().map(|(i, item)| f(base + i, item)).collect()
    };

    // Contiguous chunking (ceil(n / threads) per chunk) instead of
    // round-robin: disjoint `&mut` sub-slices are free; an index shuffle
    // would need unsafe or per-item locks.
    let chunk_len = n.div_ceil(threads.clamp(1, n));
    let (first, rest) = items.split_at_mut(chunk_len);
    let results = std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = rest
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(c, chunk)| scope.spawn(move || run((c + 1) * chunk_len, chunk)))
            .collect();
        // If the caller's chunk panics, the scope still joins every
        // spawned thread before the unwind leaves it.
        let mut out = run(0, first);
        // Joined in spawn order, so appending restores input order.
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    });
    drop(span);
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<usize> = (0..57).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..57).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u8> = Vec::new();
        let out: Vec<u8> = par_map(&items, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline_shape() {
        let out = par_map(&[41], |_, &x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map(&[1, 2, 3], |_, &x| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(result.is_err(), "panic must cross the scope");
    }

    #[test]
    fn sample_mask_spares_small_fanouts() {
        assert_eq!(task_sample_mask(1), 0);
        assert_eq!(task_sample_mask(40), 0);
        assert_eq!(task_sample_mask(256), 0);
        assert_eq!(task_sample_mask(257), 7);
        assert_eq!(task_sample_mask(100_000), 7);
    }

    #[test]
    fn small_fanouts_record_one_timing_per_task() {
        navarchos_obs::set_metrics_enabled(true);
        let h = navarchos_obs::histogram("par_map.task_ns");
        let before = h.snapshot().count;
        let items: Vec<usize> = (0..40).collect();
        let _ = par_map(&items, |_, &x| x);
        let after = h.snapshot().count;
        // >= because other tests in this binary may also record; the
        // batched recorders must have flushed all 40 samples by return.
        assert!(after >= before + 40, "{before} -> {after}");
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_preserves_order() {
        let mut items: Vec<u64> = (0..137).collect();
        let out = par_map_mut(&mut items, |i, x| {
            assert_eq!(i as u64, *x);
            *x += 1;
            *x * 10
        });
        assert_eq!(items, (1..138).collect::<Vec<u64>>());
        assert_eq!(out, (1..138).map(|x| x * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn par_map_mut_empty_and_single() {
        let mut empty: Vec<u8> = Vec::new();
        let out: Vec<u8> = par_map_mut(&mut empty, |_, &mut x| x);
        assert!(out.is_empty());
        let mut one = vec![41u8];
        assert_eq!(par_map_mut(&mut one, |_, x| *x + 1), vec![42]);
    }

    #[test]
    fn par_map_mut_runs_the_first_chunk_on_the_caller() {
        let caller = std::thread::current().id();
        let mut items = vec![0u8; 4];
        let ids = par_map_mut_on(2, &mut items, |_, _| std::thread::current().id());
        assert_eq!(ids[..2], [caller, caller], "chunk 0 runs on the calling thread");
        assert!(ids[2..].iter().all(|&id| id != caller), "chunk 1 runs on a spawned thread");
        // Whatever the host's parallelism, item 0 is always the caller's.
        let mut items = vec![0u8; 9];
        assert_eq!(par_map_mut(&mut items, |_, _| std::thread::current().id())[0], caller);
    }

    #[test]
    fn par_map_mut_single_item_spawns_nothing() {
        let caller = std::thread::current().id();
        let mut one = vec![0u8];
        for threads in [1, 2, 8] {
            let ids = par_map_mut_on(threads, &mut one, |_, _| std::thread::current().id());
            assert_eq!(ids, vec![caller]);
        }
    }

    #[test]
    fn par_map_mut_preserves_order_for_every_chunking() {
        for threads in 1..=12 {
            let mut items: Vec<usize> = (0..10).collect();
            let out = par_map_mut_on(threads, &mut items, |i, x| {
                assert_eq!(i, *x);
                *x * 3
            });
            assert_eq!(out, (0..10).map(|x| x * 3).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    /// Runs a `par_map_mut_on` whose item `panics_at` panics and whose
    /// last item finishes only after that panic has started; returns the
    /// panic message and whether the late item had finished by the time
    /// the panic reached the caller.
    fn panic_after_join(threads: usize, n: usize, panics_at: usize) -> (String, bool) {
        use std::sync::atomic::{AtomicBool, Ordering};
        let late_done = AtomicBool::new(false);
        let (panicking, panic_started) = std::sync::mpsc::channel::<()>();
        let panic_started = std::sync::Mutex::new(panic_started);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut items: Vec<usize> = (0..n).collect();
            par_map_mut_on(threads, &mut items, |i, _| {
                if i == panics_at {
                    let _ = panicking.send(());
                    panic!("boom at {i}");
                }
                if i == n - 1 {
                    // The channel orders the panic first; the pause keeps
                    // this item running while the panic unwinds, so a
                    // caller that did not wait would see the flag unset.
                    let _ = panic_started.lock().map(|rx| rx.recv());
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    late_done.store(true, Ordering::SeqCst);
                }
            })
        }));
        let payload = result.expect_err("the panic must reach the caller");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        (msg, late_done.load(Ordering::SeqCst))
    }

    #[test]
    fn par_map_mut_caller_chunk_panic_waits_for_spawned_chunks() {
        assert_eq!(panic_after_join(2, 2, 0), ("boom at 0".to_string(), true));
    }

    #[test]
    fn par_map_mut_spawned_chunk_panic_waits_for_the_others() {
        assert_eq!(panic_after_join(3, 3, 1), ("boom at 1".to_string(), true));
    }

    #[test]
    fn par_map_mut_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut items = vec![1, 2, 3];
            par_map_mut(&mut items, |_, x| {
                assert!(*x != 2, "boom");
                *x
            })
        });
        assert!(result.is_err(), "panic must cross the scope");
    }

    #[test]
    fn results_match_serial_map() {
        let items: Vec<f64> = (0..200).map(|i| i as f64 * 0.5).collect();
        let par = par_map(&items, |_, &x| x.sin() + x.sqrt());
        let ser: Vec<f64> = items.iter().map(|&x| x.sin() + x.sqrt()).collect();
        assert_eq!(par, ser, "bit-identical to the serial loop");
    }
}
