//! Fork-join parallelism for the fleet-scale loops.
//!
//! Every per-vehicle computation in the workspace — batch scoring, the
//! fleet-level Grand ablation, daily-series construction — is
//! embarrassingly parallel: vehicles never share mutable state. Before
//! this module each call site hand-rolled its own `std::thread::scope`
//! round-robin loop; [`par_map`] centralises that pattern (std-only, no
//! thread-pool dependency) so the partitioning, ordering and panic
//! propagation are written once.
//!
//! [`OwnerPool`] is the companion for fan-outs that repeat many times a
//! second over the same stateful items — the ingest engine's shards, once
//! per batch. Its worker threads persist across calls and the items move
//! to them by value over channels, so a call pays a channel round trip per
//! chunk rather than a thread spawn and join.

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

/// Worker threads a fan-out may use: `available_parallelism`, resolved once
/// per process (on Linux it reads cgroup files, tens of µs per call).
fn parallelism() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4))
}

/// The per-item function of one [`OwnerPool::par_map_mut`] call, shared by
/// every chunk of that call.
type ChunkFn<T, R> = std::sync::Arc<dyn Fn(usize, &mut T) -> R + Send + Sync>;

/// One chunk sent to a worker: its items by value, the index of its first
/// item, the call's function, and the fan-out span to parent onto.
struct Job<T, R> {
    base: usize,
    items: Vec<T>,
    f: ChunkFn<T, R>,
    parent: Option<u64>,
}

/// A chunk coming back: its items, and its results or its panic.
struct Done<T, R> {
    items: Vec<T>,
    out: std::thread::Result<Vec<R>>,
}

struct Worker<T, R> {
    jobs: std::sync::mpsc::Sender<Job<T, R>>,
    done: std::sync::mpsc::Receiver<Done<T, R>>,
    handle: std::thread::JoinHandle<()>,
}

impl<T: Send + 'static, R: Send + 'static> Worker<T, R> {
    fn spawn() -> Self {
        let (jobs, job_rx) = std::sync::mpsc::channel::<Job<T, R>>();
        let (done_tx, done) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            // Ends when the pool drops its sender.
            for Job { base, mut items, f, parent } in job_rx {
                let out = run_chunk(&*f, base, &mut items, parent);
                if done_tx.send(Done { items, out }).is_err() {
                    break;
                }
            }
        });
        Worker { jobs, done, handle }
    }
}

/// Runs `f` over one chunk under a `par_map.worker` span, catching a panic
/// so the chunk's items survive it.
fn run_chunk<T, R>(
    f: &(dyn Fn(usize, &mut T) -> R + Send + Sync),
    base: usize,
    items: &mut [T],
    parent: Option<u64>,
) -> std::thread::Result<Vec<R>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _worker = navarchos_obs::span_child_of("par_map.worker", parent);
        items.iter_mut().enumerate().map(|(i, item)| f(base + i, item)).collect()
    }))
}

/// A persistent fork-join pool for fan-outs over *owned, stateful* items —
/// the ingest engine's shards, each owning per-vehicle pipelines that are
/// mutated once per batch.
///
/// [`OwnerPool::par_map_mut`] splits the items into
/// `min(available_parallelism, items.len())` contiguous chunks. The
/// calling thread runs chunk 0 in place; every other chunk moves by value
/// over a channel to its own worker — chunk `k` always to the same one, a
/// long-lived thread spawned on the first call that needs it and joined
/// when the pool drops — and comes back with its results. So one item
/// spawns nothing, and a steady fan-out pays a channel round trip per
/// chunk instead of a thread spawn and join per call.
pub struct OwnerPool<T, R> {
    /// Most chunks one call splits its items into.
    threads: usize,
    /// `workers[k]` runs chunk `k + 1` of every call.
    workers: Vec<Worker<T, R>>,
}

impl<T: Send + 'static, R: Send + 'static> OwnerPool<T, R> {
    /// A pool that spawns no thread until a call has a second chunk.
    pub fn new() -> Self {
        Self::with_threads(parallelism())
    }

    /// A pool splitting each call into at most `threads` chunks.
    fn with_threads(threads: usize) -> Self {
        OwnerPool { threads, workers: Vec::new() }
    }

    /// Maps `f` over `items` with exclusive access to each, returning the
    /// results in input order; `f` receives `(index, &mut item)`.
    ///
    /// Items leave `items` while their chunk runs and are all back, in
    /// their original order, when the call returns or unwinds. A panic in
    /// any chunk — the caller's or a worker's — is caught where it
    /// happens; the first one in chunk order is resumed on the caller once
    /// every chunk has returned its items, and the pool stays usable.
    /// Every chunk, the caller's included, runs under a `par_map.worker`
    /// span parented onto the call's `par_map_mut` span.
    pub fn par_map_mut<F>(&mut self, items: &mut Vec<T>, f: F) -> Vec<R>
    where
        F: Fn(usize, &mut T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let span = navarchos_obs::span("par_map_mut");
        let parent = span.id();
        let f: ChunkFn<T, R> = std::sync::Arc::new(f);

        // Contiguous chunking (ceil(n / threads) per chunk): chunk 0 stays
        // in `items`, the rest leave by value, chunk k to `workers[k - 1]`.
        let chunk_len = n.div_ceil(self.threads.clamp(1, n));
        let sent = n.div_ceil(chunk_len) - 1;
        // Spawned before any item leaves `items`, so a failed spawn loses none.
        while self.workers.len() < sent {
            self.workers.push(Worker::spawn());
        }
        let mut rest = items.split_off(chunk_len).into_iter();
        for (k, worker) in self.workers[..sent].iter().enumerate() {
            let chunk: Vec<T> = rest.by_ref().take(chunk_len).collect();
            let job = Job {
                base: (k + 1) * chunk_len,
                items: chunk,
                f: std::sync::Arc::clone(&f),
                parent,
            };
            if worker.jobs.send(job).is_err() {
                worker_lost();
            }
        }

        let mut panic = None;
        let mut out = Vec::with_capacity(n);
        match run_chunk(&*f, 0, items, parent) {
            Ok(part) => out.extend(part),
            Err(payload) => panic = Some(payload),
        }
        // Received in chunk order, so appending restores input order.
        for worker in &self.workers[..sent] {
            let Ok(Done { items: chunk, out: part }) = worker.done.recv() else {
                worker_lost();
            };
            items.extend(chunk);
            match part {
                Ok(part) => out.extend(part),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        drop(span);
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        out
    }
}

/// A worker catches every panic of its chunks, so its channels close only
/// when the pool drops; reaching this means the thread died some other way
/// and its chunk's items are gone.
fn worker_lost() -> ! {
    std::panic::resume_unwind(Box::new("owner pool worker exited with a chunk in flight"))
}

impl<T: Send + 'static, R: Send + 'static> Default for OwnerPool<T, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, R> std::fmt::Debug for OwnerPool<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OwnerPool")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl<T, R> Drop for OwnerPool<T, R> {
    /// Closes every worker's job channel and joins its thread.
    fn drop(&mut self) {
        for Worker { jobs, done, handle } in self.workers.drain(..) {
            drop((jobs, done));
            // A worker catches its chunks' panics, so join has none to report.
            let _ = handle.join();
        }
    }
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
        let out = OwnerPool::new().par_map_mut(&mut items, |i, x| {
            assert_eq!(i as u64, *x);
            *x += 1;
            *x * 10
        });
        assert_eq!(items, (1..138).collect::<Vec<u64>>());
        assert_eq!(out, (1..138).map(|x| x * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn par_map_mut_empty_and_single() {
        let mut pool = OwnerPool::new();
        let mut empty: Vec<u8> = Vec::new();
        let out: Vec<u8> = pool.par_map_mut(&mut empty, |_, &mut x| x);
        assert!(out.is_empty());
        let mut one = vec![41u8];
        assert_eq!(pool.par_map_mut(&mut one, |_, x| *x + 1), vec![42]);
    }

    fn thread_ids<T: Send + 'static>(
        pool: &mut OwnerPool<T, std::thread::ThreadId>,
        items: &mut Vec<T>,
    ) -> Vec<std::thread::ThreadId> {
        pool.par_map_mut(items, |_, _| std::thread::current().id())
    }

    #[test]
    fn par_map_mut_runs_the_first_chunk_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = thread_ids(&mut OwnerPool::with_threads(2), &mut vec![0u8; 4]);
        assert_eq!(ids[..2], [caller, caller], "chunk 0 runs on the calling thread");
        assert!(ids[2..].iter().all(|&id| id != caller), "chunk 1 runs on a worker thread");
        // Whatever the host's parallelism, item 0 is always the caller's.
        assert_eq!(thread_ids(&mut OwnerPool::new(), &mut vec![0u8; 9])[0], caller);
    }

    #[test]
    fn par_map_mut_single_item_spawns_nothing() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 8] {
            let mut pool = OwnerPool::with_threads(threads);
            assert_eq!(thread_ids(&mut pool, &mut vec![0u8]), vec![caller]);
            assert!(pool.workers.is_empty(), "{threads} threads");
        }
    }

    #[test]
    fn par_map_mut_chunks_keep_their_worker_across_calls() {
        let mut pool = OwnerPool::with_threads(3);
        let mut items: Vec<u8> = vec![0; 6];
        let first = thread_ids(&mut pool, &mut items);
        for _ in 0..5 {
            assert_eq!(thread_ids(&mut pool, &mut items), first);
        }
        assert_eq!(pool.workers.len(), 2, "chunks 1 and 2, one worker each");
        assert_ne!(first[2], first[4], "each chunk has its own worker");
        // A call with fewer chunks uses a prefix of the same workers.
        assert_eq!(thread_ids(&mut pool, &mut vec![0u8; 2]), [first[0], first[2]]);
    }

    #[test]
    fn par_map_mut_preserves_order_for_every_chunking() {
        for threads in 1..=12 {
            let mut pool = OwnerPool::with_threads(threads);
            for _ in 0..2 {
                let mut items: Vec<usize> = (0..10).collect();
                let out = pool.par_map_mut(&mut items, |i, x| {
                    assert_eq!(i, *x);
                    *x * 3
                });
                assert_eq!(out, (0..10).map(|x| x * 3).collect::<Vec<_>>(), "{threads} threads");
                assert_eq!(items, (0..10).collect::<Vec<_>>(), "{threads} threads");
            }
        }
    }

    /// Runs a `par_map_mut` over `0..n` that adds 10 to every item except
    /// `panics_at`, which panics; returns the panic message and the items
    /// as the call left them. Every item is moved out of `items` while its
    /// chunk runs, so finding them all back, the others incremented, shows
    /// the caller waited for every chunk before the panic reached it.
    fn panic_after_join(
        pool: &mut OwnerPool<usize, ()>,
        n: usize,
        panics_at: usize,
    ) -> (String, Vec<usize>) {
        let mut items: Vec<usize> = (0..n).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_map_mut(&mut items, move |i, x| {
                assert!(i != panics_at, "boom at {i}");
                *x += 10;
            })
        }));
        let payload = result.expect_err("the panic must reach the caller");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        (msg, items)
    }

    #[test]
    fn par_map_mut_caller_chunk_panic_waits_for_spawned_chunks() {
        let (msg, items) = panic_after_join(&mut OwnerPool::with_threads(2), 2, 0);
        assert_eq!((msg.as_str(), items), ("boom at 0", vec![0, 11]));
    }

    #[test]
    fn par_map_mut_spawned_chunk_panic_waits_for_the_others() {
        let (msg, items) = panic_after_join(&mut OwnerPool::with_threads(3), 3, 1);
        assert_eq!((msg.as_str(), items), ("boom at 1", vec![10, 1, 12]));
    }

    #[test]
    fn par_map_mut_pool_survives_panics() {
        let mut pool = OwnerPool::with_threads(3);
        let clean_call = |pool: &mut OwnerPool<usize, ()>| {
            let mut items: Vec<usize> = (0..3).collect();
            assert_eq!(pool.par_map_mut(&mut items, |_, _| ()).len(), 3);
            assert_eq!(items, [0, 1, 2]);
        };
        clean_call(&mut pool);
        let before: Vec<_> = pool.workers.iter().map(|w| w.handle.thread().id()).collect();
        for panics_at in [0, 1, 2] {
            let (msg, items) = panic_after_join(&mut pool, 3, panics_at);
            assert_eq!(msg, format!("boom at {panics_at}"));
            assert_eq!(items.len(), 3, "every item is back after a panic in chunk {panics_at}");
            clean_call(&mut pool);
        }
        let after: Vec<_> = pool.workers.iter().map(|w| w.handle.thread().id()).collect();
        assert_eq!(before, after, "a panicking chunk keeps its worker");
    }

    #[test]
    fn par_map_mut_first_panic_in_chunk_order_wins() {
        let mut pool = OwnerPool::with_threads(3);
        let mut items: Vec<usize> = (0..3).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_map_mut(&mut items, |i, _| {
                assert!(i == 0, "boom at {i}");
            })
        }));
        let payload = result.expect_err("both panics are chunk panics");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("boom at 1"));
        assert_eq!(items, [0, 1, 2]);
    }

    #[test]
    fn dropping_the_pool_joins_its_workers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct ExitProbe;
        impl Drop for ExitProbe {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static PROBE: ExitProbe = const { ExitProbe };
        }
        let caller = std::thread::current().id();
        let mut pool = OwnerPool::with_threads(4);
        let mut items = vec![0u8; 4];
        pool.par_map_mut(&mut items, move |_, _| {
            if std::thread::current().id() != caller {
                PROBE.with(|_| {});
            }
        });
        assert_eq!(pool.workers.len(), 3);
        drop(pool);
        // Thread-local destructors run before a joined thread counts as
        // finished, so every worker's probe has dropped by now.
        assert_eq!(EXITED.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn par_map_mut_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut items = vec![1, 2, 3];
            OwnerPool::new().par_map_mut(&mut items, |_, x| {
                assert!(*x != 2, "boom");
                *x
            })
        });
        assert!(result.is_err(), "panic must cross the pool");
    }

    #[test]
    fn results_match_serial_map() {
        let items: Vec<f64> = (0..200).map(|i| i as f64 * 0.5).collect();
        let par = par_map(&items, |_, &x| x.sin() + x.sqrt());
        let ser: Vec<f64> = items.iter().map(|&x| x.sin() + x.sqrt()).collect();
        assert_eq!(par, ser, "bit-identical to the serial loop");
    }
}
