//! A persistent, scoped worker pool built on `std::thread` only, so the
//! tier-1 build keeps resolving `--offline`.
//!
//! The fleet engine steps contiguous robot ranges over this pool every
//! control tick, so the design goals are:
//!
//! * **persistent workers** — threads are spawned once in [`Pool::new`]
//!   and parked on a condvar between steps; a step dispatch is a queue
//!   push plus a wake-up, not a `thread::spawn`;
//! * **scoped borrows** — [`Pool::scoped`] lets jobs borrow from the
//!   caller's stack (the fleet hands each worker `&mut` slices of its
//!   robot cells), with the scope guaranteeing every job has
//!   finished before those borrows expire;
//! * **deterministic callers** — the pool itself imposes no ordering,
//!   but jobs write into caller-chosen disjoint slots, so collecting
//!   results in input order is trivial ([`Pool::map`] does exactly
//!   that);
//! * **panic transparency** — a panicking job never takes a worker
//!   down; the first payload is re-raised on the caller's thread when
//!   the scope closes.
//!
//! Concurrent scopes on one pool are allowed (each scope tracks its own
//! completion state), which is what lets a shared pool serve both the
//! fleet engine and the experiment harnesses.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Queue state shared between the pool handle and its workers.
struct Shared {
    state: Mutex<QueueState>,
    work_ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Per-scope completion bookkeeping, shared by every job of one
/// [`Pool::scoped`] call (an `Arc` so concurrent scopes on the same
/// pool cannot observe each other's counters).
struct ScopeState {
    pending: Mutex<usize>,
    all_done: Condvar,
    first_panic: Mutex<Option<PanicPayload>>,
}

/// Persistent worker pool. Dropping it shuts the workers down and joins
/// them; jobs still queued at that point are executed first.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.workers.len())
            .finish_non_exhaustive()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work_ready.wait(state).expect("pool queue poisoned");
            }
        };
        // Jobs are pre-wrapped in `catch_unwind` by `Scope::execute`,
        // so a panicking job cannot unwind through (and kill) a worker.
        job();
    }
}

impl Pool {
    /// Spawns `threads` persistent workers (clamped to at least one).
    pub fn new(threads: usize) -> Pool {
        Pool::with_thread_setup(threads, |_| {})
    }

    /// Like [`Pool::new`], but runs `setup(worker_index)` on each worker
    /// thread before it starts taking jobs — the fleet engine uses this
    /// to register the worker with the telemetry layer so spans recorded
    /// off the main thread carry their worker's identity.
    pub fn with_thread_setup<S>(threads: usize, setup: S) -> Pool
    where
        S: Fn(usize) + Send + Sync + 'static,
    {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let setup = Arc::new(setup);
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let setup = Arc::clone(&setup);
                std::thread::Builder::new()
                    .name(format!("roboads-pool-{i}"))
                    .spawn(move || {
                        setup(i);
                        worker_loop(&shared);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f` with a [`Scope`] whose jobs may borrow from the current
    /// stack frame. Returns only after every job submitted through the
    /// scope has finished — on *every* path, including a panic inside
    /// `f` itself (that wait is what makes the borrow erasure in
    /// [`Scope::execute`] sound).
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f`, or else the first panic captured
    /// from a job of this scope.
    pub fn scoped<'pool, 'scope, F, R>(&'pool self, f: F) -> R
    where
        F: FnOnce(&Scope<'pool, 'scope>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                all_done: Condvar::new(),
                first_panic: Mutex::new(None),
            }),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.wait_all();
        let job_panic = scope
            .state
            .first_panic
            .lock()
            .expect("scope panic slot poisoned")
            .take();
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = job_panic {
                    resume_unwind(payload);
                }
                value
            }
        }
    }

    /// Maps `items` through `f` on the pool, preserving input order in
    /// the output (each job writes its own pre-allocated slot).
    ///
    /// # Panics
    ///
    /// Propagates the first worker panic.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        self.scoped(|scope| {
            for (slot, item) in slots.iter_mut().zip(items) {
                let f = &f;
                scope.execute(move || {
                    *slot = Some(f(item));
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("pool job completed without writing its slot"))
            .collect()
    }

    /// The chunk size that covers `items` with at most one job per
    /// worker while keeping every chunk at least `min_chunk` items long
    /// (clamped to 1). Batch engines use the floor to stop dispatch
    /// overhead from dominating when there are more workers than work:
    /// with 4 workers, 6 items and a floor of 4, the result is one
    /// 4-item chunk plus one 2-item remainder — not four slivers.
    pub fn chunk_size(&self, items: usize, min_chunk: usize) -> usize {
        items.div_ceil(self.threads().max(1)).max(min_chunk).max(1)
    }

    /// [`Pool::chunk_size`] rounded up to the next multiple of `align`
    /// (clamped to 1). Lane-batched engines align chunk boundaries to
    /// their SIMD tile width so no K-lane tile ever straddles two jobs:
    /// every chunk but the last holds a whole number of tiles, and only
    /// the final chunk carries the fleet-level remainder tail.
    pub fn chunk_size_aligned(&self, items: usize, min_chunk: usize, align: usize) -> usize {
        self.chunk_size(items, min_chunk)
            .next_multiple_of(align.max(1))
    }

    /// Runs `f(index, item)` for every item, fanned out as one job per
    /// contiguous chunk of [`Pool::chunk_size`] items. Items are mutated
    /// in place and `f` sees them in ascending index order within each
    /// chunk, so a caller that keeps per-item state in `items` gets
    /// results identical to a sequential `for` loop (chunks only change
    /// *which thread* runs an index, never its input or output slot).
    ///
    /// # Panics
    ///
    /// Propagates the first job panic after all chunks finish.
    pub fn chunked_for_each<T, F>(&self, items: &mut [T], min_chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        if items.is_empty() {
            return;
        }
        let chunk = self.chunk_size(items.len(), min_chunk);
        self.scoped(|scope| {
            for (chunk_idx, chunk_items) in items.chunks_mut(chunk).enumerate() {
                let f = &f;
                let base = chunk_idx * chunk;
                scope.execute(move || {
                    for (j, item) in chunk_items.iter_mut().enumerate() {
                        f(base + j, item);
                    }
                });
            }
        });
    }

    /// Maps `items` through `f` with chunked dispatch (one job per
    /// [`Pool::chunk_size`] run of items), preserving input order in the
    /// output. Prefer this over [`Pool::map`] when per-item work is
    /// small enough that a job per item would be dominated by queue
    /// traffic.
    ///
    /// # Panics
    ///
    /// Propagates the first job panic.
    pub fn chunked_map<T, R, F>(&self, items: Vec<T>, min_chunk: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        if !slots.is_empty() {
            let chunk = self.chunk_size(slots.len(), min_chunk);
            let mut item_chunks: Vec<Vec<T>> = Vec::with_capacity(slots.len().div_ceil(chunk));
            let mut items = items.into_iter();
            loop {
                let c: Vec<T> = items.by_ref().take(chunk).collect();
                if c.is_empty() {
                    break;
                }
                item_chunks.push(c);
            }
            self.scoped(|scope| {
                for (chunk_idx, (slot_chunk, item_chunk)) in
                    slots.chunks_mut(chunk).zip(item_chunks).enumerate()
                {
                    let f = &f;
                    let base = chunk_idx * chunk;
                    scope.execute(move || {
                        for (j, (slot, item)) in slot_chunk.iter_mut().zip(item_chunk).enumerate() {
                            *slot = Some(f(base + j, item));
                        }
                    });
                }
            });
        }
        slots
            .into_iter()
            .map(|s| s.expect("pool job completed without writing its slot"))
            .collect()
    }

    fn enqueue(&self, job: Job) {
        let mut state = self.shared.state.lock().expect("pool queue poisoned");
        state.jobs.push_back(job);
        drop(state);
        self.shared.work_ready.notify_one();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool queue poisoned");
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            // A worker only panics if pool-internal code is broken
            // (jobs are unwind-caught); surface that loudly.
            worker.join().expect("pool worker panicked");
        }
    }
}

/// Handle for submitting borrow-carrying jobs inside [`Pool::scoped`].
///
/// `'scope` is invariant (via the `PhantomData` marker) so the borrow
/// checker cannot shrink it below the lifetimes captured by submitted
/// jobs.
pub struct Scope<'pool, 'scope> {
    pool: &'pool Pool,
    state: Arc<ScopeState>,
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl std::fmt::Debug for Scope<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope").finish_non_exhaustive()
    }
}

impl<'pool, 'scope> Scope<'pool, 'scope> {
    /// Submits a job that may borrow anything outliving `'scope`. The
    /// job runs on some worker; panics are captured and re-raised when
    /// the scope closes.
    pub fn execute<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        {
            let mut pending = self.state.pending.lock().expect("scope counter poisoned");
            *pending += 1;
        }
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(job);
        // SAFETY: the only thing erased here is the `'scope` lifetime
        // bound of the boxed closure; the fat-pointer representation is
        // identical. `Pool::scoped` blocks in `wait_all` until this
        // scope's pending count returns to zero on every exit path
        // (normal return and unwinding), so the job — and the borrows
        // it captured — never outlive the stack frame they borrow from.
        let job: Job = unsafe { mem::transmute(job) };
        let wrapped: Job = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(job));
            if let Err(payload) = outcome {
                let mut slot = state.first_panic.lock().expect("scope panic slot poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut pending = state.pending.lock().expect("scope counter poisoned");
            *pending -= 1;
            if *pending == 0 {
                state.all_done.notify_all();
            }
        });
        self.pool.enqueue(wrapped);
    }

    fn wait_all(&self) {
        let mut pending = self.state.pending.lock().expect("scope counter poisoned");
        while *pending > 0 {
            pending = self
                .state
                .all_done
                .wait(pending)
                .expect("scope counter poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_input_order() {
        let pool = Pool::new(8);
        let out = pool.map((0..200).collect(), |i: usize| i * 3);
        assert_eq!(out, (0..200).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_single_thread_and_empty() {
        let pool = Pool::new(1);
        assert_eq!(pool.map(vec![1, 2, 3], |i: i32| i + 1), vec![2, 3, 4]);
        assert!(pool.map(Vec::<i32>::new(), |i| i).is_empty());
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(vec![5], |i: i32| i), vec![5]);
    }

    #[test]
    fn scoped_jobs_borrow_stack_data_mutably() {
        let pool = Pool::new(4);
        let mut slots = [0u64; 16];
        pool.scoped(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                scope.execute(move || *slot = i as u64 + 1);
            }
        });
        assert_eq!(slots[0], 1);
        assert_eq!(slots[15], 16);
    }

    #[test]
    fn pool_is_reusable_across_scopes() {
        let pool = Pool::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.scoped(|scope| {
                for _ in 0..4 {
                    scope.execute(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(|scope| {
                scope.execute(|| panic!("job exploded"));
            });
        }));
        let payload = result.expect_err("scope must re-raise the job panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "job exploded");
        // The pool must keep working after a job panic.
        assert_eq!(pool.map(vec![1, 2], |i: i32| i * 2), vec![2, 4]);
    }

    #[test]
    fn map_propagates_panic_message() {
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0, 1, 2], |i: i32| {
                assert!(i != 1, "scenario run failed");
                i
            })
        }));
        assert!(result.is_err());
        assert_eq!(pool.map(vec![7], |i: i32| i), vec![7]);
    }

    #[test]
    fn thread_setup_hook_runs_once_per_worker() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let pool = Pool::with_thread_setup(3, move |i| {
            seen2.lock().unwrap().push(i);
        });
        // Force a round-trip so all workers have certainly started.
        pool.map(vec![0; 8], |i: i32| i);
        drop(pool);
        let mut ids = seen.lock().unwrap().clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn chunk_size_covers_items_with_min_floor() {
        let pool = Pool::new(4);
        assert_eq!(pool.chunk_size(64, 1), 16); // one job per worker
        assert_eq!(pool.chunk_size(6, 4), 4); // floor kicks in
        assert_eq!(pool.chunk_size(3, 1), 1);
        assert_eq!(pool.chunk_size(0, 0), 1); // clamped
        let single = Pool::new(1);
        assert_eq!(single.chunk_size(64, 1), 64);
    }

    #[test]
    fn chunk_size_aligned_rounds_to_tile_width() {
        let pool = Pool::new(4);
        // 67 items over 4 workers → 17-item raw chunks; aligned to 8-lane
        // tiles → 24. Three full chunks hold three tiles each and the
        // remainder chunk carries the fleet tail.
        assert_eq!(pool.chunk_size_aligned(67, 4, 8), 24);
        let chunk = pool.chunk_size_aligned(67, 4, 8);
        let mut sizes = Vec::new();
        let mut rest = 67;
        while rest > 0 {
            let take = rest.min(chunk);
            sizes.push(take);
            rest -= take;
        }
        // Every chunk except the last is a whole number of tiles.
        for &s in &sizes[..sizes.len() - 1] {
            assert_eq!(s % 8, 0, "chunk of {s} straddles a tile");
        }
        assert_eq!(sizes.iter().sum::<usize>(), 67);
        // Alignment of 1 (or 0, clamped) degenerates to chunk_size.
        assert_eq!(pool.chunk_size_aligned(64, 1, 1), pool.chunk_size(64, 1));
        assert_eq!(pool.chunk_size_aligned(64, 1, 0), pool.chunk_size(64, 1));
        let single = Pool::new(1);
        assert_eq!(single.chunk_size_aligned(13, 4, 8), 16);
    }

    /// Degenerate shapes: a tile wider than the whole work list, or a
    /// work list smaller than the minimum chunk, must still yield one
    /// well-formed covering chunk — never a zero-size chunk (which
    /// would spin `chunked_for_each`'s job splitter forever).
    #[test]
    fn chunk_size_aligned_degenerate_shapes_yield_one_covering_chunk() {
        let pool = Pool::new(4);
        // Alignment wider than the item count: one chunk, whole list.
        let chunk = pool.chunk_size_aligned(3, 1, 8);
        assert!(chunk >= 3, "chunk of {chunk} cannot cover 3 items");
        assert_eq!(chunk % 8, 0);
        // Fewer items than min_chunk: the min_chunk floor wins, again
        // one covering chunk.
        let chunk = pool.chunk_size_aligned(2, 16, 4);
        assert!(chunk >= 16);
        assert_eq!(chunk % 4, 0);
        // Zero items is never a zero chunk.
        for (items, min_chunk, align) in [(0usize, 0usize, 0usize), (0, 1, 8), (1, 0, 0), (5, 0, 3)]
        {
            let chunk = pool.chunk_size_aligned(items, min_chunk, align);
            assert!(
                chunk >= 1,
                "zero-size chunk for {items}/{min_chunk}/{align}"
            );
            assert!(chunk >= items || chunk.is_multiple_of(align.max(1)));
        }
        // And the unaligned helper obeys the same floor.
        assert_eq!(pool.chunk_size(0, 0), 1);
        assert_eq!(pool.chunk_size(3, 0), 1);
    }

    #[test]
    fn chunked_for_each_matches_sequential_loop() {
        let pool = Pool::new(3);
        for n in [0usize, 1, 2, 7, 8, 64] {
            for min_chunk in [1usize, 4, 100] {
                let mut items: Vec<u64> = (0..n as u64).collect();
                pool.chunked_for_each(&mut items, min_chunk, |i, item| {
                    *item = *item * 10 + i as u64;
                });
                let expected: Vec<u64> = (0..n as u64).map(|i| i * 10 + i).collect();
                assert_eq!(items, expected, "n={n} min_chunk={min_chunk}");
            }
        }
    }

    #[test]
    fn chunked_map_preserves_order_and_indices() {
        let pool = Pool::new(4);
        let out = pool.chunked_map((0..100u64).collect(), 8, |i, item| item * 2 + i as u64);
        assert_eq!(out, (0..100u64).map(|i| i * 3).collect::<Vec<_>>());
        assert!(pool.chunked_map(Vec::<u64>::new(), 1, |_, i| i).is_empty());
    }

    #[test]
    fn chunked_for_each_propagates_panics() {
        let pool = Pool::new(2);
        let mut items = vec![0u32; 8];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.chunked_for_each(&mut items, 1, |i, _| {
                assert!(i != 5, "chunk job failed");
            });
        }));
        assert!(result.is_err());
        // The pool survives.
        assert_eq!(pool.map(vec![1, 2], |i: i32| i * 2), vec![2, 4]);
    }

    #[test]
    fn concurrent_scopes_do_not_interfere() {
        let pool = Arc::new(Pool::new(4));
        let outer = Arc::clone(&pool);
        let handle = std::thread::spawn(move || outer.map((0..64).collect(), |i: usize| i + 1));
        let mine = pool.map((0..64).collect(), |i: usize| i + 2);
        let theirs = handle.join().unwrap();
        assert_eq!(mine, (0..64).map(|i| i + 2).collect::<Vec<_>>());
        assert_eq!(theirs, (0..64).map(|i| i + 1).collect::<Vec<_>>());
    }
}
