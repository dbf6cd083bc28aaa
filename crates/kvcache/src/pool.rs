//! The [`WorkerPool`](crate::WorkerPool)'s helper threads: they live as
//! long as the pool and run each fan-out's job beside the calling thread,
//! so a serving tick pays no thread spawn.
//!
//! A fan-out *posts* a borrowed job, runs it on the calling thread too,
//! then *withdraws* it and blocks until every helper that took it has
//! returned. A helper that was still waking when the job was withdrawn
//! never runs it, so the caller never waits for a slow wake-up. Between
//! fan-outs a helper polls for the next post [`SPIN_LIMIT`] times and then
//! parks on a [`Condvar`]; the caller waiting for its helpers does the
//! same. Polling catches the next tick of a busy serving loop without a
//! futex round trip, and the bound keeps an idle pool off a CPU that a
//! shared host needs.
//!
//! This module holds the crate's one `unsafe` block. The job borrows the
//! caller's stack, and a thread that outlives the call can hold it only
//! with its lifetime erased. [`Helpers::run`] is sound for every job
//! because it neither returns nor unwinds before the job is withdrawn and
//! every helper that took it has returned.
#![expect(
    unsafe_code,
    reason = "a borrowed job reaches the long-lived helpers with its lifetime erased; see the SAFETY comment in `Helpers::run`"
)]

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// How many times a waiting thread polls before it parks: about 0.1 ms on
/// a 2-vCPU Xeon, longer than the gap between two decode-only serving
/// ticks and shorter than a tick that prefills. Counted in iterations
/// because this crate reads no clock.
const SPIN_LIMIT: usize = 1 << 12;

/// A posted job, its lifetime erased (see [`Helpers::run`]).
type Job = &'static (dyn Fn() + Sync);

/// What the helpers and the posting caller share.
struct Shared {
    /// Counts posts and the close. Written only under `state`, which also
    /// guards the job, so helpers may poll it `Relaxed`.
    posts: AtomicUsize,
    /// Helpers that took the posted job and have not returned. Decremented
    /// with `Release` by a helper after its run; the caller's `Acquire`
    /// load of 0 makes every helper's writes through the job visible.
    running: AtomicUsize,
    state: Mutex<State>,
    /// Helpers park here between jobs.
    posted: Condvar,
    /// The caller parks here until `running` reads 0.
    returned: Condvar,
}

/// The fan-out's handoff state. `parked` and `caller_parked` let a post or
/// a return skip the condvar notify, a syscall, when nobody sleeps.
#[derive(Default)]
struct State {
    /// The posted job, `None` once withdrawn.
    job: Option<Job>,
    /// How many more helpers may take `job`.
    seats: usize,
    /// Helpers parked on `posted`.
    parked: usize,
    /// Whether the caller is parked on `returned`.
    caller_parked: bool,
    /// The first panic a helper caught while running the posted job.
    panic: Option<Box<dyn Any + Send>>,
    /// Set when the pool drops; every helper then returns.
    closed: bool,
}

/// Locks `mutex`, recovering from poisoning. No panic can leave either
/// mutex's data half-updated: `State`'s critical sections only assign
/// fields, and a job that panics while the dispatch lock is held leaves
/// the list of helpers as it was.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Polls `ready` up to [`SPIN_LIMIT`] times.
fn spin_until(ready: impl Fn() -> bool) {
    for _ in 0..SPIN_LIMIT {
        if ready() {
            return;
        }
        std::hint::spin_loop();
    }
}

/// The helper threads of one pool, started on first use.
pub(crate) struct Helpers {
    shared: Arc<Shared>,
    /// The started helpers. Its lock is also the dispatch lock: a pool
    /// runs one fan-out at a time, however many threads call it.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Helpers {
    /// A pool of helpers with none started yet.
    pub(crate) fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                posts: AtomicUsize::new(0),
                running: AtomicUsize::new(0),
                state: Mutex::new(State::default()),
                posted: Condvar::new(),
                returned: Condvar::new(),
            }),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Runs `job` on the calling thread and on up to `seats` helpers at
    /// once, and returns when every run of it has returned. Helpers start
    /// here, on first use, until `seats` of them exist; if the OS refuses
    /// one, the job runs on those already started, or on the caller alone.
    /// A panic in any run re-raises here once every run has returned.
    pub(crate) fn run(&self, seats: usize, job: &(dyn Fn() + Sync)) {
        if seats == 0 {
            job();
            return;
        }
        let mut threads = lock(&self.threads);
        while threads.len() < seats {
            let shared = Arc::clone(&self.shared);
            match thread::Builder::new().spawn(move || help(&shared)) {
                Ok(handle) => threads.push(handle),
                Err(_) => break,
            }
        }
        let seats = seats.min(threads.len());
        if seats == 0 {
            job();
            return;
        }
        // SAFETY: `job` outlives this call, and no helper touches the
        // erased copy after this call ends. Helpers copy it out of `State`
        // only while it is posted, and they count themselves in `running`
        // under the same lock. `Returned` is built before the post, so it
        // drops when this call returns or unwinds, the caller's own run of
        // `job` included. Its drop withdraws the job under that lock and
        // then blocks until `running` reads 0. After that, `State` holds
        // no copy and every helper that took one has returned from it.
        let erased = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
        let returned = Returned(&self.shared);
        self.shared.post(erased, seats);
        job();
        drop(returned);
        if let Some(payload) = lock(&self.shared.state).panic.take() {
            panic::resume_unwind(payload);
        }
    }

    /// How many helpers have started.
    #[cfg(test)]
    pub(crate) fn started(&self) -> usize {
        lock(&self.threads).len()
    }

    /// A handle on the state each helper holds until it returns: it no
    /// longer upgrades once the pool has dropped and every helper is gone.
    #[cfg(test)]
    pub(crate) fn liveness(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.shared)
    }
}

impl Shared {
    /// Posts `job` for up to `seats` helpers.
    fn post(&self, job: Job, seats: usize) {
        let mut state = lock(&self.state);
        state.job = Some(job);
        state.seats = seats;
        // Left by a fan-out whose caller unwound before taking it.
        state.panic = None;
        self.posts.fetch_add(1, Ordering::Relaxed);
        for _ in 0..seats.min(state.parked) {
            self.posted.notify_one();
        }
    }
}

/// Withdraws the posted job when dropped and waits for every helper that
/// took it.
struct Returned<'a>(&'a Shared);

impl Drop for Returned<'_> {
    fn drop(&mut self) {
        let shared = self.0;
        {
            let mut state = lock(&shared.state);
            state.job = None;
            state.seats = 0;
        }
        spin_until(|| shared.running.load(Ordering::Acquire) == 0);
        let mut state = lock(&shared.state);
        while shared.running.load(Ordering::Acquire) != 0 {
            state.caller_parked = true;
            state = shared
                .returned
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.caller_parked = false;
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.closed = true;
            self.shared.posts.fetch_add(1, Ordering::Relaxed);
            self.shared.posted.notify_all();
        }
        let threads = self.threads.get_mut();
        for handle in threads.unwrap_or_else(PoisonError::into_inner).drain(..) {
            // A helper catches every panic of its jobs, so it cannot fail.
            let _ = handle.join();
        }
    }
}

/// A helper's life: wait for a post, run the job if a seat is left, and
/// return when the pool closes.
fn help(shared: &Shared) {
    let mut seen = 0;
    loop {
        spin_until(|| shared.posts.load(Ordering::Relaxed) != seen);
        let mut state = lock(&shared.state);
        while shared.posts.load(Ordering::Relaxed) == seen {
            state.parked += 1;
            state = shared
                .posted
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
        }
        if state.closed {
            return;
        }
        seen = shared.posts.load(Ordering::Relaxed);
        let Some(job) = state.job.filter(|_| state.seats > 0) else {
            continue;
        };
        state.seats -= 1;
        shared.running.fetch_add(1, Ordering::Relaxed);
        drop(state);
        // The job moves into the call, so no copy of it outlives the run.
        let outcome = panic::catch_unwind(AssertUnwindSafe(job));
        let mut state = lock(&shared.state);
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        if shared.running.fetch_sub(1, Ordering::Release) == 1 && state.caller_parked {
            shared.returned.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// A job that counts its runs and records which threads ran it.
    fn counted<'a>(
        runs: &'a AtomicUsize,
        threads: &'a Mutex<Vec<thread::ThreadId>>,
    ) -> impl Fn() + Sync + 'a {
        move || {
            runs.fetch_add(1, Ordering::Relaxed);
            lock(threads).push(thread::current().id());
        }
    }

    #[test]
    fn no_seat_runs_on_the_caller_and_starts_nothing() {
        let helpers = Helpers::new();
        let (runs, threads) = (AtomicUsize::new(0), Mutex::new(Vec::new()));
        helpers.run(0, &counted(&runs, &threads));
        assert_eq!(runs.into_inner(), 1);
        assert_eq!(lock(&threads)[..], [thread::current().id()]);
        assert_eq!(helpers.started(), 0);
    }

    #[test]
    fn helpers_start_lazily_up_to_the_seats_asked_for() {
        let helpers = Helpers::new();
        for (seats, started) in [(1, 1), (3, 3), (2, 3), (1, 3)] {
            let (runs, threads) = (AtomicUsize::new(0), Mutex::new(Vec::new()));
            helpers.run(seats, &counted(&runs, &threads));
            assert_eq!(
                helpers.started(),
                started,
                "after a call with {seats} seats"
            );
            // The caller always runs the job; each seat at most once more.
            let runs = runs.into_inner();
            assert!(
                (1..=seats + 1).contains(&runs),
                "{runs} runs for {seats} seats"
            );
            assert!(lock(&threads).contains(&thread::current().id()));
        }
    }

    #[test]
    fn every_helper_that_takes_the_job_returns_before_the_call() {
        // The caller waits at the barrier, so the job returns only once the
        // helper has taken it too: both runs must be over when `run` returns.
        let helpers = Helpers::new();
        for _ in 0..3 {
            let barrier = Barrier::new(2);
            let runs = AtomicUsize::new(0);
            helpers.run(1, &|| {
                barrier.wait();
                runs.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(runs.into_inner(), 2);
        }
    }

    #[test]
    fn a_panicking_job_reraises_on_the_caller_and_the_pool_stays_usable() {
        let helpers = Helpers::new();
        for panics_on_caller in [false, true] {
            let caller = thread::current().id();
            let barrier = Barrier::new(2);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                helpers.run(1, &|| {
                    barrier.wait();
                    if (thread::current().id() == caller) == panics_on_caller {
                        panic!("job panics");
                    }
                });
            }));
            let payload = outcome.expect_err("the panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"job panics"));

            let runs = AtomicUsize::new(0);
            let barrier = Barrier::new(2);
            helpers.run(1, &|| {
                barrier.wait();
                runs.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(runs.into_inner(), 2, "the helper survives the panic");
        }
    }

    #[test]
    fn concurrent_callers_take_turns_and_drop_joins_the_helpers() {
        let helpers = Helpers::new();
        let start = Barrier::new(2);
        let total = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..4 {
                        let runs = AtomicUsize::new(0);
                        helpers.run(2, &|| {
                            runs.fetch_add(1, Ordering::Relaxed);
                        });
                        let runs = runs.into_inner();
                        assert!((1..=3).contains(&runs));
                        total.fetch_add(runs, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(total.into_inner() >= 8);
        assert_eq!(helpers.started(), 2);
        let liveness = helpers.liveness();
        drop(helpers);
        assert!(
            liveness.upgrade().is_none(),
            "every helper returned and released the pool"
        );
    }
}
