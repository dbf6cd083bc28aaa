//! Pinning the calling thread to one CPU for a repetition's serial work.
//!
//! On a host whose CPUs run at different speeds (shared or virtual cores),
//! a single-threaded phase runs on whichever CPU the OS picked at start and
//! usually stays there, so whole runs land fast or slow. Repetition `i`
//! therefore pins its serial phase to the `i`-th allowed CPU in turn, so
//! the fastest repetitions the benchmark keeps can come from any CPU.
//! Threads the library spawns inherit the calling thread's mask, so callers
//! keep the pin away from any phase that starts a worker pool.

/// The CPUs this process may run on, as `sched_getaffinity` reports them
/// (empty where that is unavailable).
fn allowed_cpus() -> Vec<usize> {
    sys::get().map_or_else(Vec::new, |mask| {
        (0..sys::MAX_CPUS)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    })
}

/// Restores the thread's original CPU mask when dropped.
pub struct Pin(Option<sys::Mask>);

/// Pins the calling thread to the `index`-th allowed CPU (modulo their
/// count) until the returned guard drops. Does nothing where affinity is
/// unavailable.
pub fn pin(index: usize) -> Pin {
    let Some(original) = sys::get() else {
        return Pin(None);
    };
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return Pin(None);
    }
    let cpu = cpus[index % cpus.len()];
    let mut mask = [0u64; sys::WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    sys::set(&mask);
    Pin(Some(original))
}

impl Drop for Pin {
    fn drop(&mut self) {
        if let Some(original) = &self.0 {
            sys::set(original);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// glibc's `cpu_set_t`: 1024 bits.
    pub const WORDS: usize = 16;
    pub const MAX_CPUS: usize = WORDS * 64;
    pub type Mask = [u64; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU mask.
    pub fn get() -> Option<Mask> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Sets the calling thread's CPU mask; a failure leaves it unchanged,
    /// which only costs the balancing.
    pub fn set(mask: &Mask) {
        // SAFETY: `mask` is a live, initialised buffer of exactly the size
        // passed, which the call only reads; pid 0 names the calling thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub const WORDS: usize = 16;
    pub const MAX_CPUS: usize = WORDS * 64;
    pub type Mask = [u64; WORDS];

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) {}
}
