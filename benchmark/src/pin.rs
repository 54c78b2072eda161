//! Where the benchmark's threads run.
//!
//! Left to the scheduler on the 2-core virtual host, the threads of a
//! served request (client → event loop → worker → event loop → client)
//! sit on one core for a while and on two for a while, and a cross-CPU
//! wake-up in a VM costs more than the request's own work:
//! `serve_pages` rounds of identical work flipped between 76 ms and
//! 175 ms within one run. So placement is fixed: the process lives on
//! its **home** CPU (the highest it is allowed), which is where every
//! single-threaded workload and every server thread runs, and the
//! client threads of `serve_pages` move to the **away** CPU (the
//! lowest), so that every request crosses CPUs, every time.

use std::sync::OnceLock;

#[derive(Debug, Clone, Copy)]
pub struct Placement {
    pub home: usize,
    /// Equal to `home` where only one CPU is allowed.
    pub away: usize,
}

static PLACEMENT: OnceLock<Option<Placement>> = OnceLock::new();

/// Restrict the calling thread — and every thread it spawns from now on
/// — to the home CPU. `None` where the platform or the sandbox does not
/// let us; then nothing is pinned.
pub fn confine_to_home() -> Option<Placement> {
    *PLACEMENT.get_or_init(|| {
        let allowed = sys::allowed_cpus()?;
        let place = Placement {
            home: *allowed.last()?,
            away: *allowed.first()?,
        };
        sys::pin_thread(place.home).then_some(place)
    })
}

/// Move the calling thread to the away CPU (a no-op when
/// [`confine_to_home`] pinned nothing).
pub fn move_to_away() {
    if let Some(Some(place)) = PLACEMENT.get() {
        sys::pin_thread(place.away);
    }
}

#[cfg(target_os = "linux")]
mod sys {
    // glibc's `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on, ascending.
    pub fn allowed_cpus() -> Option<Vec<usize>> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the
        // `size_of_val` bytes passed as its size; pid 0 is the caller.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return None;
        }
        Some(
            (0..WORDS * 64)
                .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect(),
        )
    }

    /// Restrict the calling thread to `cpu`.
    pub fn pin_thread(cpu: usize) -> bool {
        let mut only = [0u64; WORDS];
        only[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `only` is a live buffer of the `size_of_val` bytes
        // passed as its size, read only for the duration of the call.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed_cpus() -> Option<Vec<usize>> {
        None
    }

    pub fn pin_thread(_cpu: usize) -> bool {
        false
    }
}
