//! The benchmark's own process-level instruments: a counting global
//! allocator, CPU clocks, and timer slack.
//!
//! The repository is hermetic (no `libc` crate), so the C calls
//! needed here (`clock_gettime`, `prctl` and `ppoll`) are declared directly
//! against the C library every Rust `std` binary already links, the
//! same way the serving crate declares its epoll shims.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Wraps the system allocator and counts every allocation per thread
/// (exact for single-threaded probes, however busy other threads are),
/// and live and peak heap bytes for the whole process.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc(size: usize) {
    // `try_with`: a thread being torn down has no TLS left to count in.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the bookkeeping only touches atomics and a const-initialised
// thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            count_alloc(new_size);
        }
        p
    }
}

/// Allocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Bytes currently allocated.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Starts a new peak-heap window at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The highest live size since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const PR_SET_TIMERSLACK: c_int = 29;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Sleeps until `fd` is readable or `timeout` has passed, whichever is
/// first, with nanosecond timeout resolution (`poll` only has
/// milliseconds). Interruptions and errors simply end the wait early.
pub fn wait_readable(fd: RawFd, timeout: Duration) -> bool {
    let mut p = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: one valid `pollfd`, a valid timespec, and a null signal
    // mask (keep the current one), as ppoll(2) allows.
    let n = unsafe { ppoll(&mut p, 1, &ts, std::ptr::null()) };
    n > 0 && p.revents & POLLIN != 0
}

fn cpu_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Lets the calling thread's sleeps end within a nanosecond of their
/// deadline instead of Linux's default 50 µs slack, so an open-loop
/// sender can keep a microsecond-scale schedule without spinning.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // only the calling thread's scheduling state.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_allocs_count_this_threads_allocations() {
        let before = thread_allocs();
        let v: Vec<Box<u64>> = (0..10).map(Box::new).collect();
        assert_eq!(thread_allocs() - before, 11, "ten boxes plus the vector");
        drop(v);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t0 && process_cpu_ns() > p0, "{x}");
    }
}
