//! The service thread's on-CPU clock, and the span clock of the traced
//! run.
//!
//! The timed service run is one busy thread, so its on-CPU time is the
//! time the program spent working. Unlike wall time, it leaves out the
//! stretches when the thread was not running: preemption by other
//! processes and, on a VM whose kernel accounts steal time, the
//! hypervisor running someone else's vCPU.
//!
//! `CLOCK_THREAD_CPUTIME_ID` is read rather than the first field of
//! `/proc/thread-self/schedstat`: the kernel updates the latter only at
//! scheduler events, so for a running thread it lags by up to one
//! scheduler tick (4 ms at `HZ=250`), as long as a whole benchmark tick.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the on-CPU clock reads the 64-bit Linux `timespec`");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// From `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Nanoseconds the calling thread has spent on a CPU.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of
    // the call, and the C library's `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// On-CPU time of the calling thread since `start_ns`, milliseconds.
pub fn cpu_ms_since(start_ns: u64) -> f64 {
    (thread_cpu_ns() - start_ns) as f64 / 1e6
}

/// A cheap monotonic stamp for spans: the time-stamp counter on x86_64,
/// nanoseconds since a process-wide epoch elsewhere. Traced flood ticks
/// are mostly calls of 100-300 ns, so the clock read has to cost a few
/// nanoseconds rather than the ~25 of `Instant::now`; [`StampScale`]
/// converts differences to nanoseconds.
#[cfg(target_arch = "x86_64")]
pub fn stamp() -> u64 {
    // SAFETY: every x86_64 CPU has RDTSC; it reads a counter and
    // touches no memory.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
pub fn stamp() -> u64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Converts [`stamp`] differences to nanoseconds by comparing the stamps
/// and the wall clock elapsed since [`StampScale::start`].
#[derive(Debug, Clone, Copy)]
pub struct StampScale {
    wall: std::time::Instant,
    stamp: u64,
}

impl StampScale {
    pub fn start() -> Self {
        StampScale {
            wall: std::time::Instant::now(),
            stamp: stamp(),
        }
    }

    /// Nanoseconds per stamp, averaged over everything since `start`.
    pub fn ns_per_stamp(&self) -> f64 {
        let ns = self.wall.elapsed().as_nanos() as f64;
        ns / stamp().saturating_sub(self.stamp).max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn counts_work_but_not_sleep() {
        let start = thread_cpu_ns();
        std::thread::sleep(Duration::from_millis(50));
        let slept_ms = cpu_ms_since(start);
        assert!(slept_ms < 10.0, "sleeping used {slept_ms} ms of CPU");

        let start = thread_cpu_ns();
        let wall = Instant::now();
        let mut x = 1u64;
        while wall.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let busy_ms = cpu_ms_since(start);
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        assert!(
            busy_ms > 5.0 && busy_ms <= wall_ms + 1.0,
            "busy {busy_ms} ms over {wall_ms} ms"
        );
    }

    #[test]
    fn stamps_convert_to_wall_nanoseconds() {
        let scale = StampScale::start();
        let (wall, first) = (Instant::now(), stamp());
        std::thread::sleep(Duration::from_millis(30));
        let stamps = stamp() - first;
        let wall_ns = wall.elapsed().as_nanos() as f64;
        let ns = stamps as f64 * scale.ns_per_stamp();
        assert!(
            (ns / wall_ns - 1.0).abs() < 0.05,
            "{ns} ns against {wall_ns} ns of wall time"
        );
    }
}
