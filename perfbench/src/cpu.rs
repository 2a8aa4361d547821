//! CPU-time clocks of the calling thread and of the whole process.
//!
//! The kernel excludes hypervisor steal from these clocks (paravirtual
//! steal accounting), so on a host whose steal comes and goes they show
//! what the program costs, where wall time also shows the neighbours.

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

fn read(clock: i32) -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec`, whose layout
    // `Timespec` reproduces, through a pointer to a live local; the clock
    // ids are the fixed Linux ones for CPU-time clocks.
    let status = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(status, 0, "the CPU-time clocks exist on Linux");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calling thread has run.
pub fn thread() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds every thread of the process has run.
pub fn process() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}
