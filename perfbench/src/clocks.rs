//! Host clocks of a run besides wall time, both summed over every thread of
//! the process: CPU seconds, and user-space instructions retired.
//!
//! On a shared virtual machine, wall and CPU seconds of the same run drift
//! by 20% and more within minutes, as neighbours contend for the physical
//! cores' caches and memory. The instruction count of the same run repeats
//! to about 0.01%, so it is the host-work metric the gate compares;
//! the seconds are reported next to it.

use std::os::raw::{c_int, c_long, c_void};

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn syscall(num: c_long, ...) -> c_long;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// CPU seconds this process has used so far: user plus system time of
/// every thread, live or ended (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) cannot fail");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(target_arch = "x86_64")]
const SYS_PERF_EVENT_OPEN: c_long = 298;
#[cfg(target_arch = "aarch64")]
const SYS_PERF_EVENT_OPEN: c_long = 241;

/// A `perf_event_open` counter of the user-space instructions retired by
/// this process, on every thread it starts after the counter opens
/// (`inherit`). A read sums threads that ended and threads still running.
pub struct InstructionCounter {
    fd: c_int,
}

impl InstructionCounter {
    /// Opens the counter. Open it before the threads it should count start.
    pub fn open() -> Result<InstructionCounter, String> {
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        return Err("perf_event_open is wired up for x86_64 and aarch64 only".into());
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        {
            const PERF_TYPE_HARDWARE: u64 = 0;
            const PERF_COUNT_HW_INSTRUCTIONS: u64 = 1;
            const PERF_ATTR_SIZE_VER0: u64 = 64;
            const PERF_FORMAT_TOTAL_TIME_ENABLED: u64 = 1;
            const PERF_FORMAT_TOTAL_TIME_RUNNING: u64 = 2;
            const INHERIT: u64 = 1 << 1;
            const EXCLUDE_KERNEL: u64 = 1 << 5;
            const EXCLUDE_HV: u64 = 1 << 6;
            // `struct perf_event_attr` up to `PERF_ATTR_SIZE_VER0`: type
            // and size, config, sample period, sample type, read format,
            // the flag bits, and zeroed wakeup and breakpoint fields.
            let mut attr = [0u64; 8];
            attr[0] = PERF_TYPE_HARDWARE | (PERF_ATTR_SIZE_VER0 << 32);
            attr[1] = PERF_COUNT_HW_INSTRUCTIONS;
            attr[4] = PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
            attr[5] = INHERIT | EXCLUDE_KERNEL | EXCLUDE_HV;
            let (this_process, any_cpu, no_group, no_flags): (c_long, c_long, c_long, c_long) =
                (0, -1, -1, 0);
            // SAFETY: `attr` is a readable perf_event_attr of the size its
            // `size` field states; the other arguments are plain integers.
            let fd = unsafe {
                syscall(
                    SYS_PERF_EVENT_OPEN,
                    attr.as_ptr(),
                    this_process,
                    any_cpu,
                    no_group,
                    no_flags,
                )
            };
            if fd < 0 {
                return Err(format!(
                    "perf_event_open(instructions): {} (the benchmark needs a hardware \
                     instruction counter; /proc/sys/kernel/perf_event_paranoid must be 2 or less)",
                    std::io::Error::last_os_error()
                ));
            }
            let fd = c_int::try_from(fd).map_err(|e| format!("perf_event_open fd {fd}: {e}"))?;
            Ok(InstructionCounter { fd })
        }
    }

    /// Instructions counted since the counter opened. An error if the read
    /// fails or if the kernel time-shared the counter with other events,
    /// which would make the count an estimate.
    pub fn read(&self) -> Result<u64, String> {
        // value, time enabled, time running
        let mut buf = [0u64; 3];
        let len = std::mem::size_of_val(&buf);
        // SAFETY: `buf` is writable for the `len` bytes asked for, and `fd`
        // is the open counter this value owns.
        let n = unsafe { read(self.fd, buf.as_mut_ptr().cast(), len) };
        if usize::try_from(n) != Ok(len) {
            return Err(format!(
                "reading the instruction counter returned {n}: {}",
                std::io::Error::last_os_error()
            ));
        }
        let [value, enabled, running] = buf;
        if running != enabled {
            return Err(format!(
                "the instruction counter ran {running} of {enabled} ns enabled: it was \
                 multiplexed with other events, so its count is an estimate"
            ));
        }
        Ok(value)
    }
}

impl Drop for InstructionCounter {
    fn drop(&mut self) {
        // SAFETY: `fd` is open and owned by this value, and closed only here.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instructions_of_a_spawned_thread_are_counted() {
        let counter = InstructionCounter::open().expect("a hardware instruction counter");
        let before = counter.read().expect("a full-time count");
        std::thread::spawn(|| {
            let mut x = 0u64;
            for i in 0..10_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            x
        })
        .join()
        .expect("the counting thread ends");
        let spent = counter.read().expect("a full-time count") - before;
        assert!(spent >= 10_000_000, "{spent} instructions");
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t = process_cpu_s();
        let mut x = 0u64;
        for i in 0..10_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_s() > t);
    }
}
