//! CPU-time clocks. On a shared virtual machine the hypervisor can steal a
//! large and changing share of wall time; the kernel's CPU-time accounting
//! leaves stolen time out, so CPU time is what the benchmark can compare
//! between runs.

use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on the
    // 64-bit Linux targets this benchmark runs on) and `clock` is one of the
    // two CPU-time clock ids every Linux kernel supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used by every thread of the process so far, exited
/// threads included.
pub fn process_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used by the calling thread so far.
pub fn thread_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Id and name of every live thread of this process.
pub fn threads() -> Vec<(u32, String)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| {
            let tid = e.file_name().to_str()?.parse().ok()?;
            let name = std::fs::read_to_string(e.path().join("comm")).ok()?;
            Some((tid, name.trim_end().to_owned()))
        })
        .collect()
}

/// CPU seconds used so far by thread `tid` of this process (0 once it has
/// exited).
pub fn task_s(tid: u32) -> f64 {
    std::fs::read_to_string(
        Path::new("/proc/self/task")
            .join(tid.to_string())
            .join("schedstat"),
    )
    .ok()
    .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
    .map_or(0.0, |ns| ns as f64 * 1e-9)
}
