//! What the operating system knows about this process: CPU time, peak
//! memory, thread count.

/// CPU nanoseconds consumed by every thread of this process so far.
pub fn process_cpu_ns() -> u64 {
    // The vendored libc shim declares `clock_gettime` but only the
    // thread clock's id; 2 is Linux's CLOCK_PROCESS_CPUTIME_ID.
    const CLOCK_PROCESS_CPUTIME_ID: libc::clockid_t = 2;
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed out-pointer for the
    // duration of the call, and the clock id is a constant Linux defines.
    let rc = unsafe { libc::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn status_field_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> u64 {
    status_field_kb("VmHWM:").unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_clock_advances_and_rss_is_known() {
        let a = process_cpu_ns();
        let mut x = 1u64;
        while process_cpu_ns() == a {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_ns() > a);
        assert!(peak_rss_kb() > 0);
    }
}
