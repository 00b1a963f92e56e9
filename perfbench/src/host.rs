//! What the host gives the benchmark: memory, CPU time, and how fast it
//! runs at the moment.

/// The peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// Linux's CPU-time clock of the calling process.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// CPU seconds this process has used so far, all threads included, to
/// the nanosecond. Unlike wall time it leaves out time the host gave to
/// other tenants.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` has the layout of the C `struct timespec` on 64-bit
    // Linux, is writable and outlives the call; the clock id is a valid
    // Linux clock, so the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// A xorshift generator: the calibration kernels' fixed input.
fn xorshift() -> impl FnMut() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// Times a fixed workload that shares no code with the program: a sort
/// and a random walk through 16 MiB, so it feels both the core's speed and
/// the memory system's. Its CPU time tracks how fast the host runs now.
pub fn calibrate() -> f64 {
    let t0 = process_cpu_s();
    let mut next = xorshift();
    let mut keys: Vec<u64> = (0..1 << 18).map(|_| next()).collect();
    keys.sort_unstable();
    // A single cycle through 4M slots (Sattolo's shuffle), walked in part.
    let n = 1usize << 22;
    let mut ring: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        ring.swap(i, (next() % i as u64) as usize);
    }
    let mut at = 0usize;
    for _ in 0..n / 8 {
        at = ring[at] as usize;
    }
    std::hint::black_box((keys[keys.len() / 2], at));
    process_cpu_s() - t0
}

/// A short fixed kernel shaped like set-up work, which sorts many small
/// arrays of floats in cache (every gTPC-C generator sorts the latency
/// matrix's rows): 4,096 sorts of 128 floats. Timed next to each set-up,
/// it tracks the host's speed for that kind of code at that moment
/// better than [`calibrate`], which is memory-bound and runs seconds
/// away.
pub fn calibrate_setup() -> f64 {
    let t0 = process_cpu_s();
    let mut next = xorshift();
    let mut acc = 0.0;
    for _ in 0..4096 {
        let mut v: Vec<f64> = (0..128).map(|_| (next() >> 11) as f64).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        acc += v[64];
    }
    std::hint::black_box(acc);
    process_cpu_s() - t0
}
