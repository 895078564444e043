//! What the host was doing: core count, a fixed calibration loop, the
//! latency of its memory, peak RSS.

use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Times a fixed ALU + memory loop (the fastest of three passes, so a cold
/// cache, a sleeping core or a neighbour's burst does not count). The work
/// is constant, so two calls that disagree mean the host changed speed
/// under the run, not the program.
pub fn calibrate_ms() -> f64 {
    // 32 KiB: first-level-cache resident, so what the program left in the
    // larger caches and how big its heap has grown (TLB reach, huge pages)
    // do not move it; core clock and stolen time do.
    const WORDS: usize = 4 << 10;
    // Filled, not zeroed, so every page is mapped before the clock starts.
    let mut mem = vec![1u64; WORDS];
    let mut pass = || {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..16_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (WORDS - 1);
            mem[slot] = mem[slot].wrapping_add(x);
        }
        start.elapsed().as_secs_f64() * 1e3
    };
    let fastest = (0..3).map(|_| pass()).fold(f64::INFINITY, f64::min);
    std::hint::black_box(&mem);
    fastest
}

/// How long a load that misses the core's own caches takes on this host,
/// right now. The reference host shares its last-level cache and memory
/// with other guests, and this latency moves by a quarter over minutes while
/// [`calibrate_ms`], which stays in the first-level cache, does not move at
/// all; a run's timings follow it (see `metrics::EndToEnd`).
pub struct MemoryProbe {
    mem: Vec<u32>,
    at: u64,
}

impl MemoryProbe {
    /// 64 MiB: far beyond the second-level cache and the TLB's reach, like
    /// the replicas' heaps.
    const WORDS: usize = 16 << 20;
    /// Loads per reading, each address computed from the value loaded
    /// before it: about 12 ms.
    const LOADS: u32 = 64 << 10;

    pub fn new() -> MemoryProbe {
        MemoryProbe {
            // Filled, not zeroed, so that every page is mapped.
            mem: vec![1; Self::WORDS],
            at: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// One reading: nanoseconds per dependent load, at pseudo-random
    /// addresses that continue where the previous reading stopped.
    pub fn latency_ns(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.at;
        for _ in 0..Self::LOADS {
            let slot = (x >> 40) as usize & (Self::WORDS - 1);
            x = x
                .wrapping_add(u64::from(self.mem[slot]))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        self.at = x;
        start.elapsed().as_secs_f64() * 1e9 / f64::from(Self::LOADS)
    }
}

impl Default for MemoryProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
