//! Order statistics, seeded input generation and `/proc` probes shared by
//! every workload.
//!
//! The benchmark draws its inputs from its own generator rather than the
//! simulator's RNG streams, so a change to the program under test can never
//! change what the benchmark feeds it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// The `q`-quantile of an ascending slice by the nearest-rank rule (the
/// smallest value with at least `q·n` values at or below it). NaN when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample ascending (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median as `statistics.median` takes it: the mean of the two middle
/// values of an even-sized sample. NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The first and third quartiles by the method `statistics.quantiles(v,
/// n=4)` uses by default ("exclusive"), so spreads printed here match a
/// recomputation with it. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// SplitMix64: tiny, fast, and good enough to draw benchmark inputs. The
/// same seed always yields the same stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the workloads'
    /// independent draws (arrival gaps, domains, kinds) never share state.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// A Zipf law over `n` ranks: `P(d) ∝ 1 / (d + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (0..n).map(|d| 1.0 / ((d + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    /// The probability of rank `d`.
    pub fn prob(&self, d: usize) -> f64 {
        self.cdf[d] - if d == 0 { 0.0 } else { self.cdf[d - 1] }
    }

    /// Every rank's probability, rank 0 first.
    pub fn probs(&self) -> Vec<f64> {
        (0..self.cdf.len()).map(|d| self.prob(d)).collect()
    }
}

/// FNV-1a over `bytes`, as 16 hex digits: the digest printed for the
/// simulator's report so two runs can be compared by eye.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// On-CPU time of the calling thread in nanoseconds (`schedstat`, which
/// counts at nanosecond resolution; `stat` ticks are 10 ms).
pub fn own_cpu_ns() -> u64 {
    read_schedstat("/proc/thread-self/schedstat").unwrap_or(0)
}

/// Ids of this process's threads named `comm`.
pub fn thread_ids(comm: &str) -> Vec<i32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim_end() == comm)
        })
        .filter_map(|t| t.file_name().to_str()?.parse().ok())
        .collect()
}

/// On-CPU nanoseconds of this process's thread `tid`.
pub fn thread_cpu_ns(tid: i32) -> u64 {
    read_schedstat(&format!("/proc/self/task/{tid}/schedstat")).unwrap_or(0)
}

/// A CPU set as the kernel's `cpu_set_t` lays it out (1024 bits).
pub type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs thread `tid` may run on (0: the calling thread).
pub fn affinity(tid: i32) -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into the
    // live, aligned array and keeps no pointer to it.
    let rc = unsafe { sched_getaffinity(tid, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Restricts thread `tid` (0: the calling thread) to `mask`; false when
/// the kernel refuses (a CPU outside the container's set, say).
pub fn set_affinity(tid: i32, mask: &CpuMask) -> bool {
    // SAFETY: the kernel reads `size_of_val(mask)` bytes from the live,
    // aligned array and keeps no pointer to it.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// The `n`-th CPU (0-based) of `mask`, as a one-CPU mask.
pub fn nth_cpu(mask: &CpuMask, n: usize) -> Option<CpuMask> {
    let cpu = (0..1024).filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0).nth(n)?;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    Some(one)
}

fn read_schedstat(path: &str) -> Option<u64> {
    std::fs::read_to_string(path).ok()?.split_whitespace().next()?.parse().ok()
}

/// The system allocator, counting live heap bytes and their high-water
/// mark while [`Heap::start`] has switched counting on. Off, each call
/// costs one relaxed load on top of the system allocator, so the daemon's
/// allocating slow path is measured almost as it runs without it.
pub struct Heap;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl Heap {
    /// Starts counting from zero live bytes: what is already allocated is
    /// not the simulator's, and frees of it are ignored.
    pub fn start() {
        LIVE.store(0, Ordering::Relaxed);
        PEAK.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
    }

    /// Stops counting and returns the high-water mark in MiB.
    pub fn stop() -> f64 {
        COUNTING.store(false, Ordering::Relaxed);
        PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Heap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `alloc`'s contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            // Saturating: blocks allocated before counting began may be
            // freed while it runs.
            let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| {
                Some(l.saturating_sub(layout.size()))
            });
        }
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            let old = layout.size();
            let live = LIVE
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| {
                    Some(l.saturating_sub(old) + new_size)
                })
                .map_or(0, |l| l.saturating_sub(old) + new_size);
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whole nanoseconds of a duration, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1], n=4) extrapolates: [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    }

    #[test]
    fn nearest_rank_quantile() {
        let s = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.99), 5.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn zipf_shares_sum_to_one_and_decrease() {
        let z = Zipf::new(4, 1.0);
        let p = z.probs();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.windows(2).all(|w| w[0] > w[1]));
        assert!((p[0] - 0.48).abs() < 1e-12, "1 / H_4 = 0.48");
    }
}
