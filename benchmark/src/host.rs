//! The host the benchmark measures on: the CPUs it may use, pinning a
//! thread to them, and the speed of each CPU while a run measures.
//!
//! The reference host is a shared two-CPU virtual machine. Each virtual
//! CPU switches between a fast and a slow state, about 1.6× apart, every
//! few seconds as neighbours load the physical core beneath it, and the
//! two CPUs do so largely independently. Raw medians of ten 15-second
//! runs spread by 5-26% (IQR ÷ median). So a workload's threads are
//! pinned to known CPUs, a sampler thread pinned to each of those CPUs
//! times a short fixed kernel every [`SAMPLE_PERIOD`], and the harness
//! rescales every timing by the kernel time measured on its CPUs while it
//! ran. The kernel is timed in the sampler's own CPU time: the sampler
//! shares its CPU with the workload's threads, and the moments they hold
//! it must not read as a slow CPU.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Seconds the sample kernel takes on the host every timing is rescaled
/// to: a round figure near its time on the reference host. Only ratios
/// between runs matter.
pub const REFERENCE_S: f64 = 3e-4;

/// Time between two samples on one CPU. A sample costs about 0.3 ms of
/// that CPU, so the workload loses about 1.5% of it, the same in every
/// run.
const SAMPLE_PERIOD: Duration = Duration::from_millis(20);

/// Fewest samples a timing is rescaled by: a window holding fewer takes
/// the samples nearest to its middle instead.
const MIN_SAMPLES: usize = 3;

/// Values the sample kernel works on (128 KiB, within the core's own
/// cache, so sampling barely disturbs the workload's data).
const KERNEL_LEN: usize = 16 << 10;

/// Bytes of text the sample kernel validates as UTF-8.
const KERNEL_TEXT: usize = 1 << 10;

/// The CPUs this process may run on, ascending, as they were when first
/// asked: pinning a thread later narrows what the kernel reports.
pub fn cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let cpus = sys::allowed_cpus();
        if cpus.is_empty() {
            let n = std::thread::available_parallelism().map_or(1, |n| n.get());
            (0..n).collect()
        } else {
            cpus
        }
    })
}

/// The CPUs a workload running `threads` threads pins them to: the first
/// `threads` of [`cpus`], at least one.
pub fn cpus_for(threads: usize) -> &'static [usize] {
    let all = cpus();
    &all[..threads.clamp(1, all.len())]
}

/// Restricts the calling thread to `cpus`; false where the platform
/// offers no way to or refuses.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    sys::set_affinity(cpus)
}

/// Per sampled CPU, the kernel times measured while a run measures.
pub struct HostSpeed {
    epoch: Instant,
    stop: AtomicBool,
    cpus: Vec<usize>,
    /// Per sampled CPU: (seconds since `epoch` the sample started, kernel
    /// seconds), in time order.
    samples: Vec<Mutex<Vec<(f64, f64)>>>,
}

/// Stops the samplers when dropped, so that a run ending early, by error
/// or panic, still lets its thread scope join them.
pub struct Sampling<'a>(&'a HostSpeed);

impl Drop for Sampling<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::Relaxed);
    }
}

impl HostSpeed {
    /// Speed records for `cpus`; slot `i` of every method is `cpus[i]`.
    pub fn new(cpus: &[usize]) -> Self {
        Self {
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            cpus: cpus.to_vec(),
            samples: cpus.iter().map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Starts one sampler on `scope` per CPU, each pinned to its CPU, and
    /// returns once each has its first samples. They run until the
    /// returned guard is dropped.
    pub fn start<'scope, 'env>(&'env self, scope: &'scope Scope<'scope, 'env>) -> Sampling<'env> {
        for (slot, &cpu) in self.cpus.iter().enumerate() {
            scope.spawn(move || self.sample(slot, cpu));
        }
        let guard = Sampling(self);
        while (0..self.samples.len()).any(|slot| self.count(slot) < MIN_SAMPLES) {
            std::thread::sleep(SAMPLE_PERIOD);
        }
        guard
    }

    fn sample(&self, slot: usize, cpu: usize) {
        pin_current_thread(&[cpu]);
        let mut data = vec![0.0; KERNEL_LEN];
        let mut text = vec![0u8; KERNEL_TEXT];
        while !self.stop.load(Ordering::Relaxed) {
            let at = self.now();
            let secs = kernel_s(&mut data, &mut text);
            self.samples[slot]
                .lock()
                .expect("a sampler never panics while holding its samples")
                .push((at, secs));
            std::thread::sleep(SAMPLE_PERIOD);
        }
    }

    fn count(&self, slot: usize) -> usize {
        self.samples[slot]
            .lock()
            .expect("a sampler never panics while holding its samples")
            .len()
    }

    /// Seconds since sampling started: the clock windows are given in.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Mean kernel seconds on sampled CPU `slot` between `from` and `to`.
    pub fn kernel_s(&self, slot: usize, from: f64, to: f64) -> f64 {
        let samples = self.samples[slot]
            .lock()
            .expect("a sampler never panics while holding its samples");
        let first = samples.partition_point(|&(at, _)| at < from);
        let end = samples.partition_point(|&(at, _)| at <= to);
        let window = if end - first >= MIN_SAMPLES {
            &samples[first..end]
        } else {
            // The MIN_SAMPLES samples nearest to the window's middle.
            let middle = (from + to) / 2.0;
            let mut lo = samples.partition_point(|&(at, _)| at < middle);
            let mut hi = lo;
            while hi - lo < MIN_SAMPLES.min(samples.len()) {
                let take_low = hi == samples.len()
                    || (lo > 0 && middle - samples[lo - 1].0 <= samples[hi].0 - middle);
                if take_low {
                    lo -= 1;
                } else {
                    hi += 1;
                }
            }
            &samples[lo..hi]
        };
        window.iter().map(|&(_, secs)| secs).sum::<f64>() / window.len() as f64
    }

    /// Kernel seconds at the mean speed of every sampled CPU between
    /// `from` and `to` (the harmonic mean of their kernel times): the
    /// speed of work that the CPUs share.
    pub fn shared_kernel_s(&self, from: f64, to: f64) -> f64 {
        let speed: f64 = (0..self.cpus.len())
            .map(|slot| 1.0 / self.kernel_s(slot, from, to))
            .sum();
        self.cpus.len() as f64 / speed
    }
}

/// One run of the sample kernel: fills 16 Ki values from a xorshift
/// generator, sorts the first quarter, streams over all of them eight
/// times and validates 1 KiB of text as UTF-8 from every 16th offset —
/// integer, branchy, streaming and vector work that no code of this
/// repository runs, so no change to the repository can move it. Returns
/// the seconds of CPU time it took the calling thread (of wall-clock time
/// where the platform offers no thread clock).
fn kernel_s(data: &mut [f64], text: &mut [u8]) -> f64 {
    let (cpu, wall) = (sys::thread_cpu_s(), Instant::now());
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for y in data.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *y = (x >> 11) as f64;
    }
    let sorted = data.len() / 4;
    data[..sorted].sort_unstable_by(f64::total_cmp);
    for _ in 0..8 {
        for y in data.iter_mut() {
            *y = *y * 1.000_000_1 + 1e-9;
        }
    }
    for (c, y) in text.iter_mut().zip(data.iter()) {
        *c = b' ' + (y.to_bits() % 94) as u8;
    }
    let valid: usize = (0..text.len())
        .step_by(16)
        .map(|i| std::str::from_utf8(&text[i..]).map_or(0, str::len))
        .sum();
    std::hint::black_box((&*data, valid));
    match (cpu, sys::thread_cpu_s()) {
        (Some(start), Some(end)) => end - start,
        _ => wall.elapsed().as_secs_f64(),
    }
}

/// CPU affinity and the calling thread's CPU clock through the kernel's
/// `sched_getaffinity`, `sched_setaffinity` and `clock_gettime` system
/// calls, which the standard library does not expose.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    /// A CPU set as the system calls take it: one bit per CPU, 1024 CPUs.
    type Mask = [u64; 16];

    const CLOCK_GETTIME: isize = 228;
    const SCHED_SETAFFINITY: isize = 203;
    const SCHED_GETAFFINITY: isize = 204;
    const CLOCK_THREAD_CPUTIME_ID: usize = 3;

    /// Seconds of CPU time the calling thread has used.
    pub fn thread_cpu_s() -> Option<f64> {
        // A `struct timespec`: seconds, nanoseconds.
        let mut ts = [0i64; 2];
        let ret: isize;
        // SAFETY: clock_gettime(clock, ptr) writes one 16-byte timespec to
        // `ptr`, which points to `ts`, exclusively borrowed and 16 bytes
        // long for the whole call. The `syscall` instruction overwrites
        // only rax (the result), rcx and r11, all declared.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") CLOCK_GETTIME => ret,
                in("rdi") CLOCK_THREAD_CPUTIME_ID,
                in("rsi") ts.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        (ret == 0).then(|| ts[0] as f64 + ts[1] as f64 * 1e-9)
    }

    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask: Mask = [0; 16];
        let ret: isize;
        // SAFETY: sched_getaffinity(0, len, ptr) writes at most `len`
        // bytes to `ptr`, which points to `mask`, exclusively borrowed and
        // `len` bytes long for the whole call. The `syscall` instruction
        // overwrites only rax (the result), rcx and r11, all declared.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SCHED_GETAFFINITY => ret,
                in("rdi") 0usize,
                in("rsi") std::mem::size_of::<Mask>(),
                in("rdx") mask.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if ret <= 0 {
            return Vec::new();
        }
        (0..64 * mask.len())
            .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    pub fn set_affinity(cpus: &[usize]) -> bool {
        let mut mask: Mask = [0; 16];
        for &cpu in cpus {
            if let Some(word) = mask.get_mut(cpu / 64) {
                *word |= 1 << (cpu % 64);
            }
        }
        let ret: isize;
        // SAFETY: sched_setaffinity(0, len, ptr) only reads `len` bytes
        // from `ptr`, which points to `mask`, `len` bytes long and alive
        // for the whole call. The `syscall` instruction overwrites only
        // rax (the result), rcx and r11, all declared.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SCHED_SETAFFINITY => ret,
                in("rdi") 0usize,
                in("rsi") std::mem::size_of::<Mask>(),
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack, readonly),
            );
        }
        ret == 0
    }
}

/// Elsewhere threads stay where the scheduler puts them, and the kernel is
/// timed by the wall clock.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub fn thread_cpu_s() -> Option<f64> {
        None
    }

    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn set_affinity(_: &[usize]) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_window_borrows_the_nearest_samples() {
        let speed = HostSpeed {
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            cpus: vec![0],
            samples: vec![Mutex::new(vec![
                (0.00, 1.0),
                (0.02, 2.0),
                (0.04, 3.0),
                (0.06, 4.0),
                (0.08, 5.0),
            ])],
        };
        assert_eq!(speed.kernel_s(0, 0.0, 0.1), 3.0);
        assert_eq!(speed.kernel_s(0, 0.045, 0.05), 3.0);
        assert_eq!(speed.kernel_s(0, 0.5, 0.6), 4.0);
    }

    #[test]
    fn the_thread_clock_counts_work_but_not_time_off_the_cpu() {
        if !cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            return;
        }
        let now = || sys::thread_cpu_s().expect("a thread clock");
        let start = now();
        std::thread::sleep(Duration::from_millis(50));
        let slept = now() - start;
        let start = now();
        let (mut data, mut text) = (vec![0.0; KERNEL_LEN], vec![0u8; KERNEL_TEXT]);
        let kernel = kernel_s(&mut data, &mut text);
        let worked = now() - start;
        assert!(slept < 0.01, "sleeping used {slept} s of CPU time");
        assert!(
            kernel > 0.0 && kernel <= worked,
            "{kernel} s within {worked} s"
        );
    }

    #[test]
    fn the_allowed_cpus_are_known_and_a_thread_can_be_pinned_to_one() {
        let cpus = cpus();
        assert!(!cpus.is_empty());
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            let first = cpus[0];
            assert!(std::thread::spawn(move || pin_current_thread(&[first]))
                .join()
                .expect("pinning does not panic"));
        }
    }
}
