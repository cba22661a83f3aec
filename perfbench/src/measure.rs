//! Measurement plumbing shared by every workload: sample statistics, the
//! result record and its JSON line, the host block, peak memory, a seeded
//! RNG and a digest for output checks.

use std::fmt::Write as _;
use std::time::Instant;

/// Run `f` and return its result with the elapsed wall-clock seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Nearest-rank quantile `q` in `[0, 1]` of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (the mean of the two middle values for an even
/// count, 0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run produced: the operation counts, the metrics of
/// the requested kind, human-readable report lines, and the reasons (if
/// any) the run is not valid.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
    pub problems: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a human-readable report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Record a failed check: it counts as one failed operation and its
    /// reason is printed.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.problems.push(why.into());
    }

    /// Mark the run invalid without counting a failed operation (an
    /// open-loop run whose generator could not keep its schedule).
    pub fn invalid(&mut self, why: impl Into<String>) {
        self.problems.push(why.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every value with all its digits.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                if i == 0 { "" } else { "," },
                m.name,
                value,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The host a result was measured on, so numbers from different machines
/// can be compared: parallelism, thread-pool width, CPU model, the CPUs this
/// process may run on, kernel, address randomization, toolchain and build
/// profile.
pub fn host_block() -> String {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(str::trim)
        .unwrap_or("unknown");
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let cpus_allowed = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))
        .and_then(|l| l.split(':').nth(1))
        .map(str::trim)
        .unwrap_or("unknown");
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    // The vendored rayon stand-in sizes its pool from the available
    // parallelism, exactly like the registry crate's default.
    format!(
        "{{\"available_parallelism\":{parallelism},\"rayon_threads\":{parallelism},\
         \"cpu_model\":\"{}\",\"cpus_allowed\":\"{}\",\"kernel\":\"{}\",\
         \"aslr\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\"opt_level\":\"{}\"}}",
        escape(cpu_model),
        escape(cpus_allowed),
        escape(kernel.trim()),
        aslr(),
        escape(env!("PERFBENCH_RUSTC")),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_OPT_LEVEL"),
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Restrict the calling thread, and every thread it spawns afterwards, to
/// one CPU: the highest-numbered CPU it may run on now. Returns that CPU,
/// or `None` where affinity cannot be set.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 CPUs, one bit each.
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| (allowed[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed, naming one
    // CPU the thread is already allowed to run on; pid 0 names the calling
    // thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The `personality` flag that turns address-space randomization off.
#[cfg(target_os = "linux")]
const ADDR_NO_RANDOMIZE: u64 = 0x0040000;

#[cfg(target_os = "linux")]
extern "C" {
    fn personality(persona: u64) -> i32;
}

/// Replace this process with a fresh image of itself that runs with
/// address-space randomization off (what `setarch -R` does). Randomized
/// code, heap and stack placement moved the same work by up to 80 % from
/// one process to the next; a fixed layout makes runs comparable. Returns
/// (and the run goes on randomized) where the flag cannot be set.
#[cfg(target_os = "linux")]
pub fn reexec_without_aslr() {
    use std::os::unix::process::CommandExt;

    // SAFETY: 0xffffffff only queries the current persona; no memory is
    // passed.
    let current = unsafe { personality(0xffff_ffff) };
    if current < 0 || (current as u64) & ADDR_NO_RANDOMIZE != 0 {
        return;
    }
    // SAFETY: sets this process's persona flags, which the next exec
    // inherits; no memory is passed.
    if unsafe { personality(current as u64 | ADDR_NO_RANDOMIZE) } < 0 {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    // `exec` only returns on failure; the run then continues here.
    let err = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .exec();
    eprintln!("could not re-exec without address randomization: {err}");
}

#[cfg(not(target_os = "linux"))]
pub fn reexec_without_aslr() {}

/// Whether this process runs with address-space randomization.
fn aslr() -> &'static str {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: 0xffffffff only queries the current persona.
        let current = unsafe { personality(0xffff_ffff) };
        if current >= 0 && (current as u64) & ADDR_NO_RANDOMIZE != 0 {
            return "off";
        }
    }
    "on"
}

/// FNV-1a over `bytes`: the digest output checks compare.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A small seeded generator (splitmix64): the benchmark derives all of its
/// inputs from `--seed` through it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005E_ED0F_B3AC_4A11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffle `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.99), 5.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.count(3, 0);
        out.metric("wall_s", 1.25, "s");
        assert_eq!(
            out.json_line(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        out.fail("mismatch");
        assert!(!out.correct());
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
