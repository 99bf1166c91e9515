//! Seeds, order statistics, resident-memory probes and the host stamp.

use std::time::Instant;

/// SplitMix64 finalizer: the benchmark's one way to derive a stream of
/// input seeds from the workload seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic seed stream: the same workload seed and tag give the
/// same sequence.
#[derive(Debug, Clone)]
pub struct Seeds(u64);

impl Seeds {
    pub fn new(seed: u64, tag: u64) -> Self {
        Seeds(mix(seed ^ mix(tag)))
    }

    pub fn next_seed(&mut self) -> u64 {
        self.0 = mix(self.0);
        // Application and GA seeds are kept in 32 bits so they read well
        // in wire requests and reports.
        self.0 & 0xFFFF_FFFF
    }
}

/// Linear-interpolated percentile (`p` in `0..=100`) of unsorted values;
/// 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms_since(t0))
}

/// Worker and connection budget: the host's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A program binary built next to this one (same cargo target directory).
pub fn sibling_binary(name: &str) -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = exe.parent().unwrap_or(std::path::Path::new(".")).join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{} not found; build it first", path.display()))
    }
}

/// Peak resident set (`VmHWM`) of a process in MB; `None` = this one.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Jiffies of the aggregate `cpu` line of `/proc/stat`: (steal, total).
pub fn cpu_jiffies() -> (u64, u64) {
    let fields: Vec<u64> = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?.strip_prefix("cpu ")?.to_owned();
            Some(
                line.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The host and build a report was measured on, as one JSON object.
/// `steal` is the share of CPU time the hypervisor took from this
/// machine since `start` (a `cpu_jiffies` reading): timings rise with it.
pub fn host_stamp(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    start: (u64, u64),
) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_owned());
    let (steal, total) = cpu_jiffies();
    let steal = steal.saturating_sub(start.0) as f64 / total.saturating_sub(start.1).max(1) as f64;
    format!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \
         \"steal\": {steal:.4}}}}}",
        json_str(workload),
        nproc(),
        json_str(&cpu),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_COMMIT")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn seed_streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4)
            .scan(Seeds::new(7, 1), |s, _| Some(s.next_seed()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Seeds::new(7, 1), |s, _| Some(s.next_seed()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Seeds::new(8, 1), |s, _| Some(s.next_seed()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
