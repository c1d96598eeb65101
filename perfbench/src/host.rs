//! Host fingerprint and the STREAM-style triad that gives the host's
//! memory bandwidth. Two results are comparable only when their
//! fingerprints match (see `compare.py`).

use std::hint::black_box;
use std::time::Instant;

use microslip::obs::json;

/// What makes two measurements comparable: the same cores, CPU, vector
/// extensions and last-level cache, and a memory bandwidth in the same
/// range.
pub struct Fingerprint {
    pub cores: usize,
    pub cpu_model: String,
    pub avx2: bool,
    pub avx512: bool,
    pub llc_bytes: u64,
    pub stream_gbps: f64,
}

impl Fingerprint {
    /// Reads the host description and measures its triad bandwidth.
    pub fn detect() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
            .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
        let flags: Vec<&str> = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("flags").and_then(|r| r.split_once(':')))
            .map_or(Vec::new(), |(_, f)| f.split_whitespace().collect());
        let llc_bytes = llc_bytes();
        Fingerprint {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            avx2: flags.contains(&"avx2"),
            avx512: flags.contains(&"avx512f"),
            llc_bytes,
            stream_gbps: triad_gbps(llc_bytes),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            r#"{{"cores":{},"cpu_model":"{}","avx2":{},"avx512":{},"llc_bytes":{},"stream_gbps":{}}}"#,
            self.cores,
            json::escape(&self.cpu_model),
            self.avx2,
            self.avx512,
            self.llc_bytes,
            json::num(self.stream_gbps),
        )
    }
}

/// Size of the largest cache level of CPU 0 (the last-level cache), from
/// sysfs; 32 MiB when sysfs does not say.
fn llc_bytes() -> u64 {
    let mut best = 0u64;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().map_or(0, |k| k * 1024),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().map_or(0, |m| m << 20),
                None => size.parse().unwrap_or(0),
            },
        };
        best = best.max(bytes);
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// Single-thread triad `a = b + s·c` over three arrays whose total size is
/// at least four times the last-level cache; median GB/s of five passes,
/// counting 24 bytes (two reads, one write) per element.
pub fn triad_gbps(llc_bytes: u64) -> f64 {
    let n = (4 * llc_bytes / 24).max(1 << 20) as usize;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0f64);
    let mut rates = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        rates.push(24.0 * n as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    crate::median(&mut rates)
}
