//! Host characterization — the stand-in for the paper's Table II
//! (platform description + STREAM-measured sustained bandwidth) — and the
//! workspace's one machine probe.
//!
//! The `experiments machine` table names the host by its CPU model and
//! logical CPU count, and `ExpConfig`'s default thread count is that same
//! [`ncpus`].

use crate::framework::sample;
use crate::report::Table;

/// Logical CPUs visible to this process.
pub fn ncpus() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The CPU model string (`/proc/cpuinfo` "model name"), or a portable
/// stand-in when unavailable. Whitespace is collapsed so the key is
/// stable across kernels that pad the field differently.
pub fn machine_model() -> String {
    let from_proc = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.split_whitespace().collect::<Vec<_>>().join(" "))
        });
    match from_proc {
        Some(m) if !m.is_empty() => m,
        _ => format!("unknown-cpu-{}", std::env::consts::ARCH),
    }
}

/// One row of host information.
fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Cache descriptions from sysfs: (level, type, size).
pub fn caches() -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for idx in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let (Some(level), Some(ctype), Some(size)) = (
            read_trimmed(&format!("{base}/level")),
            read_trimmed(&format!("{base}/type")),
            read_trimmed(&format!("{base}/size")),
        ) else {
            break;
        };
        out.push((level, ctype, size));
    }
    out
}

/// A size in KiB as sysfs (`"307200K"`) and `/proc/meminfo`
/// (`"15965668 kB"`) print it, in bytes.
fn kib_bytes(text: &str) -> Option<usize> {
    let kib = text.trim().trim_end_matches("kB").trim_end_matches('K');
    kib.trim().parse::<usize>().ok().map(|k| k << 10)
}

/// Bytes per triad array: the three together at least twice the largest
/// cache [`caches`] reports, and 64 MB each at least (the size when sysfs
/// lists no cache), but at most a quarter of `MemAvailable` together.
fn triad_array_bytes() -> usize {
    let largest = caches().iter().filter_map(|c| kib_bytes(&c.2)).max();
    let per_array = (2 * largest.unwrap_or(0)).div_ceil(3).max(64_000_000);
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let available = meminfo
        .lines()
        .find_map(|l| kib_bytes(l.strip_prefix("MemAvailable:")?));
    available.map_or(per_array, |a| per_array.min(a / 12))
}

/// STREAM-triad-style sustained bandwidth estimate in GB/s, single
/// threaded: the [`sample`] score of passes of `a[i] = b[i] + s·c[i]` over
/// arrays past the largest cache. Returns the bandwidth and the bytes per
/// array.
pub fn triad_bandwidth_gbs() -> (f64, usize) {
    let n = triad_array_bytes() / 8;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = 3.0;
    let passes = sample(1, |_| {
        for i in 0..n {
            a[i] = b[i] + s * c[i];
        }
        std::hint::black_box(&a);
    });
    // 3 x 8 bytes moved per element (2 reads + 1 write).
    ((24.0 * n as f64) / passes[0].q1 / 1e9, 8 * n)
}

/// Prints the host description table (Table II substitute, DESIGN.md S5).
pub fn describe() -> Table {
    let mut t = Table::new(&["property", "value"]);
    t.row(vec!["cpu model".into(), machine_model()]);
    t.row(vec!["available parallelism".into(), ncpus().to_string()]);
    for (level, ctype, size) in caches() {
        t.row(vec![
            format!("L{level} {} cache", ctype.to_lowercase()),
            size,
        ]);
    }
    let (gbs, bytes) = triad_bandwidth_gbs();
    t.row(vec![
        "triad bandwidth (GB/s)".into(),
        format!("{gbs:.2} over 3 x {} MiB arrays", bytes >> 20),
    ]);
    t.row(vec![
        "paper platform A".into(),
        "Dunnington: 4x6 cores, 5.4 GB/s sustained".into(),
    ]);
    t.row(vec![
        "paper platform B".into(),
        "Gainestown: 2x4 cores (16 threads), 2x15.5 GB/s sustained".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_has_rows() {
        // Cheap structural check only (the bandwidth probe is expensive, so
        // exercise the pieces that don't allocate its arrays).
        assert!(!machine_model().is_empty());
        assert!(triad_array_bytes() > 0);
    }

    #[test]
    fn cache_and_memory_sizes_parse() {
        assert_eq!(kib_bytes("307200K"), Some(300 << 20));
        assert_eq!(kib_bytes("   15965668 kB"), Some(15_965_668 << 10));
        assert_eq!(kib_bytes("12 furlongs"), None);
    }

    #[test]
    fn machine_key_parts_are_stable_within_a_process() {
        assert_eq!(machine_model(), machine_model());
        assert!(ncpus() >= 1);
    }
}
