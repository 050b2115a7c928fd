//! Host characterization — the stand-in for the paper's Table II
//! (platform description + STREAM-measured sustained bandwidth).

use crate::report::Table;
use std::time::Instant;
use symspmv_tune::machine::{machine_model, ncpus};

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

/// STREAM-triad-style sustained bandwidth estimate in GB/s:
/// `a[i] = b[i] + s·c[i]` over arrays well beyond cache size.
pub fn triad_bandwidth_gbs() -> f64 {
    let n = 8_000_000usize; // 3 arrays x 64 MB total
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = 3.0;
    // Warm-up + measure best of 3.
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let t = Instant::now();
        for i in 0..n {
            a[i] = b[i] + s * c[i];
        }
        let dt = t.elapsed().as_secs_f64();
        std::hint::black_box(&a);
        best = best.min(dt);
    }
    // 3 x 8 bytes moved per element (2 reads + 1 write).
    (24.0 * n as f64) / best / 1e9
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
    t.row(vec![
        "triad bandwidth (GB/s)".into(),
        format!("{:.2}", triad_bandwidth_gbs()),
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
        // exercise the pieces that don't allocate 192 MB).
        assert!(!machine_model().is_empty());
        let _ = caches();
    }
}
