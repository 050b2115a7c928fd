//! Benchmark-owned probes: the serial CSR yardstick that doubles as the
//! correctness reference, the triad bandwidth probe, and the `/proc`
//! readers. Nothing here calls the library's kernels, so these numbers mean
//! the same thing on every commit.

use std::time::Instant;
use symspmv::sparse::CooMatrix;

/// Serial CSR SpMV over the workload's matrix. It is the reference every
/// library result is checked against, and — because its code never changes
/// — the yardstick whose time tracks what the host is doing to
/// memory-bound code right now.
pub struct Yardstick {
    rowptr: Vec<usize>,
    colind: Vec<u32>,
    values: Vec<f64>,
}

impl Yardstick {
    /// Counting-sort build; duplicate coordinates stay separate entries, so
    /// their products add up as in any other reference.
    pub fn new(coo: &CooMatrix) -> Self {
        let n = coo.nrows() as usize;
        let mut rowptr = vec![0usize; n + 1];
        for (r, _, _) in coo.iter() {
            rowptr[r as usize + 1] += 1;
        }
        for i in 0..n {
            rowptr[i + 1] += rowptr[i];
        }
        let mut next = rowptr.clone();
        let mut colind = vec![0u32; coo.nnz()];
        let mut values = vec![0.0; coo.nnz()];
        for (r, c, v) in coo.iter() {
            let k = next[r as usize];
            colind[k] = c;
            values[k] = v;
            next[r as usize] += 1;
        }
        Yardstick {
            rowptr,
            colind,
            values,
        }
    }

    /// `y = A·x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        for (r, yr) in y.iter_mut().enumerate() {
            let (lo, hi) = (self.rowptr[r], self.rowptr[r + 1]);
            *yr = self.colind[lo..hi]
                .iter()
                .zip(&self.values[lo..hi])
                .map(|(&c, &v)| v * x[c as usize])
                .sum();
        }
    }

    /// Seconds of one `spmv`.
    pub fn time(&self, x: &[f64], y: &mut [f64]) -> f64 {
        let t = Instant::now();
        self.spmv(x, y);
        std::hint::black_box(&*y);
        t.elapsed().as_secs_f64()
    }

    /// `‖b − A·x‖₂ / ‖b‖₂`, with `scratch` receiving `A·x`.
    pub fn true_residual(&self, x: &[f64], b: &[f64], scratch: &mut [f64]) -> f64 {
        self.spmv(x, scratch);
        rel_l2_diff(scratch, b)
    }
}

/// `‖got − want‖₂ / ‖want‖₂`; NaN in `got` yields NaN, which fails every
/// `<=` tolerance test.
pub fn rel_l2_diff(got: &[f64], want: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len());
    let (mut diff, mut norm) = (0.0, 0.0);
    for (g, w) in got.iter().zip(want) {
        diff += (g - w) * (g - w);
        norm += w * w;
    }
    (diff / norm).sqrt()
}

/// Result of the triad probe.
pub struct Triad {
    /// Best pass, in GB/s at 24 bytes per element.
    pub gbs: f64,
    /// Bytes of each of the three arrays.
    pub array_bytes: usize,
}

/// Largest triad array. A first touch costs this VM some 50 µs a page, so
/// the 1 GiB arrays that four times its reported 260 MiB cache ask for take
/// 40 s to fault in — twice a whole run. 32 MiB is eight times the 4 MiB L2
/// a core owns; the last-level cache is the host's, shared with other
/// guests, and the run prints both sizes so the reader can judge.
pub const TRIAD_CAP_BYTES: usize = 32 << 20;

/// STREAM triad `a = b + s·c` on `threads` threads. Each array is four
/// times the last-level cache, capped by [`TRIAD_CAP_BYTES`] and by what
/// lets the three arrays fit in a quarter of `MemAvailable`.
pub fn triad(threads: usize, llc_bytes: usize, mem_available: usize) -> Triad {
    const PASSES: usize = 20;
    let fits = mem_available / 4 / 3;
    let len = ((4 * llc_bytes).min(fits).min(TRIAD_CAP_BYTES) / 8).max(1 << 16);
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let chunk = len.div_ceil(threads);
    let mut best = f64::INFINITY;
    // One more pass than counted: the first faults the pages in.
    for pass in 0..=PASSES {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + 3.0 * c;
                    }
                });
            }
        });
        std::hint::black_box(&a);
        if pass > 0 {
            best = best.min(t.elapsed().as_secs_f64());
        }
    }
    Triad {
        gbs: 24.0 * len as f64 / best / 1e9,
        array_bytes: 8 * len,
    }
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// A `Name:   123 kB` field of a `/proc` status file, in bytes.
fn kib_field(text: &str, name: &str) -> Option<usize> {
    let rest = text.lines().find_map(|l| l.strip_prefix(name))?;
    let kib: usize = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib * 1024)
}

/// Peak resident set of this process so far, in bytes.
pub fn peak_rss_bytes() -> Option<usize> {
    kib_field(&read("/proc/self/status")?, "VmHWM:")
}

/// `MemAvailable`, in bytes.
pub fn mem_available_bytes() -> Option<usize> {
    kib_field(&read("/proc/meminfo")?, "MemAvailable:")
}

/// Size of the highest-level cache sysfs reports for cpu0, in bytes.
pub fn llc_bytes() -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(size)) =
            (read(&format!("{dir}/level")), read(&format!("{dir}/size")))
        else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<usize>().ok().map(|k| k << 10)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<usize>().ok().map(|m| m << 20)
        } else {
            size.parse().ok()
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = read("/proc/stat")?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] readings.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yardstick_matches_a_hand_computed_product() {
        // [2 1 0; 1 3 0; 0 0 4] with a duplicate (0,0) entry split 1.5 + 0.5.
        let coo = CooMatrix::from_triplets(
            3,
            3,
            vec![0, 1, 0, 1, 2, 0],
            vec![0, 0, 1, 1, 2, 0],
            vec![1.5, 1.0, 1.0, 3.0, 4.0, 0.5],
        )
        .unwrap();
        let yard = Yardstick::new(&coo);
        let mut y = vec![0.0; 3];
        yard.spmv(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![4.0, 7.0, 12.0]);
        assert_eq!(
            yard.true_residual(&[1.0, 2.0, 3.0], &[4.0, 7.0, 12.0], &mut y),
            0.0
        );
    }

    #[test]
    fn checker_flags_one_corrupted_element() {
        let want: Vec<f64> = (1..=1000).map(f64::from).collect();
        let mut got = want.clone();
        assert!(rel_l2_diff(&got, &want) <= 1e-12);
        got[500] *= 1.0 + 1e-6;
        assert!(rel_l2_diff(&got, &want) > 1e-12);
        got[500] = f64::NAN;
        assert!(rel_l2_diff(&got, &want).is_nan());
    }

    #[test]
    fn proc_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(kib_field(status, "VmHWM:"), Some(2048 * 1024));
        assert_eq!(kib_field(status, "VmSwap:"), None);
        assert_eq!(steal_frac(Some((10, 1000)), Some((30, 1200))), Some(0.1));
        assert_eq!(steal_frac(None, Some((30, 1200))), None);
    }

    #[test]
    fn triad_reports_its_array_size() {
        // LLC of 1 MiB wants 4 MiB arrays; 6 MiB available allows 512 KiB.
        let t = triad(2, 1 << 20, 6 << 20);
        assert_eq!(t.array_bytes, 512 << 10);
        assert!(t.gbs > 0.0);
        assert_eq!(triad(1, 1 << 30, 1 << 40).array_bytes, TRIAD_CAP_BYTES);
    }
}
