//! Golden outputs of the COO → SSS conversion.
//!
//! `SssMatrix::{from_coo_kind, try_from_coo_kind}` promise a bit-exact
//! result: the row-major order of the stored lower triangle, duplicates of
//! one coordinate summed in insertion order, the lower value stored and the
//! upper one paired under a tolerance, and — on failure — one specific
//! [`SparseError`] (variant, coordinates, precedence). The unit tests hold
//! single cases; this file pins the whole surface (the `kernel_golden`
//! scheme): for a seeded corpus it commits an FNV-1a hash of `rowptr`,
//! `colind`, the bit patterns of `values` / `dvalues` / `upper_values` and
//! `fingerprint()`, or of the error's `Debug` string, for both constructors.
//!
//! The corpus is the four benchmark analogs at small scale (plus the skew
//! and structural suite entries), and [`RANDOM_MATRICES`] small random
//! matrices per kind, each presented canonical / with rows shuffled inside /
//! fully shuffled / with entries split into duplicates (adjacent, and
//! scattered), at `tol` 0 and 0.3, clean and under four corruptions.
//! Non-finite values go to the validated constructor only: what the
//! unvalidated one does with a NaN is pinned by `tests/fuzz_try_from_coo.rs`.
//!
//! The table was generated before the conversion was rewritten and must not
//! move, in debug or release. A mismatch prints the whole table in source
//! form.

use symspmv::sparse::suite::{self, SuiteSpec};
use symspmv::sparse::symmetry::SymmetryKind;
use symspmv::sparse::{CooMatrix, SparseError, SssMatrix};

const RANDOM_MATRICES: usize = 300;
const TOLS: [f64; 2] = [0.0, 0.3];

/// `[from_coo_kind hash, try_from_coo_kind hash, from Ok count, try Ok count]`
/// folded over every matrix of the row.
type Row = [u64; 4];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn idx(&mut self, values: &[u32]) {
        self.u64(values.len() as u64);
        for v in values {
            self.bytes(&v.to_le_bytes());
        }
    }

    fn val(&mut self, values: &[f64]) {
        self.u64(values.len() as u64);
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    /// Folds one conversion result in; returns whether it was `Ok`.
    fn result(&mut self, res: &Result<SssMatrix, SparseError>) -> bool {
        match res {
            Ok(s) => {
                self.bytes(s.kind().tag().as_bytes());
                self.idx(&[s.n()]);
                self.idx(s.rowptr());
                self.idx(s.colind());
                self.val(s.values());
                self.val(s.dvalues());
                self.val(s.upper_values());
                self.u64(s.fingerprint());
            }
            Err(e) => self.bytes(format!("{e:?}").as_bytes()),
        }
        res.is_ok()
    }
}

/// xorshift64* — deterministic, independent of the library's generators.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    /// Hundredths in `[-10, 10)`: not dyadic, so sums round; now and then
    /// a signed zero.
    fn val(&mut self) -> f64 {
        match self.below(40) {
            0 => 0.0,
            1 => -0.0,
            _ => (self.below(2000) as f64 - 1000.0) / 100.0,
        }
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

type Triplet = (u32, u32, f64);

/// A random matrix of `kind` as row-major triplets without duplicates. Some
/// mirrors are off by up to 0.2 (inside `tol = 0.3`, outside `tol = 0`).
fn random_matrix(rng: &mut Rng, kind: SymmetryKind) -> (u32, Vec<Triplet>) {
    let n = 1 + rng.below(24) as u32;
    let density = [10, 30, 60][rng.below(3)];
    let jitter = rng.chance(30);
    let mut t = Vec::new();
    for r in 0..n {
        for c in 0..r {
            if !rng.chance(density) {
                continue;
            }
            let v = rng.val();
            let off = if jitter && rng.chance(25) {
                (rng.below(41) as f64 - 20.0) / 100.0
            } else {
                0.0
            };
            let u = match kind {
                SymmetryKind::Symmetric => v + off,
                SymmetryKind::Skew => -v + off,
                SymmetryKind::Structural => rng.val(),
            };
            t.push((r, c, v));
            t.push((c, r, u));
        }
        if rng.chance(70) {
            let d = match kind {
                SymmetryKind::Skew if jitter && rng.chance(30) => rng.below(26) as f64 / 100.0,
                SymmetryKind::Skew => [0.0, -0.0][rng.below(2)],
                _ => rng.val(),
            };
            t.push((r, r, d));
        }
    }
    t.sort_by_key(|&(r, c, _)| (r, c));
    (n, t)
}

#[derive(Debug, Clone, Copy)]
enum Corruption {
    Clean,
    NonSquare,
    NonFinite,
    MissingMirror,
    WrongMirror,
}

const CORRUPTIONS: [Corruption; 5] = [
    Corruption::Clean,
    Corruption::NonSquare,
    Corruption::NonFinite,
    Corruption::MissingMirror,
    Corruption::WrongMirror,
];

/// Applies `how` to canonical triplets; returns the matrix shape.
fn corrupt(rng: &mut Rng, how: Corruption, n: u32, t: &mut Vec<Triplet>) -> (u32, u32) {
    let off_diag: Vec<usize> = (0..t.len()).filter(|&i| t[i].0 != t[i].1).collect();
    match how {
        Corruption::Clean => {}
        Corruption::NonSquare => {
            return if rng.chance(50) {
                (n, n + 1)
            } else {
                (n + 1, n)
            }
        }
        Corruption::NonFinite if !t.is_empty() => {
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)];
            let hits = 1 + rng.below(2);
            for _ in 0..hits {
                let i = rng.below(t.len());
                t[i].2 = bad;
            }
        }
        Corruption::MissingMirror if !off_diag.is_empty() => {
            t.remove(off_diag[rng.below(off_diag.len())]);
        }
        Corruption::WrongMirror if !off_diag.is_empty() => {
            t[off_diag[rng.below(off_diag.len())]].2 += 0.5 + rng.below(300) as f64 / 100.0;
        }
        _ => {}
    }
    (n, n)
}

#[derive(Debug, Clone, Copy)]
enum Form {
    Canonical,
    RowsShuffledInside,
    Shuffled,
    Duplicated,
    DuplicatedShuffled,
}

const FORMS: [Form; 5] = [
    Form::Canonical,
    Form::RowsShuffledInside,
    Form::Shuffled,
    Form::Duplicated,
    Form::DuplicatedShuffled,
];

/// Presents canonical triplets in `form`.
fn present(rng: &mut Rng, form: Form, shape: (u32, u32), canonical: &[Triplet]) -> CooMatrix {
    let mut t = canonical.to_vec();
    match form {
        Form::Canonical => {}
        Form::RowsShuffledInside => {
            // Rows stay in order; about half of them lose their column order.
            let mut lo = 0;
            while lo < t.len() {
                let hi = lo + t[lo..].iter().take_while(|e| e.0 == t[lo].0).count();
                if rng.chance(50) {
                    rng.shuffle(&mut t[lo..hi]);
                }
                lo = hi;
            }
        }
        Form::Shuffled => rng.shuffle(&mut t),
        Form::Duplicated | Form::DuplicatedShuffled => {
            // Split about a third of the entries into two or three addends
            // whose sum depends on the order of addition. The choice is a
            // function of the value, so mirror images split alike: left
            // adjacent they sum alike, scattered they may not.
            let mut split = Vec::with_capacity(2 * t.len());
            for &(r, c, v) in &t {
                let pick = v.abs().to_bits() >> 4;
                let (a, b) = (v * 0.1, v * 0.7);
                match pick % 6 {
                    0 => split.extend([(r, c, a), (r, c, v - a)]),
                    1 => split.extend([(r, c, a), (r, c, b), (r, c, v - a - b)]),
                    _ => split.push((r, c, v)),
                }
            }
            t = split;
            if matches!(form, Form::DuplicatedShuffled) {
                rng.shuffle(&mut t);
            }
        }
    }
    let mut coo = CooMatrix::with_capacity(shape.0, shape.1, t.len());
    for (r, c, v) in t {
        coo.push(r, c, v);
    }
    coo
}

/// Runs both constructors on `coo` and folds the results into `row`'s
/// hashers. `validated_only` keeps non-finite input off `from_coo_kind`.
fn convert_into(
    row: &mut (Fnv, Fnv, Row),
    coo: &CooMatrix,
    kind: SymmetryKind,
    tol: f64,
    validated_only: bool,
) {
    if !validated_only {
        row.2[2] += u64::from(row.0.result(&SssMatrix::from_coo_kind(coo, kind, tol)));
    }
    row.2[3] += u64::from(row.1.result(&SssMatrix::try_from_coo_kind(coo, kind, tol)));
}

fn finish(name: String, row: (Fnv, Fnv, Row)) -> (String, Row) {
    (name, [row.0 .0, row.1 .0, row.2[2], row.2[3]])
}

fn random_rows(table: &mut Vec<(String, Row)>) {
    for kind in SymmetryKind::ALL {
        for how in CORRUPTIONS {
            for form in FORMS {
                for tol in TOLS {
                    let mut rng = Rng(0xC0_47E5_7000 ^ ((kind as u64) << 8));
                    let mut row = (Fnv::new(), Fnv::new(), [0; 4]);
                    for _ in 0..RANDOM_MATRICES {
                        let (n, mut t) = random_matrix(&mut rng, kind);
                        let shape = corrupt(&mut rng, how, n, &mut t);
                        // Its own stream, so every form sees the same matrices.
                        let mut form_rng = Rng(rng.next() | 1);
                        let coo = present(&mut form_rng, form, shape, &t);
                        let validated_only = matches!(how, Corruption::NonFinite);
                        convert_into(&mut row, &coo, kind, tol, validated_only);
                    }
                    let name = format!("random {} {how:?} {form:?} tol={tol}", kind.tag());
                    table.push(finish(name, row));
                }
            }
        }
    }
}

/// splitmix64 finalizer, as `benchmark/src/workload.rs` mixes a run seed
/// into the spec's.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The benchmark's matrices (same generator, same seed mixing) at a scale
/// that keeps debug runs short, plus the two kind-extension suite entries.
fn analog_rows(table: &mut Vec<(String, Row)>) {
    const ANALOGS: [(&str, f64, u64); 6] = [
        ("hood", 0.005, 1),
        ("hood", 0.005, 2),
        ("G3_circuit", 0.001, 1),
        ("thermal2", 0.001, 1),
        ("convection_skew", 0.003, 1),
        ("circuit_structural", 0.002, 1),
    ];
    for (matrix, scale, seed) in ANALOGS {
        let spec = suite::spec_by_name(matrix).expect("a suite matrix");
        let spec = SuiteSpec {
            seed: spec.seed ^ mix(seed),
            ..*spec
        };
        let generated = suite::generate(&spec, scale).coo;
        let mut t: Vec<Triplet> = generated.iter().collect();
        let shape = (generated.nrows(), generated.ncols());
        let mut rng = Rng(0xA7A1_0600 + seed);
        for form in [
            Form::Canonical,
            Form::Shuffled,
            Form::Duplicated,
            Form::DuplicatedShuffled,
        ] {
            let coo = present(&mut rng, form, shape, &t);
            let mut row = (Fnv::new(), Fnv::new(), [0; 4]);
            convert_into(&mut row, &coo, spec.kind, 0.0, false);
            let name = format!("{matrix} scale={scale} seed={seed} {form:?}");
            table.push(finish(name, row));
        }
        // One missing mirror deep in the matrix: the error path at size.
        let mid = t.len() / 2;
        let victim = (mid..t.len()).find(|&i| t[i].0 != t[i].1).unwrap_or(mid);
        t.remove(victim);
        let coo = present(&mut rng, Form::Canonical, shape, &t);
        let mut row = (Fnv::new(), Fnv::new(), [0; 4]);
        convert_into(&mut row, &coo, spec.kind, 0.0, false);
        table.push(finish(
            format!("{matrix} scale={scale} seed={seed} MissingMirror"),
            row,
        ));
    }
}

fn computed() -> Vec<(String, Row)> {
    let mut table = Vec::new();
    analog_rows(&mut table);
    random_rows(&mut table);
    table
}

#[test]
fn conversion_outputs_match_the_committed_hashes() {
    let got = computed();
    let moved: Vec<&str> = got
        .iter()
        .zip(GOLDEN)
        .filter(|(g, w)| g.0 != w.0 || g.1 != w.1)
        .map(|(g, _)| g.0.as_str())
        .collect();
    if got.len() != GOLDEN.len() || !moved.is_empty() {
        let mut src = String::new();
        for (name, row) in &got {
            src.push_str(&format!(
                "    ({name:?}, [{:#018x}, {:#018x}, {}, {}]),\n",
                row[0], row[1], row[2], row[3]
            ));
        }
        panic!("conversion outputs moved ({moved:?}); the computed table is:\n{src}");
    }
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Row)] = &[
    ("hood scale=0.005 seed=1 Canonical", [0xb54488e2cc021f14, 0xb54488e2cc021f14, 1, 1]),
    ("hood scale=0.005 seed=1 Shuffled", [0xb54488e2cc021f14, 0xb54488e2cc021f14, 1, 1]),
    ("hood scale=0.005 seed=1 Duplicated", [0xa9fc1ee04eac88ef, 0xa9fc1ee04eac88ef, 1, 1]),
    ("hood scale=0.005 seed=1 DuplicatedShuffled", [0x4b98c4907210bc67, 0x4b98c4907210bc67, 0, 0]),
    ("hood scale=0.005 seed=1 MissingMirror", [0x3afe8151e93689f7, 0x3afe8151e93689f7, 0, 0]),
    ("hood scale=0.005 seed=2 Canonical", [0x22cf761d11af923e, 0x22cf761d11af923e, 1, 1]),
    ("hood scale=0.005 seed=2 Shuffled", [0x22cf761d11af923e, 0x22cf761d11af923e, 1, 1]),
    ("hood scale=0.005 seed=2 Duplicated", [0x043295350aacda00, 0x043295350aacda00, 1, 1]),
    ("hood scale=0.005 seed=2 DuplicatedShuffled", [0x07a245611f8846b3, 0x07a245611f8846b3, 0, 0]),
    ("hood scale=0.005 seed=2 MissingMirror", [0x7024c650affb875c, 0x7024c650affb875c, 0, 0]),
    ("G3_circuit scale=0.001 seed=1 Canonical", [0xae770d75eb80f724, 0xae770d75eb80f724, 1, 1]),
    ("G3_circuit scale=0.001 seed=1 Shuffled", [0xae770d75eb80f724, 0xae770d75eb80f724, 1, 1]),
    ("G3_circuit scale=0.001 seed=1 Duplicated", [0xfba734864d109fe7, 0xfba734864d109fe7, 1, 1]),
    ("G3_circuit scale=0.001 seed=1 DuplicatedShuffled", [0x66f2dbaddd6620e7, 0x66f2dbaddd6620e7, 0, 0]),
    ("G3_circuit scale=0.001 seed=1 MissingMirror", [0xc629bc8c573e337b, 0xc629bc8c573e337b, 0, 0]),
    ("thermal2 scale=0.001 seed=1 Canonical", [0x0285efd689dcb343, 0x0285efd689dcb343, 1, 1]),
    ("thermal2 scale=0.001 seed=1 Shuffled", [0x0285efd689dcb343, 0x0285efd689dcb343, 1, 1]),
    ("thermal2 scale=0.001 seed=1 Duplicated", [0xaa475a3072b81047, 0xaa475a3072b81047, 1, 1]),
    ("thermal2 scale=0.001 seed=1 DuplicatedShuffled", [0xf3b93824e7ea19c1, 0xf3b93824e7ea19c1, 0, 0]),
    ("thermal2 scale=0.001 seed=1 MissingMirror", [0x47db823abc6c517e, 0x47db823abc6c517e, 0, 0]),
    ("convection_skew scale=0.003 seed=1 Canonical", [0x526b525771ad599f, 0x526b525771ad599f, 1, 1]),
    ("convection_skew scale=0.003 seed=1 Shuffled", [0x526b525771ad599f, 0x526b525771ad599f, 1, 1]),
    ("convection_skew scale=0.003 seed=1 Duplicated", [0x9a191b40b1a81d4f, 0x9a191b40b1a81d4f, 1, 1]),
    ("convection_skew scale=0.003 seed=1 DuplicatedShuffled", [0x4aa482baaea6bc9a, 0x4aa482baaea6bc9a, 0, 0]),
    ("convection_skew scale=0.003 seed=1 MissingMirror", [0x006c71228e5a965e, 0x006c71228e5a965e, 0, 0]),
    ("circuit_structural scale=0.002 seed=1 Canonical", [0x73e4eaef7ec92603, 0x73e4eaef7ec92603, 1, 1]),
    ("circuit_structural scale=0.002 seed=1 Shuffled", [0x73e4eaef7ec92603, 0x73e4eaef7ec92603, 1, 1]),
    ("circuit_structural scale=0.002 seed=1 Duplicated", [0xe8ceef8c267f392e, 0xe8ceef8c267f392e, 1, 1]),
    ("circuit_structural scale=0.002 seed=1 DuplicatedShuffled", [0x9419fd2d29087306, 0x9419fd2d29087306, 1, 1]),
    ("circuit_structural scale=0.002 seed=1 MissingMirror", [0x6233f2f91e53bf67, 0x6233f2f91e53bf67, 0, 0]),
    ("random symmetric Clean Canonical tol=0", [0xd19e9f4304bd01d5, 0xd19e9f4304bd01d5, 226, 226]),
    ("random symmetric Clean Canonical tol=0.3", [0x24dbe34324761aaf, 0x24dbe34324761aaf, 300, 300]),
    ("random symmetric Clean RowsShuffledInside tol=0", [0xd19e9f4304bd01d5, 0xd19e9f4304bd01d5, 226, 226]),
    ("random symmetric Clean RowsShuffledInside tol=0.3", [0x24dbe34324761aaf, 0x24dbe34324761aaf, 300, 300]),
    ("random symmetric Clean Shuffled tol=0", [0xd19e9f4304bd01d5, 0xd19e9f4304bd01d5, 226, 226]),
    ("random symmetric Clean Shuffled tol=0.3", [0x24dbe34324761aaf, 0x24dbe34324761aaf, 300, 300]),
    ("random symmetric Clean Duplicated tol=0", [0xbc16bc5d8bc18cde, 0xbc16bc5d8bc18cde, 226, 226]),
    ("random symmetric Clean Duplicated tol=0.3", [0xb79413566c516085, 0xb79413566c516085, 300, 300]),
    ("random symmetric Clean DuplicatedShuffled tol=0", [0xef26350328a5b99a, 0xef26350328a5b99a, 168, 168]),
    ("random symmetric Clean DuplicatedShuffled tol=0.3", [0x2446f5c2eab52e56, 0x2446f5c2eab52e56, 300, 300]),
    ("random symmetric NonSquare Canonical tol=0", [0x5665108a40a7bbd6, 0x5665108a40a7bbd6, 0, 0]),
    ("random symmetric NonSquare Canonical tol=0.3", [0x5665108a40a7bbd6, 0x5665108a40a7bbd6, 0, 0]),
    ("random symmetric NonSquare RowsShuffledInside tol=0", [0x5665108a40a7bbd6, 0x5665108a40a7bbd6, 0, 0]),
    ("random symmetric NonSquare RowsShuffledInside tol=0.3", [0x5665108a40a7bbd6, 0x5665108a40a7bbd6, 0, 0]),
    ("random symmetric NonSquare Shuffled tol=0", [0x5665108a40a7bbd6, 0x5665108a40a7bbd6, 0, 0]),
    ("random symmetric NonSquare Shuffled tol=0.3", [0x5665108a40a7bbd6, 0x5665108a40a7bbd6, 0, 0]),
    ("random symmetric NonSquare Duplicated tol=0", [0x5665108a40a7bbd6, 0x5665108a40a7bbd6, 0, 0]),
    ("random symmetric NonSquare Duplicated tol=0.3", [0x5665108a40a7bbd6, 0x5665108a40a7bbd6, 0, 0]),
    ("random symmetric NonSquare DuplicatedShuffled tol=0", [0x5665108a40a7bbd6, 0x5665108a40a7bbd6, 0, 0]),
    ("random symmetric NonSquare DuplicatedShuffled tol=0.3", [0x5665108a40a7bbd6, 0x5665108a40a7bbd6, 0, 0]),
    ("random symmetric NonFinite Canonical tol=0", [0xcbf29ce484222325, 0x5f33fde098c42963, 0, 7]),
    ("random symmetric NonFinite Canonical tol=0.3", [0xcbf29ce484222325, 0x5f33fde098c42963, 0, 7]),
    ("random symmetric NonFinite RowsShuffledInside tol=0", [0xcbf29ce484222325, 0x5f33fde098c42963, 0, 7]),
    ("random symmetric NonFinite RowsShuffledInside tol=0.3", [0xcbf29ce484222325, 0x5f33fde098c42963, 0, 7]),
    ("random symmetric NonFinite Shuffled tol=0", [0xcbf29ce484222325, 0x5f33fde098c42963, 0, 7]),
    ("random symmetric NonFinite Shuffled tol=0.3", [0xcbf29ce484222325, 0x5f33fde098c42963, 0, 7]),
    ("random symmetric NonFinite Duplicated tol=0", [0xcbf29ce484222325, 0x5f33fde098c42963, 0, 7]),
    ("random symmetric NonFinite Duplicated tol=0.3", [0xcbf29ce484222325, 0x5f33fde098c42963, 0, 7]),
    ("random symmetric NonFinite DuplicatedShuffled tol=0", [0xcbf29ce484222325, 0x5f33fde098c42963, 0, 7]),
    ("random symmetric NonFinite DuplicatedShuffled tol=0.3", [0xcbf29ce484222325, 0x5f33fde098c42963, 0, 7]),
    ("random symmetric MissingMirror Canonical tol=0", [0x65a3d2f22033f775, 0x65a3d2f22033f775, 34, 34]),
    ("random symmetric MissingMirror Canonical tol=0.3", [0xafee8846df5a2937, 0xafee8846df5a2937, 34, 34]),
    ("random symmetric MissingMirror RowsShuffledInside tol=0", [0x65a3d2f22033f775, 0x65a3d2f22033f775, 34, 34]),
    ("random symmetric MissingMirror RowsShuffledInside tol=0.3", [0xafee8846df5a2937, 0xafee8846df5a2937, 34, 34]),
    ("random symmetric MissingMirror Shuffled tol=0", [0x65a3d2f22033f775, 0x65a3d2f22033f775, 34, 34]),
    ("random symmetric MissingMirror Shuffled tol=0.3", [0xafee8846df5a2937, 0xafee8846df5a2937, 34, 34]),
    ("random symmetric MissingMirror Duplicated tol=0", [0xd0ab0d82f5fbbe96, 0xd0ab0d82f5fbbe96, 34, 34]),
    ("random symmetric MissingMirror Duplicated tol=0.3", [0xdd34ec78e60bd4f6, 0xdd34ec78e60bd4f6, 34, 34]),
    ("random symmetric MissingMirror DuplicatedShuffled tol=0", [0x1ea04f3e2bc10961, 0x1ea04f3e2bc10961, 34, 34]),
    ("random symmetric MissingMirror DuplicatedShuffled tol=0.3", [0xdd34ec78e60bd4f6, 0xdd34ec78e60bd4f6, 34, 34]),
    ("random symmetric WrongMirror Canonical tol=0", [0xa9789d69842ae81d, 0xa9789d69842ae81d, 38, 38]),
    ("random symmetric WrongMirror Canonical tol=0.3", [0x6416fa4ca8445b07, 0x6416fa4ca8445b07, 38, 38]),
    ("random symmetric WrongMirror RowsShuffledInside tol=0", [0xa9789d69842ae81d, 0xa9789d69842ae81d, 38, 38]),
    ("random symmetric WrongMirror RowsShuffledInside tol=0.3", [0x6416fa4ca8445b07, 0x6416fa4ca8445b07, 38, 38]),
    ("random symmetric WrongMirror Shuffled tol=0", [0xa9789d69842ae81d, 0xa9789d69842ae81d, 38, 38]),
    ("random symmetric WrongMirror Shuffled tol=0.3", [0x6416fa4ca8445b07, 0x6416fa4ca8445b07, 38, 38]),
    ("random symmetric WrongMirror Duplicated tol=0", [0xc1d6d096e53f753c, 0xc1d6d096e53f753c, 38, 38]),
    ("random symmetric WrongMirror Duplicated tol=0.3", [0x13fe593e2ad16f86, 0x13fe593e2ad16f86, 38, 38]),
    ("random symmetric WrongMirror DuplicatedShuffled tol=0", [0xe1148a979083fe1e, 0xe1148a979083fe1e, 38, 38]),
    ("random symmetric WrongMirror DuplicatedShuffled tol=0.3", [0x3433332c49aa38d5, 0x3433332c49aa38d5, 38, 38]),
    ("random skew Clean Canonical tol=0", [0x19fed3f0002f8fcd, 0x19fed3f0002f8fcd, 231, 231]),
    ("random skew Clean Canonical tol=0.3", [0xa61ca446438e344f, 0xa61ca446438e344f, 300, 300]),
    ("random skew Clean RowsShuffledInside tol=0", [0x19fed3f0002f8fcd, 0x19fed3f0002f8fcd, 231, 231]),
    ("random skew Clean RowsShuffledInside tol=0.3", [0xa61ca446438e344f, 0xa61ca446438e344f, 300, 300]),
    ("random skew Clean Shuffled tol=0", [0x19fed3f0002f8fcd, 0x19fed3f0002f8fcd, 231, 231]),
    ("random skew Clean Shuffled tol=0.3", [0xa61ca446438e344f, 0xa61ca446438e344f, 300, 300]),
    ("random skew Clean Duplicated tol=0", [0x23cf2cc1dbc79528, 0x23cf2cc1dbc79528, 231, 231]),
    ("random skew Clean Duplicated tol=0.3", [0x21b55ec0953ee8cc, 0x21b55ec0953ee8cc, 300, 300]),
    ("random skew Clean DuplicatedShuffled tol=0", [0xcacea827ebd7703b, 0xcacea827ebd7703b, 170, 170]),
    ("random skew Clean DuplicatedShuffled tol=0.3", [0x85f3a8b23a9910ea, 0x85f3a8b23a9910ea, 300, 300]),
    ("random skew NonSquare Canonical tol=0", [0x96febc1631e102b5, 0x96febc1631e102b5, 0, 0]),
    ("random skew NonSquare Canonical tol=0.3", [0x96febc1631e102b5, 0x96febc1631e102b5, 0, 0]),
    ("random skew NonSquare RowsShuffledInside tol=0", [0x96febc1631e102b5, 0x96febc1631e102b5, 0, 0]),
    ("random skew NonSquare RowsShuffledInside tol=0.3", [0x96febc1631e102b5, 0x96febc1631e102b5, 0, 0]),
    ("random skew NonSquare Shuffled tol=0", [0x96febc1631e102b5, 0x96febc1631e102b5, 0, 0]),
    ("random skew NonSquare Shuffled tol=0.3", [0x96febc1631e102b5, 0x96febc1631e102b5, 0, 0]),
    ("random skew NonSquare Duplicated tol=0", [0x96febc1631e102b5, 0x96febc1631e102b5, 0, 0]),
    ("random skew NonSquare Duplicated tol=0.3", [0x96febc1631e102b5, 0x96febc1631e102b5, 0, 0]),
    ("random skew NonSquare DuplicatedShuffled tol=0", [0x96febc1631e102b5, 0x96febc1631e102b5, 0, 0]),
    ("random skew NonSquare DuplicatedShuffled tol=0.3", [0x96febc1631e102b5, 0x96febc1631e102b5, 0, 0]),
    ("random skew NonFinite Canonical tol=0", [0xcbf29ce484222325, 0xee21bec704310376, 0, 3]),
    ("random skew NonFinite Canonical tol=0.3", [0xcbf29ce484222325, 0xee21bec704310376, 0, 3]),
    ("random skew NonFinite RowsShuffledInside tol=0", [0xcbf29ce484222325, 0xee21bec704310376, 0, 3]),
    ("random skew NonFinite RowsShuffledInside tol=0.3", [0xcbf29ce484222325, 0xee21bec704310376, 0, 3]),
    ("random skew NonFinite Shuffled tol=0", [0xcbf29ce484222325, 0xee21bec704310376, 0, 3]),
    ("random skew NonFinite Shuffled tol=0.3", [0xcbf29ce484222325, 0xee21bec704310376, 0, 3]),
    ("random skew NonFinite Duplicated tol=0", [0xcbf29ce484222325, 0xee21bec704310376, 0, 3]),
    ("random skew NonFinite Duplicated tol=0.3", [0xcbf29ce484222325, 0xee21bec704310376, 0, 3]),
    ("random skew NonFinite DuplicatedShuffled tol=0", [0xcbf29ce484222325, 0xee21bec704310376, 0, 3]),
    ("random skew NonFinite DuplicatedShuffled tol=0.3", [0xcbf29ce484222325, 0xee21bec704310376, 0, 3]),
    ("random skew MissingMirror Canonical tol=0", [0x5651971b25d4a305, 0x5651971b25d4a305, 23, 23]),
    ("random skew MissingMirror Canonical tol=0.3", [0x671a142779a8c329, 0x671a142779a8c329, 25, 25]),
    ("random skew MissingMirror RowsShuffledInside tol=0", [0x5651971b25d4a305, 0x5651971b25d4a305, 23, 23]),
    ("random skew MissingMirror RowsShuffledInside tol=0.3", [0x671a142779a8c329, 0x671a142779a8c329, 25, 25]),
    ("random skew MissingMirror Shuffled tol=0", [0x5651971b25d4a305, 0x5651971b25d4a305, 23, 23]),
    ("random skew MissingMirror Shuffled tol=0.3", [0x671a142779a8c329, 0x671a142779a8c329, 25, 25]),
    ("random skew MissingMirror Duplicated tol=0", [0x70245d354fed95cf, 0x70245d354fed95cf, 23, 23]),
    ("random skew MissingMirror Duplicated tol=0.3", [0x671a142779a8c329, 0x671a142779a8c329, 25, 25]),
    ("random skew MissingMirror DuplicatedShuffled tol=0", [0x4c302dc8f4072f84, 0x4c302dc8f4072f84, 23, 23]),
    ("random skew MissingMirror DuplicatedShuffled tol=0.3", [0x671a142779a8c329, 0x671a142779a8c329, 25, 25]),
    ("random skew WrongMirror Canonical tol=0", [0x0929974df51e7d1c, 0x0929974df51e7d1c, 21, 21]),
    ("random skew WrongMirror Canonical tol=0.3", [0x060a3c6b245cfa6e, 0x060a3c6b245cfa6e, 27, 27]),
    ("random skew WrongMirror RowsShuffledInside tol=0", [0x0929974df51e7d1c, 0x0929974df51e7d1c, 21, 21]),
    ("random skew WrongMirror RowsShuffledInside tol=0.3", [0x060a3c6b245cfa6e, 0x060a3c6b245cfa6e, 27, 27]),
    ("random skew WrongMirror Shuffled tol=0", [0x0929974df51e7d1c, 0x0929974df51e7d1c, 21, 21]),
    ("random skew WrongMirror Shuffled tol=0.3", [0x060a3c6b245cfa6e, 0x060a3c6b245cfa6e, 27, 27]),
    ("random skew WrongMirror Duplicated tol=0", [0x1fcb33933da54942, 0x1fcb33933da54942, 21, 21]),
    ("random skew WrongMirror Duplicated tol=0.3", [0x060a3c6b245cfa6e, 0x060a3c6b245cfa6e, 27, 27]),
    ("random skew WrongMirror DuplicatedShuffled tol=0", [0x02b72ecb73d69651, 0x02b72ecb73d69651, 21, 21]),
    ("random skew WrongMirror DuplicatedShuffled tol=0.3", [0x060a3c6b245cfa6e, 0x060a3c6b245cfa6e, 27, 27]),
    ("random structural Clean Canonical tol=0", [0x27266bedb9d007ae, 0x27266bedb9d007ae, 300, 300]),
    ("random structural Clean Canonical tol=0.3", [0x27266bedb9d007ae, 0x27266bedb9d007ae, 300, 300]),
    ("random structural Clean RowsShuffledInside tol=0", [0x27266bedb9d007ae, 0x27266bedb9d007ae, 300, 300]),
    ("random structural Clean RowsShuffledInside tol=0.3", [0x27266bedb9d007ae, 0x27266bedb9d007ae, 300, 300]),
    ("random structural Clean Shuffled tol=0", [0x27266bedb9d007ae, 0x27266bedb9d007ae, 300, 300]),
    ("random structural Clean Shuffled tol=0.3", [0x27266bedb9d007ae, 0x27266bedb9d007ae, 300, 300]),
    ("random structural Clean Duplicated tol=0", [0x7a78671d51628216, 0x7a78671d51628216, 300, 300]),
    ("random structural Clean Duplicated tol=0.3", [0x7a78671d51628216, 0x7a78671d51628216, 300, 300]),
    ("random structural Clean DuplicatedShuffled tol=0", [0x20e390bf72b44582, 0x20e390bf72b44582, 300, 300]),
    ("random structural Clean DuplicatedShuffled tol=0.3", [0x20e390bf72b44582, 0x20e390bf72b44582, 300, 300]),
    ("random structural NonSquare Canonical tol=0", [0x6853e4e92d2b1ece, 0x6853e4e92d2b1ece, 0, 0]),
    ("random structural NonSquare Canonical tol=0.3", [0x6853e4e92d2b1ece, 0x6853e4e92d2b1ece, 0, 0]),
    ("random structural NonSquare RowsShuffledInside tol=0", [0x6853e4e92d2b1ece, 0x6853e4e92d2b1ece, 0, 0]),
    ("random structural NonSquare RowsShuffledInside tol=0.3", [0x6853e4e92d2b1ece, 0x6853e4e92d2b1ece, 0, 0]),
    ("random structural NonSquare Shuffled tol=0", [0x6853e4e92d2b1ece, 0x6853e4e92d2b1ece, 0, 0]),
    ("random structural NonSquare Shuffled tol=0.3", [0x6853e4e92d2b1ece, 0x6853e4e92d2b1ece, 0, 0]),
    ("random structural NonSquare Duplicated tol=0", [0x6853e4e92d2b1ece, 0x6853e4e92d2b1ece, 0, 0]),
    ("random structural NonSquare Duplicated tol=0.3", [0x6853e4e92d2b1ece, 0x6853e4e92d2b1ece, 0, 0]),
    ("random structural NonSquare DuplicatedShuffled tol=0", [0x6853e4e92d2b1ece, 0x6853e4e92d2b1ece, 0, 0]),
    ("random structural NonSquare DuplicatedShuffled tol=0.3", [0x6853e4e92d2b1ece, 0x6853e4e92d2b1ece, 0, 0]),
    ("random structural NonFinite Canonical tol=0", [0xcbf29ce484222325, 0x3473125eed2e42c0, 0, 3]),
    ("random structural NonFinite Canonical tol=0.3", [0xcbf29ce484222325, 0x3473125eed2e42c0, 0, 3]),
    ("random structural NonFinite RowsShuffledInside tol=0", [0xcbf29ce484222325, 0x3473125eed2e42c0, 0, 3]),
    ("random structural NonFinite RowsShuffledInside tol=0.3", [0xcbf29ce484222325, 0x3473125eed2e42c0, 0, 3]),
    ("random structural NonFinite Shuffled tol=0", [0xcbf29ce484222325, 0x3473125eed2e42c0, 0, 3]),
    ("random structural NonFinite Shuffled tol=0.3", [0xcbf29ce484222325, 0x3473125eed2e42c0, 0, 3]),
    ("random structural NonFinite Duplicated tol=0", [0xcbf29ce484222325, 0x3473125eed2e42c0, 0, 3]),
    ("random structural NonFinite Duplicated tol=0.3", [0xcbf29ce484222325, 0x3473125eed2e42c0, 0, 3]),
    ("random structural NonFinite DuplicatedShuffled tol=0", [0xcbf29ce484222325, 0x3473125eed2e42c0, 0, 3]),
    ("random structural NonFinite DuplicatedShuffled tol=0.3", [0xcbf29ce484222325, 0x3473125eed2e42c0, 0, 3]),
    ("random structural MissingMirror Canonical tol=0", [0x9350f0e1fd500b9c, 0x9350f0e1fd500b9c, 31, 31]),
    ("random structural MissingMirror Canonical tol=0.3", [0x9350f0e1fd500b9c, 0x9350f0e1fd500b9c, 31, 31]),
    ("random structural MissingMirror RowsShuffledInside tol=0", [0x9350f0e1fd500b9c, 0x9350f0e1fd500b9c, 31, 31]),
    ("random structural MissingMirror RowsShuffledInside tol=0.3", [0x9350f0e1fd500b9c, 0x9350f0e1fd500b9c, 31, 31]),
    ("random structural MissingMirror Shuffled tol=0", [0x9350f0e1fd500b9c, 0x9350f0e1fd500b9c, 31, 31]),
    ("random structural MissingMirror Shuffled tol=0.3", [0x9350f0e1fd500b9c, 0x9350f0e1fd500b9c, 31, 31]),
    ("random structural MissingMirror Duplicated tol=0", [0x9350f0e1fd500b9c, 0x9350f0e1fd500b9c, 31, 31]),
    ("random structural MissingMirror Duplicated tol=0.3", [0x9350f0e1fd500b9c, 0x9350f0e1fd500b9c, 31, 31]),
    ("random structural MissingMirror DuplicatedShuffled tol=0", [0x58d486b0e01ef4c9, 0x58d486b0e01ef4c9, 31, 31]),
    ("random structural MissingMirror DuplicatedShuffled tol=0.3", [0x58d486b0e01ef4c9, 0x58d486b0e01ef4c9, 31, 31]),
    ("random structural WrongMirror Canonical tol=0", [0xbf7007c9f9fee988, 0xbf7007c9f9fee988, 300, 300]),
    ("random structural WrongMirror Canonical tol=0.3", [0xbf7007c9f9fee988, 0xbf7007c9f9fee988, 300, 300]),
    ("random structural WrongMirror RowsShuffledInside tol=0", [0xbf7007c9f9fee988, 0xbf7007c9f9fee988, 300, 300]),
    ("random structural WrongMirror RowsShuffledInside tol=0.3", [0xbf7007c9f9fee988, 0xbf7007c9f9fee988, 300, 300]),
    ("random structural WrongMirror Shuffled tol=0", [0xbf7007c9f9fee988, 0xbf7007c9f9fee988, 300, 300]),
    ("random structural WrongMirror Shuffled tol=0.3", [0xbf7007c9f9fee988, 0xbf7007c9f9fee988, 300, 300]),
    ("random structural WrongMirror Duplicated tol=0", [0xe9d0d4560e5eac25, 0xe9d0d4560e5eac25, 300, 300]),
    ("random structural WrongMirror Duplicated tol=0.3", [0xe9d0d4560e5eac25, 0xe9d0d4560e5eac25, 300, 300]),
    ("random structural WrongMirror DuplicatedShuffled tol=0", [0x22c6db877d30d1dc, 0x22c6db877d30d1dc, 300, 300]),
    ("random structural WrongMirror DuplicatedShuffled tol=0.3", [0x22c6db877d30d1dc, 0x22c6db877d30d1dc, 300, 300]),
];
