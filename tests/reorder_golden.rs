//! Golden outputs of the reordering machinery on the suite analogs.
//!
//! The RCM ordering (Table III, Fig. 13) and the level colouring behind
//! the `sss-race` schedule are pure functions of a matrix's pattern, and
//! both visit neighbours in the adjacency graph's ascending order — so a
//! rewrite of the graph construction that reorders or duplicates a
//! neighbour list moves them even when every structural invariant still holds. This
//! file commits, for each of the twelve suite analogs and the two
//! kind-extension entries at a small scale, an FNV-1a hash of
//! `rcm_permutation(..).as_map()` and of the colouring's `groups` (row
//! lists in group order), computed from the matrix's SSS lower rows as the
//! `sss-race` plan does.
//!
//! The table was generated before the graph construction moved into
//! `symspmv_sparse` and must not move, in debug or release. A mismatch
//! prints the whole table in source form.

use symspmv::reorder::level_color_lower;
use symspmv::reorder::rcm::rcm_permutation;
use symspmv::sparse::suite::{self, KIND_SUITE, SUITE};
use symspmv::sparse::SssMatrix;

const SCALE: f64 = 0.004;

/// `[rcm_permutation hash, level_color_lower groups hash]`.
type Row = [u64; 2];

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

    fn idx(&mut self, values: &[u32]) {
        self.bytes(&(values.len() as u64).to_le_bytes());
        for v in values {
            self.bytes(&v.to_le_bytes());
        }
    }
}

fn computed() -> Vec<(String, Row)> {
    SUITE
        .iter()
        .chain(KIND_SUITE.iter())
        .map(|spec| {
            let coo = suite::generate(spec, SCALE).coo;
            let mut rcm = Fnv::new();
            rcm.idx(rcm_permutation(&coo).expect("square").as_map());
            let sss = SssMatrix::from_coo_kind(&coo, spec.kind, 0.0).expect("suite kind holds");
            let coloring = level_color_lower(sss.n(), sss.rowptr(), sss.colind());
            let mut groups = Fnv::new();
            groups.bytes(&(coloring.groups.len() as u64).to_le_bytes());
            for g in &coloring.groups {
                groups.idx(g);
            }
            (format!("{} scale={SCALE}", spec.name), [rcm.0, groups.0])
        })
        .collect()
}

#[test]
fn reorder_outputs_match_the_committed_hashes() {
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
                "    ({name:?}, [{:#018x}, {:#018x}]),\n",
                row[0], row[1]
            ));
        }
        panic!("reorder outputs moved ({moved:?}); the computed table is:\n{src}");
    }
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Row)] = &[
    ("parabolic_fem scale=0.004", [0xb25418a2f07b54e9, 0xadfcf67e2d1130e6]),
    ("offshore scale=0.004", [0x8c0d206d19c88a91, 0xcca8c4df8181d1ee]),
    ("consph scale=0.004", [0x98f64f33d2f1b56e, 0x5b61a6872d945274]),
    ("bmw7st_1 scale=0.004", [0xbbe0b80c1743ebd6, 0x41ad5c84a03d0b24]),
    ("G3_circuit scale=0.004", [0x518bd484673ad2ac, 0x028253cba36564a2]),
    ("thermal2 scale=0.004", [0xbf881e06cba8c8d0, 0xafd97215c5f20072]),
    ("bmwcra_1 scale=0.004", [0xf3c2aad08c9f10f2, 0xcd0ee9919c2cd553]),
    ("hood scale=0.004", [0x7fc2051a9ce46c5a, 0x9ab909041da8ecae]),
    ("crankseg_2 scale=0.004", [0xacf304ecde5bba62, 0x774742de3350ecce]),
    ("nd12k scale=0.004", [0x008e287817383865, 0xd00a80767994861b]),
    ("inline_1 scale=0.004", [0x7f799f5b1442df5c, 0xc7ad015c40987184]),
    ("ldoor scale=0.004", [0xdf2b421407c8ae3c, 0xd316081f1acf20e2]),
    ("convection_skew scale=0.004", [0xa71aa2c3af5c3b5f, 0x43f32435ea77bad7]),
    ("circuit_structural scale=0.004", [0x56802a89256e5f16, 0xa099698f5cb475b7]),
];
