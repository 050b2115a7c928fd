//! The 12-matrix evaluation suite — synthetic analogs of Table I.
//!
//! Each entry records the *paper's* matrix characteristics (rows, non-zeros,
//! CSR size, the compression ratios the paper reports) and a structure class
//! that selects a generator with matched non-zeros/row, block structure and
//! bandwidth profile. A global `scale` shrinks the dimension so the suite
//! runs on a laptop; `scale = 1.0` reproduces the original sizes.

use crate::coo::CooMatrix;
use crate::gen;
use crate::symmetry::SymmetryKind;
use crate::Idx;

/// Structure class of a suite matrix, mapped to a generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StructureClass {
    /// Banded node graph with dense 3×3 dof blocks (structural FEM), with
    /// mesh-generator-style locally-shuffled node numbering.
    BlockStructural {
        /// Average neighbor nodes per node.
        node_degree: f64,
        /// Neighbor locality, as a fraction of the node count.
        band_frac: f64,
    },
    /// Local band plus globally scattered entries, hidden behind a random
    /// numbering (the high-bandwidth corner cases; RCM can recover the
    /// band but not the scattered fraction — §V-D).
    MixedBandwidth {
        /// Fraction of entries that stay within the local band.
        local_frac: f64,
        /// Local band half-width as a fraction of N.
        band_frac: f64,
    },
    /// Power-law circuit-like graph (local mesh + global hub rails),
    /// scrambled like the mixed class.
    PowerLaw {
        /// Fraction of rows acting as hubs.
        hub_frac: f64,
    },
    /// Dense-ish band (nd12k-style 2D/3D problem).
    DenseBand {
        /// Band half-width as a fraction of N.
        band_frac: f64,
    },
    /// Skew-symmetric convection transport operator (banded antisymmetric
    /// couplings, zero diagonal), scrambled like the mixed class so RCM
    /// has a numbering to recover — the PARS3 experiment setup.
    SkewConvection {
        /// Band half-width as a fraction of N.
        band_frac: f64,
    },
    /// Structurally symmetric circuit-like matrix: mirrored pattern,
    /// independently drawn pair values (Batista et al.'s target class).
    StructuralCircuit {
        /// Fraction of pairs that stay within the local band.
        local_frac: f64,
        /// Local band half-width as a fraction of N.
        band_frac: f64,
    },
}

/// Static description of one Table I matrix.
#[derive(Debug, Clone, Copy)]
pub struct SuiteSpec {
    /// Matrix name as in the paper.
    pub name: &'static str,
    /// Rows in the original UF matrix.
    pub paper_rows: u64,
    /// Non-zeros in the original UF matrix.
    pub paper_nnz: u64,
    /// CSR size reported by the paper (MiB).
    pub paper_size_mib: f64,
    /// Compression ratio achieved by CSX-Sym in the paper (%).
    pub paper_cr_csx_sym: f64,
    /// Maximum possible symmetric compression ratio in the paper (%).
    pub paper_cr_max: f64,
    /// Problem domain as listed in Table I.
    pub problem: &'static str,
    /// Structure class used by the synthetic analog.
    pub class: StructureClass,
    /// Symmetry kind of the generated matrix.
    pub kind: SymmetryKind,
    /// Deterministic generator seed.
    pub seed: u64,
}

impl SuiteSpec {
    /// Non-zeros per row of the original matrix.
    pub fn paper_nnz_per_row(&self) -> f64 {
        self.paper_nnz as f64 / self.paper_rows as f64
    }
}

/// The paper's 12-matrix suite (Table I), in paper order.
pub const SUITE: [SuiteSpec; 12] = [
    SuiteSpec {
        name: "parabolic_fem",
        paper_rows: 525_825,
        paper_nnz: 3_674_625,
        paper_size_mib: 44.06,
        paper_cr_csx_sym: 49.6,
        paper_cr_max: 63.6,
        problem: "C.F.D.",
        class: StructureClass::MixedBandwidth {
            local_frac: 0.80,
            band_frac: 1.0 / 64.0,
        },
        kind: SymmetryKind::Symmetric,
        seed: 0xA001,
    },
    SuiteSpec {
        name: "offshore",
        paper_rows: 259_789,
        paper_nnz: 4_242_673,
        paper_size_mib: 49.54,
        paper_cr_csx_sym: 56.1,
        paper_cr_max: 65.3,
        problem: "E/M",
        class: StructureClass::MixedBandwidth {
            local_frac: 0.90,
            band_frac: 1.0 / 32.0,
        },
        kind: SymmetryKind::Symmetric,
        seed: 0xA002,
    },
    SuiteSpec {
        name: "consph",
        paper_rows: 83_334,
        paper_nnz: 6_010_480,
        paper_size_mib: 69.10,
        paper_cr_csx_sym: 63.9,
        paper_cr_max: 66.4,
        problem: "F.E.M.",
        class: StructureClass::BlockStructural {
            node_degree: 23.0,
            band_frac: 1.0 / 20.0,
        },
        kind: SymmetryKind::Symmetric,
        seed: 0xA003,
    },
    SuiteSpec {
        name: "bmw7st_1",
        paper_rows: 141_347,
        paper_nnz: 7_339_667,
        paper_size_mib: 84.54,
        paper_cr_csx_sym: 64.4,
        paper_cr_max: 66.2,
        problem: "Structural",
        class: StructureClass::BlockStructural {
            node_degree: 16.3,
            band_frac: 1.0 / 40.0,
        },
        kind: SymmetryKind::Symmetric,
        seed: 0xA004,
    },
    SuiteSpec {
        name: "G3_circuit",
        paper_rows: 1_585_478,
        paper_nnz: 7_660_826,
        paper_size_mib: 93.72,
        paper_cr_csx_sym: 60.2,
        paper_cr_max: 62.4,
        problem: "Circuit",
        class: StructureClass::PowerLaw { hub_frac: 0.002 },
        kind: SymmetryKind::Symmetric,
        seed: 0xA005,
    },
    SuiteSpec {
        name: "thermal2",
        paper_rows: 1_228_045,
        paper_nnz: 8_580_313,
        paper_size_mib: 102.88,
        paper_cr_csx_sym: 53.4,
        paper_cr_max: 63.6,
        problem: "Thermal",
        class: StructureClass::MixedBandwidth {
            local_frac: 0.88,
            band_frac: 1.0 / 48.0,
        },
        kind: SymmetryKind::Symmetric,
        seed: 0xA006,
    },
    SuiteSpec {
        name: "bmwcra_1",
        paper_rows: 148_770,
        paper_nnz: 10_644_002,
        paper_size_mib: 122.38,
        paper_cr_csx_sym: 65.1,
        paper_cr_max: 66.4,
        problem: "Structural",
        class: StructureClass::BlockStructural {
            node_degree: 22.8,
            band_frac: 1.0 / 30.0,
        },
        kind: SymmetryKind::Symmetric,
        seed: 0xA007,
    },
    SuiteSpec {
        name: "hood",
        paper_rows: 220_542,
        paper_nnz: 10_768_436,
        paper_size_mib: 124.08,
        paper_cr_csx_sym: 64.4,
        paper_cr_max: 66.2,
        problem: "Structural",
        class: StructureClass::BlockStructural {
            node_degree: 15.3,
            band_frac: 1.0 / 40.0,
        },
        kind: SymmetryKind::Symmetric,
        seed: 0xA008,
    },
    SuiteSpec {
        name: "crankseg_2",
        paper_rows: 63_838,
        paper_nnz: 14_148_858,
        paper_size_mib: 162.16,
        paper_cr_csx_sym: 64.9,
        paper_cr_max: 66.6,
        problem: "Structural",
        class: StructureClass::BlockStructural {
            node_degree: 72.9,
            band_frac: 1.0 / 10.0,
        },
        kind: SymmetryKind::Symmetric,
        seed: 0xA009,
    },
    SuiteSpec {
        name: "nd12k",
        paper_rows: 36_000,
        paper_nnz: 14_220_946,
        paper_size_mib: 162.88,
        paper_cr_csx_sym: 64.9,
        paper_cr_max: 66.6,
        problem: "2D/3D",
        class: StructureClass::DenseBand {
            band_frac: 1.0 / 8.0,
        },
        kind: SymmetryKind::Symmetric,
        seed: 0xA00A,
    },
    SuiteSpec {
        name: "inline_1",
        paper_rows: 503_712,
        paper_nnz: 36_816_342,
        paper_size_mib: 423.25,
        paper_cr_csx_sym: 64.7,
        paper_cr_max: 66.4,
        problem: "Structural",
        class: StructureClass::BlockStructural {
            node_degree: 23.4,
            band_frac: 1.0 / 40.0,
        },
        kind: SymmetryKind::Symmetric,
        seed: 0xA00B,
    },
    SuiteSpec {
        name: "ldoor",
        paper_rows: 952_203,
        paper_nnz: 46_522_475,
        paper_size_mib: 536.04,
        paper_cr_csx_sym: 64.5,
        paper_cr_max: 66.2,
        problem: "Structural",
        class: StructureClass::BlockStructural {
            node_degree: 15.3,
            band_frac: 1.0 / 40.0,
        },
        kind: SymmetryKind::Symmetric,
        seed: 0xA00C,
    },
];

/// Kind-extension entries: synthetic analogs of the matrix classes the
/// generalized symmetry engine opens up (not part of Table I). The skew
/// entry models the PARS3 convection experiments; the structural entry
/// models the circuit / unsymmetric-FEM class of Batista et al. The
/// `paper_*` columns carry the *generator targets* (there is no Table I
/// row to mirror).
pub const KIND_SUITE: [SuiteSpec; 2] = [
    SuiteSpec {
        name: "convection_skew",
        paper_rows: 400_000,
        paper_nnz: 3_200_000,
        paper_size_mib: 38.1,
        paper_cr_csx_sym: 0.0,
        paper_cr_max: 0.0,
        problem: "Convection (ext.)",
        class: StructureClass::SkewConvection {
            band_frac: 1.0 / 64.0,
        },
        kind: SymmetryKind::Skew,
        seed: 0xB001,
    },
    SuiteSpec {
        name: "circuit_structural",
        paper_rows: 600_000,
        paper_nnz: 4_800_000,
        paper_size_mib: 57.2,
        paper_cr_csx_sym: 0.0,
        paper_cr_max: 0.0,
        problem: "Circuit (ext.)",
        class: StructureClass::StructuralCircuit {
            local_frac: 0.85,
            band_frac: 1.0 / 48.0,
        },
        kind: SymmetryKind::Structural,
        seed: 0xB002,
    },
];

/// A generated suite matrix together with its paper spec.
#[derive(Debug, Clone)]
pub struct SuiteMatrix {
    /// The Table I description this matrix stands in for.
    pub spec: SuiteSpec,
    /// The generated symmetric SPD matrix.
    pub coo: CooMatrix,
}

/// Generates the analog of one suite entry at the given scale.
///
/// `scale` multiplies the original dimension; the non-zeros-per-row ratio is
/// preserved (capped so tiny scaled matrices stay sparse). The minimum
/// dimension is 1024 rows.
pub fn generate(spec: &SuiteSpec, scale: f64) -> SuiteMatrix {
    assert!(scale > 0.0, "scale must be positive");
    let n_target = ((spec.paper_rows as f64 * scale) as u64).max(1024) as Idx;
    let nnz_per_row = spec.paper_nnz_per_row().min(n_target as f64 / 4.0);

    let coo = match spec.class {
        StructureClass::BlockStructural {
            node_degree,
            band_frac,
        } => {
            let block = 3;
            let nodes = (n_target.div_ceil(block)).max(8);
            let node_band = (((nodes as f64) * band_frac) as Idx).max(4);
            let a = gen::block_structural(nodes, block, node_degree, node_band, spec.seed);
            // Real FEM numbering is mesh-generator order: locally shuffled,
            // globally coherent — the state RCM recovers from (§V-D).
            let window = (nodes / 8).max(8);
            gen::scramble_nodes_windowed(&a, block, window, spec.seed ^ 0x3A3A)
        }
        StructureClass::MixedBandwidth {
            local_frac,
            band_frac,
        } => {
            let hbw = (((n_target as f64) * band_frac) as Idx).max(2);
            let local = gen::mixed_bandwidth(n_target, nnz_per_row, local_frac, hbw, spec.seed);
            gen::scramble(&local, spec.seed ^ 0x5C5C)
        }
        StructureClass::PowerLaw { hub_frac } => {
            let band = (n_target / 128).max(2);
            let local = gen::power_law(n_target, nnz_per_row, hub_frac, band, spec.seed);
            gen::scramble(&local, spec.seed ^ 0x5C5C)
        }
        StructureClass::DenseBand { band_frac } => {
            let hbw = (((n_target as f64) * band_frac) as Idx).max(4);
            gen::banded_random(n_target, hbw, nnz_per_row, spec.seed)
        }
        StructureClass::SkewConvection { band_frac } => {
            let hbw = (((n_target as f64) * band_frac) as Idx).max(2);
            let local = gen::skew_convection(n_target, hbw, nnz_per_row, spec.seed);
            gen::scramble(&local, spec.seed ^ 0x5C5C)
        }
        StructureClass::StructuralCircuit {
            local_frac,
            band_frac,
        } => {
            let hbw = (((n_target as f64) * band_frac) as Idx).max(2);
            let local = gen::structural_random(n_target, nnz_per_row, local_frac, hbw, spec.seed);
            gen::scramble(&local, spec.seed ^ 0x5C5C)
        }
    };
    SuiteMatrix { spec: *spec, coo }
}

/// Generates the Table I suite at the given scale, in paper order (the
/// twelve symmetric matrices; the [`KIND_SUITE`] extension entries are
/// generated one at a time through [`spec_by_name`] and [`generate`]).
pub fn generate_suite(scale: f64) -> Vec<SuiteMatrix> {
    SUITE.iter().map(|s| generate(s, scale)).collect()
}

/// Looks up a suite spec by name (case-sensitive, as in Table I),
/// including the kind-extension entries.
pub fn spec_by_name(name: &str) -> Option<&'static SuiteSpec> {
    SUITE
        .iter()
        .chain(KIND_SUITE.iter())
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::matrix_stats;

    #[test]
    fn suite_has_twelve_entries_in_paper_order() {
        assert_eq!(SUITE.len(), 12);
        assert_eq!(SUITE[0].name, "parabolic_fem");
        assert_eq!(SUITE[11].name, "ldoor");
    }

    #[test]
    fn lookup_by_name() {
        assert!(spec_by_name("hood").is_some());
        assert!(spec_by_name("not_a_matrix").is_none());
        // Kind-extension entries resolve too.
        assert_eq!(
            spec_by_name("convection_skew").map(|s| s.kind),
            Some(SymmetryKind::Skew)
        );
        assert_eq!(
            spec_by_name("circuit_structural").map(|s| s.kind),
            Some(SymmetryKind::Structural)
        );
    }

    #[test]
    fn kind_suite_entries_generate_their_kind() {
        let skew = generate(spec_by_name("convection_skew").unwrap(), 0.004);
        assert!(skew.coo.is_skew_symmetric(0.0), "convection_skew not skew");
        assert!(skew.coo.nrows() >= 1024);

        let st = generate(spec_by_name("circuit_structural").unwrap(), 0.003);
        assert!(
            st.coo.is_structurally_symmetric(),
            "circuit_structural pattern not symmetric"
        );
        assert!(!st.coo.is_symmetric(0.0), "values must be unsymmetric");
        assert!(st.coo.nrows() >= 1024);
    }

    #[test]
    fn generated_matrices_are_symmetric_and_sized() {
        for spec in &SUITE {
            let m = generate(spec, 0.004);
            assert!(m.coo.is_symmetric(0.0), "{} asymmetric", spec.name);
            assert!(m.coo.nrows() >= 1024, "{} too small", spec.name);
        }
    }

    #[test]
    fn nnz_per_row_tracks_paper() {
        // Structure match: realized nnz/row within a factor ~2 of the paper
        // target for a representative of each class.
        for name in ["bmw7st_1", "offshore", "G3_circuit", "nd12k"] {
            let spec = spec_by_name(name).unwrap();
            let m = generate(spec, 0.01);
            let s = matrix_stats(&m.coo);
            let target = spec.paper_nnz_per_row().min(m.coo.nrows() as f64 / 4.0);
            assert!(
                s.avg_row_nnz > target * 0.4 && s.avg_row_nnz < target * 2.5,
                "{name}: got {} expected ~{target}",
                s.avg_row_nnz
            );
        }
    }

    #[test]
    fn determinism() {
        let a = generate(&SUITE[1], 0.004);
        let b = generate(&SUITE[1], 0.004);
        assert_eq!(a.coo, b.coo);
    }

    #[test]
    fn high_bandwidth_classes_have_larger_spread() {
        // The corner cases (mixed/power-law) must have a larger average
        // entry distance relative to N than the structural ones — that is
        // the property §V-B/§V-C hinges on.
        let structural = generate(spec_by_name("bmw7st_1").unwrap(), 0.01);
        let scattered = generate(spec_by_name("G3_circuit").unwrap(), 0.001);
        let s1 = matrix_stats(&structural.coo);
        let s2 = matrix_stats(&scattered.coo);
        let rel1 = s1.avg_entry_distance / structural.coo.nrows() as f64;
        let rel2 = s2.avg_entry_distance / scattered.coo.nrows() as f64;
        assert!(rel2 > rel1 * 2.0, "scattered {rel2} vs structural {rel1}");
    }
}
