//! Pluggable hardware topologies.
//!
//! The paper targets one machine — a D-Wave 2000Q, whose working graph is
//! a Chimera C16 — but nothing in the compile/embed/sample pipeline is
//! specific to that family: the router works on any [`HardwareGraph`],
//! chain strengths depend only on the coupler range, and the cache keys
//! on the (problem, options, hardware) triple. [`Topology`] captures the
//! family-specific parts behind one trait so the pipeline can run on
//! Chimera, Pegasus (D-Wave Advantage), Zephyr (Advantage2), or a
//! king's-graph lattice (CMOS-annealer style) without naming any of them
//! concretely.
//!
//! What a family provides:
//!
//! * identity — [`Topology::family`] and [`Topology::parameter_hash`],
//!   the canonical hash that keeps cache keys from colliding across
//!   families even when qubit counts (or whole graphs) coincide;
//! * shape — [`Topology::num_qubits`], [`Topology::graph`], and a
//!   human-readable coordinate scheme for diagnostics;
//! * embedding hooks — an optional native clique template
//!   ([`Topology::clique_embedding`], default `None`: families without a
//!   deterministic template fall back to the CSR router rather than
//!   silently borrowing Chimera's);
//! * physics — the coefficient range the hardware accepts
//!   ([`Topology::coefficient_range`]) and the default chain-strength
//!   rule derived from it ([`Topology::chain_strength`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qac_pbf::scale::CoefficientRange;

use crate::cache::Fnv;
use crate::{Chimera, Embedding, HardwareGraph};

/// A hardware graph family the pipeline can target.
///
/// Implementations must be deterministic: two instances with equal
/// parameters must produce byte-identical graphs and equal
/// [`parameter_hash`](Topology::parameter_hash) values across runs and
/// platforms (the hash feeds persistent cache keys).
pub trait Topology {
    /// The family name, lowercase and stable (`"chimera"`, `"pegasus"`,
    /// `"zephyr"`, `"king"`). Used as the `topology` label on metrics.
    fn family(&self) -> &'static str;

    /// Canonical FNV-1a hash over the family name and every size
    /// parameter. Distinct families hash differently even when their
    /// graphs coincide, so cache keys never collide across topologies.
    fn parameter_hash(&self) -> u64;

    /// Total number of qubits (nodes of [`graph`](Topology::graph)).
    fn num_qubits(&self) -> usize;

    /// A one-line description of the coordinate scheme, e.g.
    /// `"(row, col, partition, k)"`.
    fn coordinate_scheme(&self) -> &'static str;

    /// The coordinates of a linear qubit index, rendered in the scheme of
    /// [`coordinate_scheme`](Topology::coordinate_scheme).
    fn coordinate_label(&self, qubit: usize) -> String;

    /// Builds the full hardware graph (every qubit active).
    fn graph(&self) -> HardwareGraph;

    /// A deterministic native clique-embedding template for `K_n`, when
    /// the family has one (Chimera's triangle template). The default is
    /// `None`: the caller falls back to the randomized CSR router, never
    /// to another family's template.
    fn clique_embedding(&self, _n: usize) -> Option<Embedding> {
        None
    }

    /// The coefficient range the hardware accepts.
    fn coefficient_range(&self) -> CoefficientRange {
        CoefficientRange::DWAVE_2000Q
    }

    /// The chain strength the embedding path applies: the shared
    /// [`choose_chain_strength`](crate::choose_chain_strength) rule fed
    /// with this family's `j_min`, so the intra-chain coupling always
    /// fits the hardware range.
    fn chain_strength(&self, explicit: Option<f64>, scaled_max_abs_j: f64) -> f64 {
        crate::choose_chain_strength(explicit, scaled_max_abs_j, self.coefficient_range().j_min)
    }

    /// The hardware graph with a random `fraction` of qubits deactivated
    /// (deterministic under `seed`), modeling fabrication drop-out. Same
    /// per-qubit Bernoulli stream for every family.
    ///
    /// # Panics
    /// Panics if `fraction` is not within `[0, 1)`.
    fn graph_with_dropout(&self, fraction: f64, seed: u64) -> HardwareGraph {
        assert!((0.0..1.0).contains(&fraction), "fraction in [0,1)");
        let mut g = self.graph();
        let mut rng = StdRng::seed_from_u64(seed);
        for q in 0..self.num_qubits() {
            if rng.gen::<f64>() < fraction {
                g.deactivate(q);
            }
        }
        g
    }
}

/// Canonical FNV-1a hash of a family name plus its size parameters — the
/// standard way to implement [`Topology::parameter_hash`].
pub fn topology_parameter_hash(family: &str, params: &[u64]) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(family.as_bytes());
    h.write_usize(params.len());
    for &p in params {
        h.write_u64(p);
    }
    h.finish()
}

/// The coefficient range of a D-Wave Advantage-generation machine:
/// `h ∈ [−4, 4]`, `J ∈ [−2, 1]` (Pegasus and Zephyr fabrics widen the
/// linear range; the coupler asymmetry persists).
pub const ADVANTAGE_RANGE: CoefficientRange = CoefficientRange {
    h_min: -4.0,
    h_max: 4.0,
    j_min: -2.0,
    j_max: 1.0,
};

impl Topology for Chimera {
    fn family(&self) -> &'static str {
        "chimera"
    }

    fn parameter_hash(&self) -> u64 {
        topology_parameter_hash("chimera", &[self.size() as u64])
    }

    fn num_qubits(&self) -> usize {
        Chimera::num_qubits(self)
    }

    fn coordinate_scheme(&self) -> &'static str {
        "(row, col, partition, k)"
    }

    fn coordinate_label(&self, qubit: usize) -> String {
        let (row, col, partition, k) = self.coordinates(qubit);
        format!("({row}, {col}, {partition}, {k})")
    }

    fn graph(&self) -> HardwareGraph {
        Chimera::graph(self)
    }

    fn clique_embedding(&self, n: usize) -> Option<Embedding> {
        Chimera::clique_embedding(self, n)
    }

    // coefficient_range: the default DWAVE_2000Q is exactly the 2000Q's
    // range, and graph_with_dropout's provided body reproduces the
    // inherent method bit-for-bit (same per-qubit StdRng stream).
}

/// Per-cell coupler offsets of the Pegasus fabric (the `k → shifted
/// crossing` map D-Wave publishes for P_m; both orientations share it).
const PEGASUS_OFFSETS: [usize; 12] = [2, 2, 2, 2, 6, 6, 6, 6, 10, 10, 10, 10];

/// A `P_m` Pegasus topology (D-Wave Advantage fabric): `24m(m−1)` qubits
/// of degree ≤ 15.
///
/// Coordinates `(u, w, k, z)`: `u ∈ {0, 1}` the orientation (vertical /
/// horizontal), `w ∈ [0, m)` the perpendicular offset, `k ∈ [0, 12)` the
/// track, `z ∈ [0, m−1)` the position along the wire. Linear index
/// `((u·m + w)·12 + k)·(m−1) + z`.
///
/// Couplers: *external* `z ~ z+1` along a wire, *odd* `2j ~ 2j+1` between
/// track pairs, and twelve *internal* crossings per qubit determined by
/// the per-track offsets `[2, 2, 2, 2, 6, 6, 6, 6, 10, 10, 10, 10]`. A
/// P16 has 5760 nominal qubits (the Advantage fabric); the `8(m−1)`
/// boundary wires whose crossings all fall off the fabric (tracks 0–1 at `w = 0`, tracks 10–11 at `w = m−1`) carry no
/// internal couplers and are deactivated in [`Pegasus::graph`], exactly
/// as D-Wave trims them (P16: 5640 working qubits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pegasus {
    m: usize,
}

impl Pegasus {
    /// A `P_m` topology.
    ///
    /// # Panics
    /// Panics if `m < 2` (a P1 has no z positions).
    pub fn new(m: usize) -> Pegasus {
        assert!(m >= 2, "Pegasus size must be at least 2");
        Pegasus { m }
    }

    /// The D-Wave Advantage fabric: P16, nominally 5760 qubits.
    pub fn advantage() -> Pegasus {
        Pegasus::new(16)
    }

    /// Fabric size m.
    pub fn size(&self) -> usize {
        self.m
    }

    /// Total qubits, `24m(m−1)`.
    pub fn num_qubits(&self) -> usize {
        24 * self.m * (self.m - 1)
    }

    /// The linear index of a qubit.
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    pub fn qubit(&self, u: usize, w: usize, k: usize, z: usize) -> usize {
        assert!(u < 2 && w < self.m && k < 12 && z < self.m - 1);
        ((u * self.m + w) * 12 + k) * (self.m - 1) + z
    }

    /// The `(u, w, k, z)` coordinates of a linear index.
    pub fn coordinates(&self, qubit: usize) -> (usize, usize, usize, usize) {
        let z = qubit % (self.m - 1);
        let rest = qubit / (self.m - 1);
        let k = rest % 12;
        let rest = rest / 12;
        (rest / self.m, rest % self.m, k, z)
    }

    /// Builds the full hardware graph.
    pub fn graph(&self) -> HardwareGraph {
        let m = self.m;
        let mut g = HardwareGraph::new(self.num_qubits());
        for u in 0..2 {
            for w in 0..m {
                for k in 0..12 {
                    for z in 0..m - 1 {
                        // External couplers along the wire.
                        if z + 1 < m - 1 {
                            g.add_edge(self.qubit(u, w, k, z), self.qubit(u, w, k, z + 1));
                        }
                        // Odd couplers between paired tracks.
                        if k % 2 == 0 {
                            g.add_edge(self.qubit(u, w, k, z), self.qubit(u, w, k + 1, z));
                        }
                    }
                }
            }
        }
        // Internal couplers, enumerated once from the vertical (u = 0)
        // side: (0,w,k,z) crosses (1, z + [k′ < off(k)], k′, w − [k < off(k′)])
        // for every horizontal track k′, endpoints kept in range.
        // k/k2 are qubit coordinates first and offset-table indices
        // second, so the range loop reads better than enumerate().
        #[allow(clippy::needless_range_loop)]
        for w in 0..m {
            for k in 0..12 {
                for z in 0..m - 1 {
                    for k2 in 0..12 {
                        let w2 = z + usize::from(k2 < PEGASUS_OFFSETS[k]);
                        let z2 = w as isize - isize::from(k < PEGASUS_OFFSETS[k2]);
                        if z2 >= 0 && (z2 as usize) < m - 1 {
                            g.add_edge(self.qubit(0, w, k, z), self.qubit(1, w2, k2, z2 as usize));
                        }
                    }
                }
            }
        }
        // Trim the dangling boundary wires (every internal crossing off
        // the fabric): D-Wave ships these 8(m−1) qubits disabled, and
        // leaving them active would hand the router a disconnected
        // component.
        for u in 0..2 {
            for z in 0..m - 1 {
                for k in [0, 1] {
                    g.deactivate(self.qubit(u, 0, k, z));
                }
                for k in [10, 11] {
                    g.deactivate(self.qubit(u, m - 1, k, z));
                }
            }
        }
        g
    }

    /// Working (active) qubits after the boundary trim:
    /// `24m(m−1) − 8(m−1)`.
    pub fn num_working_qubits(&self) -> usize {
        self.num_qubits() - 8 * (self.m - 1)
    }
}

impl Topology for Pegasus {
    fn family(&self) -> &'static str {
        "pegasus"
    }

    fn parameter_hash(&self) -> u64 {
        topology_parameter_hash("pegasus", &[self.m as u64])
    }

    fn num_qubits(&self) -> usize {
        Pegasus::num_qubits(self)
    }

    fn coordinate_scheme(&self) -> &'static str {
        "(u, w, k, z)"
    }

    fn coordinate_label(&self, qubit: usize) -> String {
        let (u, w, k, z) = self.coordinates(qubit);
        format!("({u}, {w}, {k}, {z})")
    }

    fn graph(&self) -> HardwareGraph {
        Pegasus::graph(self)
    }

    fn coefficient_range(&self) -> CoefficientRange {
        ADVANTAGE_RANGE
    }
}

/// A `Z_m` Zephyr topology (D-Wave Advantage2 fabric, tile parameter
/// t = 4): `16m(2m+1)` qubits of degree ≤ 20.
///
/// Coordinates `(u, w, k, j, z)`: `u ∈ {0, 1}` the orientation,
/// `w ∈ [0, 2m]` the perpendicular offset, `k ∈ [0, 4)` the track,
/// `j ∈ {0, 1}` the wire half, `z ∈ [0, m)` the position. Linear index
/// `(((u·(2m+1) + w)·4 + k)·2 + j)·m + z`.
///
/// Couplers: *external* `z ~ z+1`, *odd* `(k,0,z) ~ (k,1,z)` and
/// `(k,0,z) ~ (k,1,z−1)`, and sixteen *internal* crossings per interior
/// qubit (`w′ − (2z+j) ∈ {0,1}` and `w − (2z′+j′) ∈ {0,1}`). A Z15 has
/// 7440 qubits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zephyr {
    m: usize,
}

impl Zephyr {
    /// A `Z_m` topology.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Zephyr {
        assert!(m > 0, "Zephyr size must be positive");
        Zephyr { m }
    }

    /// Fabric size m.
    pub fn size(&self) -> usize {
        self.m
    }

    /// Total qubits, `16m(2m+1)`.
    pub fn num_qubits(&self) -> usize {
        16 * self.m * (2 * self.m + 1)
    }

    /// The linear index of a qubit.
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    pub fn qubit(&self, u: usize, w: usize, k: usize, j: usize, z: usize) -> usize {
        assert!(u < 2 && w <= 2 * self.m && k < 4 && j < 2 && z < self.m);
        (((u * (2 * self.m + 1) + w) * 4 + k) * 2 + j) * self.m + z
    }

    /// The `(u, w, k, j, z)` coordinates of a linear index.
    pub fn coordinates(&self, qubit: usize) -> (usize, usize, usize, usize, usize) {
        let z = qubit % self.m;
        let rest = qubit / self.m;
        let j = rest % 2;
        let rest = rest / 2;
        let k = rest % 4;
        let rest = rest / 4;
        (rest / (2 * self.m + 1), rest % (2 * self.m + 1), k, j, z)
    }

    /// Builds the full hardware graph.
    pub fn graph(&self) -> HardwareGraph {
        let m = self.m;
        let mut g = HardwareGraph::new(self.num_qubits());
        for u in 0..2 {
            for w in 0..=2 * m {
                for k in 0..4 {
                    for z in 0..m {
                        for j in 0..2 {
                            // External couplers along the wire half.
                            if z + 1 < m {
                                g.add_edge(
                                    self.qubit(u, w, k, j, z),
                                    self.qubit(u, w, k, j, z + 1),
                                );
                            }
                        }
                        // Odd couplers joining the two halves.
                        g.add_edge(self.qubit(u, w, k, 0, z), self.qubit(u, w, k, 1, z));
                        if z > 0 {
                            g.add_edge(self.qubit(u, w, k, 0, z), self.qubit(u, w, k, 1, z - 1));
                        }
                    }
                }
            }
        }
        // Internal couplers, enumerated once from the vertical (u = 0)
        // side: (0,w,k,j,z) crosses (1,w′,k′,j′,z′) iff w′ − (2z+j) ∈ {0,1}
        // and w − (2z′+j′) ∈ {0,1}.
        for w in 0..=2 * m {
            for k in 0..4 {
                for j in 0..2 {
                    for z in 0..m {
                        let a = 2 * z + j;
                        for w2 in [a, a + 1] {
                            if w2 > 2 * m {
                                continue;
                            }
                            for k2 in 0..4 {
                                for v in [w as isize - 1, w as isize] {
                                    if v < 0 || v >= 2 * m as isize {
                                        continue;
                                    }
                                    let (j2, z2) = (v as usize % 2, v as usize / 2);
                                    g.add_edge(
                                        self.qubit(0, w, k, j, z),
                                        self.qubit(1, w2, k2, j2, z2),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        g
    }
}

impl Topology for Zephyr {
    fn family(&self) -> &'static str {
        "zephyr"
    }

    fn parameter_hash(&self) -> u64 {
        topology_parameter_hash("zephyr", &[self.m as u64])
    }

    fn num_qubits(&self) -> usize {
        Zephyr::num_qubits(self)
    }

    fn coordinate_scheme(&self) -> &'static str {
        "(u, w, k, j, z)"
    }

    fn coordinate_label(&self, qubit: usize) -> String {
        let (u, w, k, j, z) = self.coordinates(qubit);
        format!("({u}, {w}, {k}, {j}, {z})")
    }

    fn graph(&self) -> HardwareGraph {
        Zephyr::graph(self)
    }

    fn coefficient_range(&self) -> CoefficientRange {
        ADVANTAGE_RANGE
    }
}

/// An m×m king's-graph lattice: every site couples to its 8 chessboard
/// neighbors (the fabric of CMOS/FPGA annealers such as Hitachi's, and
/// the natural grid for the unit-Ising gate encodings of Tsukiyama et
/// al., arXiv:2406.18130).
///
/// Coordinates `(row, col)`, linear index `row·m + col`, `m²` qubits of
/// degree ≤ 8. Symmetric unit coefficient range; no native clique
/// template (dense graphs go through the CSR router).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KingGraph {
    m: usize,
}

impl KingGraph {
    /// An m×m king's graph.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> KingGraph {
        assert!(m > 0, "king's graph size must be positive");
        KingGraph { m }
    }

    /// Lattice side m.
    pub fn size(&self) -> usize {
        self.m
    }

    /// Total qubits, m².
    pub fn num_qubits(&self) -> usize {
        self.m * self.m
    }

    /// The linear index of a site.
    ///
    /// # Panics
    /// Panics if a coordinate is out of range.
    pub fn qubit(&self, row: usize, col: usize) -> usize {
        assert!(row < self.m && col < self.m);
        row * self.m + col
    }

    /// The `(row, col)` coordinates of a linear index.
    pub fn coordinates(&self, qubit: usize) -> (usize, usize) {
        (qubit / self.m, qubit % self.m)
    }

    /// Builds the full hardware graph.
    pub fn graph(&self) -> HardwareGraph {
        let m = self.m;
        let mut g = HardwareGraph::new(self.num_qubits());
        for row in 0..m {
            for col in 0..m {
                let q = self.qubit(row, col);
                if col + 1 < m {
                    g.add_edge(q, self.qubit(row, col + 1));
                }
                if row + 1 < m {
                    g.add_edge(q, self.qubit(row + 1, col));
                    if col + 1 < m {
                        g.add_edge(q, self.qubit(row + 1, col + 1));
                    }
                    if col > 0 {
                        g.add_edge(q, self.qubit(row + 1, col - 1));
                    }
                }
            }
        }
        g
    }
}

impl Topology for KingGraph {
    fn family(&self) -> &'static str {
        "king"
    }

    fn parameter_hash(&self) -> u64 {
        topology_parameter_hash("king", &[self.m as u64])
    }

    fn num_qubits(&self) -> usize {
        KingGraph::num_qubits(self)
    }

    fn coordinate_scheme(&self) -> &'static str {
        "(row, col)"
    }

    fn coordinate_label(&self, qubit: usize) -> String {
        let (row, col) = self.coordinates(qubit);
        format!("({row}, {col})")
    }

    fn graph(&self) -> HardwareGraph {
        KingGraph::graph(self)
    }

    fn coefficient_range(&self) -> CoefficientRange {
        CoefficientRange::UNIT
    }
}

/// A value-level topology choice: the plain-data form options structs
/// carry (`Copy`, comparable, defaultable) that dispatches to the
/// concrete families. `TopologySpec` itself implements [`Topology`], so
/// anything generic over the trait accepts it directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// Chimera `C_m` (D-Wave 2000Q at m = 16).
    Chimera {
        /// Mesh size m.
        m: usize,
    },
    /// Pegasus `P_m` (D-Wave Advantage at m = 16).
    Pegasus {
        /// Fabric size m.
        m: usize,
    },
    /// Zephyr `Z_m` at t = 4 (D-Wave Advantage2 at m = 15).
    Zephyr {
        /// Fabric size m.
        m: usize,
    },
    /// An m×m king's-graph lattice.
    King {
        /// Lattice side m.
        m: usize,
    },
}

impl Default for TopologySpec {
    /// The paper's machine: a Chimera C16.
    fn default() -> TopologySpec {
        TopologySpec::Chimera { m: 16 }
    }
}

impl TopologySpec {
    /// Runs `f` against the concrete family this spec names.
    fn with<R>(&self, f: impl FnOnce(&dyn Topology) -> R) -> R {
        match *self {
            TopologySpec::Chimera { m } => f(&Chimera::new(m)),
            TopologySpec::Pegasus { m } => f(&Pegasus::new(m)),
            TopologySpec::Zephyr { m } => f(&Zephyr::new(m)),
            TopologySpec::King { m } => f(&KingGraph::new(m)),
        }
    }
}

impl Topology for TopologySpec {
    fn family(&self) -> &'static str {
        self.with(|t| t.family())
    }

    fn parameter_hash(&self) -> u64 {
        self.with(|t| t.parameter_hash())
    }

    fn num_qubits(&self) -> usize {
        self.with(|t| t.num_qubits())
    }

    fn coordinate_scheme(&self) -> &'static str {
        self.with(|t| t.coordinate_scheme())
    }

    fn coordinate_label(&self, qubit: usize) -> String {
        self.with(|t| t.coordinate_label(qubit))
    }

    fn graph(&self) -> HardwareGraph {
        self.with(|t| t.graph())
    }

    fn clique_embedding(&self, n: usize) -> Option<Embedding> {
        self.with(|t| t.clique_embedding(n))
    }

    fn coefficient_range(&self) -> CoefficientRange {
        self.with(|t| t.coefficient_range())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_degree(g: &HardwareGraph) -> usize {
        (0..g.num_nodes())
            .map(|q| g.neighbors(q).len())
            .max()
            .unwrap_or(0)
    }

    fn assert_connected(g: &HardwareGraph) {
        let active: Vec<usize> = (0..g.num_nodes()).filter(|&q| g.is_active(q)).collect();
        assert!(
            g.is_connected_subset(&active),
            "active qubits must be connected"
        );
    }

    #[test]
    fn chimera_trait_matches_inherent_behavior_exactly() {
        let c = Chimera::new(4);
        let t: &dyn Topology = &c;
        assert_eq!(t.family(), "chimera");
        assert_eq!(t.num_qubits(), Chimera::num_qubits(&c));
        assert_eq!(t.graph(), Chimera::graph(&c));
        assert_eq!(
            t.graph_with_dropout(0.05, 42),
            Chimera::graph_with_dropout(&c, 0.05, 42),
            "trait dropout must reproduce the inherent method bit-for-bit"
        );
        assert_eq!(
            t.clique_embedding(8).map(|e| e.chains().to_vec()),
            Chimera::clique_embedding(&c, 8).map(|e| e.chains().to_vec())
        );
        assert_eq!(t.coefficient_range(), CoefficientRange::DWAVE_2000Q);
        // The default chain-strength rule matches the shared helper.
        assert_eq!(
            t.chain_strength(None, 0.75),
            crate::choose_chain_strength(None, 0.75, -2.0)
        );
        assert_eq!(t.chain_strength(Some(5.0), 0.75), 2.0, "clamped to −j_min");
    }

    #[test]
    fn pegasus_counts_degrees_and_coordinates() {
        // The Advantage fabric: P16 = 5760 nominal / 5640 working qubits.
        assert_eq!(Pegasus::advantage().num_qubits(), 5760);
        assert_eq!(Pegasus::advantage().num_working_qubits(), 5640);
        let p = Pegasus::new(4);
        assert_eq!(p.num_qubits(), 24 * 4 * 3);
        assert_eq!(p.graph().num_active(), p.num_working_qubits());
        for q in 0..p.num_qubits() {
            let (u, w, k, z) = p.coordinates(q);
            assert_eq!(p.qubit(u, w, k, z), q);
        }
        let g = p.graph();
        assert_eq!(max_degree(&g), 15, "interior Pegasus degree is 15");
        assert_connected(&g);
        // Spot-check the coupler classes on an interior qubit.
        let q = p.qubit(0, 1, 4, 1);
        assert!(g.has_edge(q, p.qubit(0, 1, 4, 2)), "external");
        assert!(g.has_edge(q, p.qubit(0, 1, 5, 1)), "odd");
        let internal = g
            .neighbors(q)
            .iter()
            .filter(|&&n| p.coordinates(n).0 == 1)
            .count();
        assert_eq!(internal, 12, "interior qubit crosses all 12 tracks");
    }

    #[test]
    fn zephyr_counts_degrees_and_coordinates() {
        // The Advantage2 fabric: Z15 = 7440 qubits.
        assert_eq!(Zephyr::new(15).num_qubits(), 7440);
        let z = Zephyr::new(3);
        assert_eq!(z.num_qubits(), 16 * 3 * 7);
        for q in 0..z.num_qubits() {
            let (u, w, k, j, zz) = z.coordinates(q);
            assert_eq!(z.qubit(u, w, k, j, zz), q);
        }
        let g = z.graph();
        assert_eq!(max_degree(&g), 20, "interior Zephyr degree is 20 at t=4");
        assert_connected(&g);
    }

    #[test]
    fn king_graph_is_an_eight_neighbor_lattice() {
        let k = KingGraph::new(5);
        assert_eq!(k.num_qubits(), 25);
        let g = k.graph();
        assert_eq!(max_degree(&g), 8);
        assert_connected(&g);
        // Interior site: all 8 chessboard moves, nothing else.
        let q = k.qubit(2, 2);
        assert_eq!(g.neighbors(q).len(), 8);
        for (dr, dc) in [(0, 1), (1, 0), (1, 1), (1, -1i32)] {
            let r = (2 + dr) as usize;
            let c = (2i32 + dc) as usize;
            assert!(g.has_edge(q, k.qubit(r, c)));
        }
        assert!(!g.has_edge(q, k.qubit(2, 4)), "no distance-2 couplers");
        // Corner has exactly 3 neighbors.
        assert_eq!(g.neighbors(k.qubit(0, 0)).len(), 3);
        // Edge count: 2m(m−1) orthogonal + 2(m−1)² diagonal.
        assert_eq!(g.num_edges(), 2 * 5 * 4 + 2 * 4 * 4);
    }

    #[test]
    fn parameter_hashes_separate_families_and_sizes() {
        let hashes = [
            Chimera::new(4).parameter_hash(),
            Chimera::new(5).parameter_hash(),
            Pegasus::new(4).parameter_hash(),
            Zephyr::new(4).parameter_hash(),
            KingGraph::new(4).parameter_hash(),
            // Same qubit count as C4 (8·16 = 128 ≠ 121 — use the king size
            // whose square ties a Chimera count: 16² = 256 = C?, no; the
            // point is same-parameter different-family never collides).
            KingGraph::new(32).parameter_hash(),
        ];
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b, "parameter hashes must be pairwise distinct");
            }
        }
        // Stable across instances.
        assert_eq!(
            Pegasus::new(6).parameter_hash(),
            Pegasus::new(6).parameter_hash()
        );
    }

    #[test]
    fn only_chimera_has_a_native_clique_template() {
        assert!(Topology::clique_embedding(&Chimera::new(4), 8).is_some());
        assert!(Pegasus::new(4).clique_embedding(4).is_none());
        assert!(Zephyr::new(2).clique_embedding(4).is_none());
        assert!(KingGraph::new(8).clique_embedding(4).is_none());
    }

    #[test]
    fn spec_dispatches_to_the_concrete_family() {
        let specs = [
            TopologySpec::Chimera { m: 3 },
            TopologySpec::Pegasus { m: 3 },
            TopologySpec::Zephyr { m: 2 },
            TopologySpec::King { m: 9 },
        ];
        let expected_qubits = [
            Chimera::new(3).num_qubits(),
            Pegasus::new(3).num_qubits(),
            Zephyr::new(2).num_qubits(),
            KingGraph::new(9).num_qubits(),
        ];
        let expected_families = ["chimera", "pegasus", "zephyr", "king"];
        for ((spec, qubits), family) in specs.iter().zip(expected_qubits).zip(expected_families) {
            assert_eq!(spec.num_qubits(), qubits);
            assert_eq!(spec.family(), family);
            assert_eq!(spec.graph().num_nodes(), qubits);
        }
        assert_eq!(TopologySpec::default(), TopologySpec::Chimera { m: 16 });
        assert_eq!(
            TopologySpec::Chimera { m: 3 }.parameter_hash(),
            Chimera::new(3).parameter_hash()
        );
        assert!(TopologySpec::Pegasus { m: 3 }.clique_embedding(3).is_none());
        assert_eq!(
            TopologySpec::King { m: 9 }.coefficient_range(),
            CoefficientRange::UNIT
        );
    }
}
