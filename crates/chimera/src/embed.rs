//! Randomized minor-embedding heuristic in the style of Cai, Macready,
//! and Roy ("A practical heuristic for finding graph minors", 2014) — the
//! algorithm D-Wave's SAPI library uses, which the paper invokes for its
//! place-and-route step (§4.4).
//!
//! Each logical variable is mapped to a *chain* of physical qubits. The
//! heuristic grows chains along cheapest paths under an exponential
//! penalty for qubit reuse, then iteratively rips up and re-routes chains
//! until no qubit is claimed twice.
//!
//! # Performance
//!
//! CMR's cost is dominated by repeated shortest-path searches: every
//! rip-up round runs a multi-source Dijkstra from each neighbor chain of
//! each variable. The router therefore works out of a [`RouterScratch`]
//! allocated **once** per [`embed`] search:
//!
//! * the hardware adjacency is flattened to CSR (offset + flat neighbor
//!   arrays, see [`crate::CsrNeighbors`]) for cache-friendly relaxation;
//! * `dist`/`parent` arrays are reset between Dijkstra runs by replaying
//!   a touched-node list instead of an O(|V|) fill, keeping the
//!   relaxation fast path to a single load-and-compare;
//! * the per-qubit reuse penalty `base^min(usage, 8)` is memoized in a
//!   flat weight array, updated incrementally when a qubit's usage count
//!   changes — no `powi` (and no indirect call) per edge relaxation;
//! * the binary heap is reused across runs.
//!
//! The searches themselves are bounded. Each neighbor chain's search
//! parks at its own target, paced at most one step (half the minimum
//! qubit weight) past the distance level it has already finalized, and
//! a certificate audit decides when the best-root tie list is provably
//! what searches run to exhaustion would give. The running minimum over
//! roots final in every search and the audit of partly final roots are
//! both incremental across deepening steps; one ascending scan builds
//! the tie list at the end. On a traced `hw_cold` job of the end-to-end
//! benchmark this halves the heap pops (5.46 M → 2.63 M) at
//! byte-identical chains.
//!
//! Work counters (heap pops, edge relaxations, weight updates) are
//! tallied in [`EmbedStats`] and flushed to the global telemetry recorder
//! as `qac_embed_*_total`, so speedups and regressions are attributable.

use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use qac_pbf::Ising;

use crate::{embedding_key, CsrNeighbors, EmbeddingCache, HardwareGraph, Topology};

/// Options for [`embed`].
#[derive(Debug, Clone)]
pub struct EmbedOptions {
    /// RNG seed (the heuristic is randomized; the paper reports qubit
    /// counts "over 25 compilations" for this reason, §6.1).
    pub seed: u64,
    /// Independent restarts before giving up.
    pub tries: usize,
    /// Rip-up-and-reroute improvement rounds per try.
    pub rounds: usize,
    /// Base of the exponential reuse penalty.
    pub penalty_base: f64,
}

impl Default for EmbedOptions {
    fn default() -> EmbedOptions {
        EmbedOptions {
            seed: 0xe4bed,
            tries: 16,
            rounds: 40,
            penalty_base: 8.0,
        }
    }
}

/// Work counters for one embedding call — how much routing effort the
/// heuristic spent. A cache hit reports zero route iterations, which is
/// how tests distinguish warm from cold embeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EmbedStats {
    /// Rip-up-and-reroute rounds executed, summed over all restarts.
    pub route_iterations: usize,
    /// Randomized restarts begun (1 = the first try succeeded).
    pub restarts: usize,
    /// Whether the embedding came out of an [`crate::EmbeddingCache`]
    /// without any routing work.
    pub cache_hit: bool,
    /// Dijkstra heap pops across all restarts.
    pub heap_pops: u64,
    /// Edges examined during Dijkstra relaxation across all restarts.
    pub edge_relaxations: u64,
    /// Stores into the memoized per-qubit weight array (incremental
    /// usage updates plus per-round penalty-base refills).
    pub weight_updates: u64,
}

impl EmbedStats {
    /// Adds the routing-work counters to the global telemetry recorder
    /// under a `{topology="family"}` label, so CI can budget each fabric
    /// on its own. It also adds the unlabeled `qac_route_iterations_total`
    /// and `qac_embed_restarts_total`, so in every exporter those two
    /// equal the sum of their labeled variants.
    ///
    /// The router adds the unlabeled heap-pop, edge-relaxation and
    /// weight-update totals itself, because only it sees the work of a
    /// search that fails (before a clique fallback or an error).
    fn export_topology_counters(&self, family: &str) {
        let telemetry = qac_telemetry::global();
        telemetry.counter_add("qac_route_iterations_total", self.route_iterations as u64);
        telemetry.counter_add("qac_embed_restarts_total", self.restarts as u64);
        for (name, value) in [
            ("qac_route_iterations_total", self.route_iterations as u64),
            ("qac_embed_restarts_total", self.restarts as u64),
            ("qac_embed_heap_pops_total", self.heap_pops),
            ("qac_embed_edge_relaxations_total", self.edge_relaxations),
            ("qac_embed_weight_updates_total", self.weight_updates),
        ] {
            telemetry.counter_add(&format!("{name}{{topology=\"{family}\"}}"), value);
        }
    }
}

/// Why embedding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmbedError {
    /// No valid embedding was found within the configured tries.
    NoEmbeddingFound {
        /// How many restarts were attempted.
        tries: usize,
    },
    /// The hardware graph has no active qubits.
    EmptyHardware,
}

impl std::fmt::Display for EmbedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmbedError::NoEmbeddingFound { tries } => {
                write!(f, "no minor embedding found after {tries} tries")
            }
            EmbedError::EmptyHardware => write!(f, "hardware graph has no active qubits"),
        }
    }
}

impl std::error::Error for EmbedError {}

/// A minor embedding: one chain of physical qubits per logical variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Embedding {
    chains: Vec<Vec<usize>>,
}

impl Embedding {
    /// Wraps pre-computed chains as an embedding (used by template
    /// constructions; validity is the caller's responsibility until
    /// [`Embedding::validate`] is run).
    pub fn from_chains(chains: Vec<Vec<usize>>) -> Embedding {
        Embedding { chains }
    }

    /// The chain for logical variable `v`.
    pub fn chain(&self, v: usize) -> &[usize] {
        &self.chains[v]
    }

    /// All chains, indexed by logical variable.
    pub fn chains(&self) -> &[Vec<usize>] {
        &self.chains
    }

    /// Number of logical variables.
    pub fn num_vars(&self) -> usize {
        self.chains.len()
    }

    /// Total physical qubits used (the §6.1 metric).
    pub fn num_physical_qubits(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }

    /// Length of the longest chain.
    pub fn max_chain_length(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Checks that the embedding is a valid minor embedding of `model`:
    /// one chain per variable, chains non-empty, disjoint and connected,
    /// and every coupling [`embed`] routes (every nonzero one) backed by
    /// at least one physical coupler.
    pub fn validate(&self, model: &Ising, hardware: &HardwareGraph) -> bool {
        let edges: Vec<_> = routed_couplings(model).collect();
        self.chains.len() == model.num_vars() && self.validate_edges(&edges, hardware)
    }

    /// [`Embedding::validate`] over an explicit logical edge list, whose
    /// endpoints must all have chains.
    pub(crate) fn validate_edges(
        &self,
        edges: &[(usize, usize)],
        hardware: &HardwareGraph,
    ) -> bool {
        let mut owner = vec![usize::MAX; hardware.num_nodes()];
        for (v, chain) in self.chains.iter().enumerate() {
            if chain.is_empty() {
                return false;
            }
            for &q in chain {
                if !hardware.is_active(q) || owner[q] != usize::MAX {
                    return false;
                }
                owner[q] = v;
            }
            if !hardware.is_connected_subset(chain) {
                return false;
            }
        }
        edges.iter().all(|&(u, v)| {
            self.chains[u].iter().any(|&a| {
                hardware
                    .neighbors(a)
                    .iter()
                    .any(|&b| owner.get(b) == Some(&v))
            })
        })
    }
}

/// The couplings that need a physical coupler: the model's nonzero ones,
/// in [`Ising::j_iter`] order. An explicit zero coupling contributes no
/// energy, so it is neither routed nor part of the cache key.
pub(crate) fn routed_couplings(model: &Ising) -> impl Iterator<Item = (usize, usize)> + '_ {
    model
        .j_iter()
        .filter(|t| t.value != 0.0)
        .map(|t| (t.i, t.j))
}

/// Minor-embeds `model` onto `hardware`, a graph of `topology`'s family:
/// the place-and-route step of the paper (§4.4), and the one way every
/// run, experiment and benchmark starts it.
///
/// * Routes the model's nonzero couplings; isolated variables still get
///   a single-qubit chain.
/// * With a `cache`, looks the problem up under [`embedding_key`] first
///   and routes only on a miss; a hit reports [`EmbedStats::cache_hit`]
///   with zero routing work. Failures are not cached.
/// * Falls back to the topology's
///   [`clique_embedding`](Topology::clique_embedding) template when the
///   heuristic fails (dense logical graphs). Families without a template
///   (Pegasus, Zephyr, king's graph) return the heuristic's error rather
///   than borrow another family's template. A fallback reports the
///   nominal work of the failed heuristic (`tries × rounds`).
/// * Adds the routing-work counters to the global telemetry recorder,
///   each under a `{topology="family"}` label, so CI can budget each
///   fabric on its own.
///
/// # Errors
/// [`EmbedError::NoEmbeddingFound`] when both the heuristic and the
/// template fail, or [`EmbedError::EmptyHardware`].
pub fn embed<T: Topology + ?Sized>(
    model: &Ising,
    topology: &T,
    hardware: &HardwareGraph,
    options: &EmbedOptions,
    cache: Option<&EmbeddingCache>,
) -> Result<(Embedding, EmbedStats), EmbedError> {
    let search = || {
        let edges: Vec<_> = routed_couplings(model).collect();
        let num_vars = model.num_vars();
        match find_embedding_with_stats(&edges, num_vars, hardware, options) {
            Err(err) => topology
                .clique_embedding(num_vars)
                .filter(|template| template.validate_edges(&edges, hardware))
                .map(|template| {
                    let stats = EmbedStats {
                        route_iterations: options.tries * options.rounds,
                        restarts: options.tries,
                        ..EmbedStats::default()
                    };
                    (template, stats)
                })
                .ok_or(err),
            found => found,
        }
    };
    let family = topology.family();
    let (embedding, stats) = match cache {
        Some(cache) => {
            let key = embedding_key(model, topology, hardware, options);
            cache.lookup_or_embed(key, family, search)?
        }
        None => search()?,
    };
    stats.export_topology_counters(family);
    Ok((embedding, stats))
}

/// Finds a minor embedding of the logical graph given by `edges` over
/// `num_vars` variables into `hardware` with the randomized heuristic
/// alone: the router core under [`embed`].
fn find_embedding_with_stats(
    edges: &[(usize, usize)],
    num_vars: usize,
    hardware: &HardwareGraph,
    options: &EmbedOptions,
) -> Result<(Embedding, EmbedStats), EmbedError> {
    if hardware.num_active() == 0 {
        return Err(EmbedError::EmptyHardware);
    }
    // Logical adjacency.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); num_vars];
    for &(u, v) in edges {
        assert!(u < num_vars && v < num_vars, "edge endpoint out of range");
        if u != v && !adj[u].contains(&v) {
            adj[u].push(v);
            adj[v].push(u);
        }
    }

    // Sequential restarts: one RNG threaded through the tries, stopping
    // at the first success (the golden-router test pins each seed's
    // result).
    let mut stats = EmbedStats::default();
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut scratch = RouterScratch::new(hardware);
    let mut found = None;
    for _try in 0..options.tries {
        stats.restarts += 1;
        if let Some(embedding) = attempt(
            &adj,
            options,
            &mut rng,
            &mut stats.route_iterations,
            &mut scratch,
        ) {
            found = Some(embedding);
            break;
        }
    }
    scratch.counters.accumulate_into(&mut stats);
    flush_route_counters(&stats);
    match found {
        Some(mut embedding) => {
            trim_chains(&mut embedding, &adj, hardware);
            debug_assert!(embedding.validate_edges(edges, hardware));
            Ok((embedding, stats))
        }
        None => Err(EmbedError::NoEmbeddingFound {
            tries: options.tries,
        }),
    }
}

/// Reports the scratch work counters to the global telemetry recorder
/// (no-ops when telemetry is disabled).
fn flush_route_counters(stats: &EmbedStats) {
    let recorder = qac_telemetry::global();
    recorder.counter_add("qac_embed_heap_pops_total", stats.heap_pops);
    recorder.counter_add("qac_embed_edge_relaxations_total", stats.edge_relaxations);
    recorder.counter_add("qac_embed_weight_updates_total", stats.weight_updates);
}

/// `parent` sentinel: the node is a Dijkstra source (or unreached).
const NO_PARENT: u32 = u32::MAX;

/// Max-heap entry on reversed order; ties between equal distances are
/// resolved purely by heap structure, which is a deterministic function
/// of the push/pop sequence.
///
/// The key is the distance\'s IEEE-754 bit pattern: for non-negative
/// finite floats (which all path distances are) the bit order equals the
/// numeric order, and equal bits ⇔ equal distances, so integer-keyed
/// sifts reproduce the float-keyed heap\'s structure exactly — at one
/// `cmp` per comparison instead of float-compare branching.
#[derive(PartialEq, Eq)]
struct Entry(u64, u32);
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Entry) -> std::cmp::Ordering {
        // Only the key participates: equal distances must compare Equal
        // regardless of node id, or tie-breaking would leave the heap\'s
        // hands and the routed chains would change.
        other.0.cmp(&self.0)
    }
}

/// Deterministic work counters for one scratch's lifetime.
#[derive(Debug, Clone, Copy, Default)]
struct RouteCounters {
    heap_pops: u64,
    edge_relaxations: u64,
    weight_updates: u64,
}

impl RouteCounters {
    fn accumulate_into(&self, stats: &mut EmbedStats) {
        stats.heap_pops += self.heap_pops;
        stats.edge_relaxations += self.edge_relaxations;
        stats.weight_updates += self.weight_updates;
    }
}

/// One *resumable* Dijkstra layer. Instead of epoch-stamping, the layer
/// keeps the list of nodes it touched and eagerly resets exactly those
/// distances to ∞ on the next [`DijkstraLayer::seed`] — so the
/// relaxation fast path (by far the hottest loop in the router) is a
/// single 8-byte load and compare, with no stamp to check. The layer
/// owns its frontier heap, so the search can pause at a distance bound
/// and resume with a larger one without redoing (or reordering) any
/// work.
struct DijkstraLayer {
    /// Tentative/final distance per node; ∞ ⇔ untouched this search.
    dist: Vec<f64>,
    /// Predecessor per node; meaningful only for touched nodes
    /// ([`NO_PARENT`] marks a source). Stale values from earlier
    /// searches are never read: path walks start at a finalized node
    /// and every hop lands on a node written this search.
    parent: Vec<u32>,
    /// Every node whose `dist` was written this search (sources and
    /// relaxed nodes) — the reset list for the next `seed`.
    touched: Vec<u32>,
    /// Bitset of finalized nodes (popped non-stale ⇒ dist is exact).
    /// Cleared on seed — it is `n/64` words, not `n`.
    fin: Vec<u64>,
    heap: BinaryHeap<Entry>,
    /// An entry popped past the bound, parked for the next resume. No
    /// push can happen while the layer is paused, so it is still ≤
    /// every heap entry and re-delivering it first preserves the exact
    /// pop sequence (while saving a peek per pop in the hot loop).
    pending: Option<Entry>,
    /// The frontier drained completely: every reachable node is final.
    exhausted: bool,
}

impl DijkstraLayer {
    fn new(n: usize) -> DijkstraLayer {
        DijkstraLayer {
            dist: vec![f64::INFINITY; n],
            parent: vec![NO_PARENT; n],
            touched: Vec::new(),
            fin: vec![0; n.div_ceil(64)],
            heap: BinaryHeap::new(),
            pending: None,
            exhausted: false,
        }
    }

    /// Starts a fresh multi-source search from `chain` (distance 0,
    /// parent [`NO_PARENT`]). No relaxation happens until
    /// [`DijkstraLayer::run_until`].
    fn seed(&mut self, chain: &[usize]) {
        for &t in &self.touched {
            self.dist[t as usize] = f64::INFINITY;
        }
        self.touched.clear();
        self.fin.fill(0);
        self.heap.clear();
        self.pending = None;
        self.exhausted = false;
        for &q in chain {
            self.dist[q] = 0.0;
            self.parent[q] = NO_PARENT;
            self.touched.push(q as u32);
            self.heap.push(Entry(0.0f64.to_bits(), q as u32));
        }
    }

    /// Advances the search until the frontier's nearest node is farther
    /// than `bound` (or the frontier drains). Distances are
    /// non-decreasing along any path, so on return every node with a
    /// true distance ≤ `bound` is final — and every non-final node is
    /// provably farther than `bound`. Resuming with a larger bound
    /// continues the *same* pop sequence, which is what keeps bounded
    /// runs byte-identical to an unbounded flood.
    ///
    /// Sources need no explicit skip: they sit at distance 0, and no
    /// relaxation can beat 0 with non-negative weights, so they are
    /// never re-parented — exactly the behavior of the historical
    /// explicit `is_source` check.
    fn run_until(
        &mut self,
        bound: f64,
        weight: &[f64],
        csr: &CsrNeighbors,
        counters: &mut RouteCounters,
    ) {
        if self.exhausted {
            return;
        }
        let bound_bits = bound.to_bits();
        let mut next_entry = self.pending.take();
        loop {
            let Entry(d_bits, q32) = match next_entry.take().or_else(|| self.heap.pop()) {
                Some(e) => e,
                None => {
                    self.exhausted = true;
                    return;
                }
            };
            if d_bits > bound_bits {
                self.pending = Some(Entry(d_bits, q32));
                return;
            }
            let d = f64::from_bits(d_bits);
            counters.heap_pops += 1;
            let q = q32 as usize;
            if d > self.dist[q] {
                continue; // stale entry; q was finalized closer
            }
            self.fin[q >> 6] |= 1u64 << (q & 63);
            // Stepping q → next adds q's own weight (q becomes interior),
            // except when q is a source chain node (free).
            let step = if self.parent[q] == NO_PARENT {
                0.0
            } else {
                weight[q]
            };
            let row = csr.neighbors(q);
            counters.edge_relaxations += row.len() as u64;
            let nd = d + step;
            for &next in row {
                let n = next as usize;
                let known = self.dist[n];
                if nd < known {
                    // ∞ ⇔ first touch this search (every relaxed nd is
                    // finite): record it for the next seed's reset.
                    if known == f64::INFINITY {
                        self.touched.push(next);
                    }
                    self.dist[n] = nd;
                    self.parent[n] = q32;
                    self.heap.push(Entry(nd.to_bits(), next));
                }
            }
        }
    }

    #[inline]
    fn parent(&self, q: usize) -> u32 {
        debug_assert!(
            self.dist[q].is_finite(),
            "parent queried for a node untouched by this search"
        );
        self.parent[q]
    }

    /// A proven lower bound on the true distance of every node this
    /// layer has *not* finalized (∞ once the frontier drains). Take the
    /// unfinalized node u with minimal true distance d*: the first
    /// unfinalized node along u's shortest path holds an unpopped entry
    /// keyed exactly at its true distance ≤ d*, and the parked entry is
    /// ≤ every live entry — so parked key ≤ d*.
    fn certified_level(&self) -> f64 {
        if self.exhausted {
            f64::INFINITY
        } else {
            match &self.pending {
                Some(e) => f64::from_bits(e.0),
                // Not yet advanced: only the trivial bound holds.
                None => 0.0,
            }
        }
    }
}

/// The router's reusable working set: allocated once per
/// [`embed`] search and shared by every
/// Dijkstra invocation across all rounds and restarts.
struct RouterScratch {
    /// CSR copy of the hardware adjacency restricted to **active**
    /// targets, in [`HardwareGraph`] neighbor order (order matters: it
    /// fixes heap tie-breaking; dropping inactive targets is behaviorally
    /// identical to skipping them per-edge, since an inactive qubit is
    /// never a source and never relaxed).
    csr: CsrNeighbors,
    /// Active flags, copied out of the hardware graph once.
    active: Vec<bool>,
    /// Current qubit usage counts (how many chains claim each qubit).
    usage: Vec<u32>,
    /// Memoized reuse penalty: `pow[min(usage[q], 8)]` for active
    /// qubits, `+∞` for inactive ones. Kept in sync incrementally by
    /// [`RouterScratch::inc_usage`]/[`RouterScratch::dec_usage`] and
    /// refilled when the round's penalty base changes.
    weight: Vec<f64>,
    /// `pow[k] = base^k` for the current round's base.
    pow: [f64; 9],
    /// The base `pow`/`weight` were computed for (NaN = needs refill).
    weight_base: f64,
    /// One Dijkstra layer per embedded neighbor of the variable being
    /// routed; grows to the maximum logical degree encountered.
    layers: Vec<DijkstraLayer>,
    /// Per-layer deepening targets for the current [`route_one`] call
    /// (reused across calls to stay allocation-free).
    deepen_targets: Vec<f64>,
    /// Per-layer certified levels, snapshotted once per audit pass.
    deepen_certs: Vec<f64>,
    /// Bitset of the nodes final in every layer whose total is already
    /// folded into the running minimum (see [`route_one`]).
    folded: Vec<u64>,
    /// Bitset of the partly final nodes that passed the certificate
    /// audit (see [`route_one`]).
    passed: Vec<u64>,
    counters: RouteCounters,
}

impl RouterScratch {
    fn new(hardware: &HardwareGraph) -> RouterScratch {
        let n = hardware.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for q in 0..n {
            targets.extend(
                hardware
                    .neighbors(q)
                    .iter()
                    .filter(|&&t| hardware.is_active(t))
                    .map(|&t| t as u32),
            );
            offsets.push(targets.len() as u32);
        }
        RouterScratch {
            csr: CsrNeighbors::from_parts(offsets, targets),
            active: (0..n).map(|q| hardware.is_active(q)).collect(),
            usage: vec![0; n],
            weight: vec![f64::INFINITY; n],
            pow: [0.0; 9],
            weight_base: f64::NAN,
            layers: Vec::new(),
            deepen_targets: Vec::new(),
            deepen_certs: Vec::new(),
            folded: vec![0; n.div_ceil(64)],
            passed: vec![0; n.div_ceil(64)],
            counters: RouteCounters::default(),
        }
    }

    /// Clears per-attempt state (usage counts; the weight memo is
    /// refilled lazily by the next [`RouterScratch::set_round_base`]).
    fn begin_attempt(&mut self) {
        self.usage.fill(0);
        self.weight_base = f64::NAN;
    }

    /// Installs the round's penalty base, rebuilding the power table and
    /// the weight memo if the base changed (it escalates for the first
    /// 13 rounds, then stays constant).
    fn set_round_base(&mut self, base: f64) {
        if self.weight_base == base {
            return;
        }
        for (k, slot) in self.pow.iter_mut().enumerate() {
            // Same `powi` the pre-scratch router used per relaxation, so
            // the memoized weights are bit-identical to the originals.
            *slot = base.powi(k as i32);
        }
        for q in 0..self.weight.len() {
            self.weight[q] = if self.active[q] {
                self.pow[self.usage[q].min(8) as usize]
            } else {
                f64::INFINITY
            };
        }
        self.counters.weight_updates += self.weight.len() as u64;
        self.weight_base = base;
    }

    #[inline]
    fn inc_usage(&mut self, q: usize) {
        self.usage[q] += 1;
        if self.active[q] {
            self.weight[q] = self.pow[self.usage[q].min(8) as usize];
            self.counters.weight_updates += 1;
        }
    }

    #[inline]
    fn dec_usage(&mut self, q: usize) {
        self.usage[q] -= 1;
        if self.active[q] {
            self.weight[q] = self.pow[self.usage[q].min(8) as usize];
            self.counters.weight_updates += 1;
        }
    }

    fn ensure_layers(&mut self, count: usize) {
        let n = self.usage.len();
        while self.layers.len() < count {
            self.layers.push(DijkstraLayer::new(n));
        }
    }
}

/// One randomized embedding attempt. Every rip-up-and-reroute round begun
/// is counted into `route_iterations`.
fn attempt(
    adj: &[Vec<usize>],
    options: &EmbedOptions,
    rng: &mut StdRng,
    route_iterations: &mut usize,
    scratch: &mut RouterScratch,
) -> Option<Embedding> {
    let n = adj.len();
    let mut chains: Vec<Vec<usize>> = vec![Vec::new(); n];
    scratch.begin_attempt();

    // Randomized BFS order over the logical graph: each variable is
    // placed while its already-placed neighbors sit close together, which
    // keeps the initial placement compact (long chains mostly come from
    // scattered placement).
    let mut order: Vec<usize> = Vec::with_capacity(n);
    {
        let mut seen = vec![false; n];
        let mut starts: Vec<usize> = (0..n).collect();
        starts.sort_by_key(|&v| std::cmp::Reverse(adj[v].len()));
        for &start in &starts {
            if seen[start] {
                continue;
            }
            let mut queue = std::collections::VecDeque::from([start]);
            seen[start] = true;
            while let Some(v) = queue.pop_front() {
                order.push(v);
                let mut next: Vec<usize> = adj[v].iter().copied().filter(|&u| !seen[u]).collect();
                next.shuffle(rng);
                for u in next {
                    seen[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }

    /// Extra improvement rounds after the first valid embedding.
    const POLISH_ROUNDS: usize = 8;
    let mut best: Option<(usize, Vec<Vec<usize>>)> = None;
    let mut first_success: Option<usize> = None;

    for round in 0..options.rounds {
        *route_iterations += 1;
        // The reuse penalty escalates with the improvement round so that
        // a persistent overlap eventually becomes costlier than any
        // detour (capped so polish rounds can still contract the layout).
        scratch.set_round_base(options.penalty_base * (1.0 + round.min(12) as f64));
        let mut overfull = false;
        // Conflict-directed rip-up: a pair of chains sharing a qubit can
        // oscillate forever if rerouted one at a time (each re-choosing
        // the overlap as its cheapest option). Tearing out every
        // conflicted chain simultaneously breaks the deadlock.
        let mut conflicted: Vec<usize> = (0..n)
            .filter(|&v| chains[v].iter().any(|&q| scratch.usage[q] > 1))
            .collect();
        for &v in &conflicted {
            for &q in &chains[v] {
                scratch.dec_usage(q);
            }
            chains[v].clear();
        }
        conflicted.shuffle(rng);
        let sequence: Vec<usize> = conflicted
            .iter()
            .copied()
            .chain(order.iter().copied().filter(|v| !conflicted.contains(v)))
            .collect();
        for &v in &sequence {
            // Rip up v.
            for &q in &chains[v] {
                scratch.dec_usage(q);
            }
            chains[v].clear();
            // Re-route v (paths may donate qubits to neighbor chains).
            let (chain, donations) = route_one(v, adj, &chains, scratch, rng)?;
            for &q in &chain {
                scratch.inc_usage(q);
            }
            chains[v] = chain;
            for (u, donated) in donations {
                for q in donated {
                    if !chains[u].contains(&q) {
                        scratch.inc_usage(q);
                        chains[u].push(q);
                    }
                }
            }
        }
        for &u in scratch.usage.iter() {
            if u > 1 {
                overfull = true;
                break;
            }
        }
        if !overfull && chains.iter().all(|c| !c.is_empty()) {
            let total: usize = chains.iter().map(Vec::len).sum();
            let improved = best.as_ref().is_none_or(|(bt, _)| total < *bt);
            if improved {
                best = Some((total, chains.clone()));
            }
            if first_success.is_none() {
                first_success = Some(round);
            }
            // Polish budget: keep rerouting a while to shrink chains,
            // then stop (CMR's improvement phase).
            if round >= first_success.unwrap() + POLISH_ROUNDS {
                break;
            }
        }
        // Mild reshuffle between rounds helps escape ties.
        if round % 4 == 3 {
            order.shuffle(rng);
        }
    }
    best.map(|(_, chains)| Embedding { chains })
}

/// How far past its certified level one escalation may move a layer's
/// deepening target: half the minimum qubit weight (`pow[0] = base^0 =
/// 1`), so each step finalizes the layer's next distance level and no
/// more when weights are whole numbers.
const DEEPEN_STEP: f64 = 0.5;

/// Raises a deepening `target` toward `want`, at most [`DEEPEN_STEP`]
/// past the layer's certified level `cert` and never past `cap`;
/// returns whether the target rose.
fn raise_target(target: &mut f64, want: f64, cert: f64, cap: f64) -> bool {
    let next = want.min(cert + DEEPEN_STEP).min(cap);
    if next > *target {
        *target = next;
        true
    } else {
        false
    }
}

/// Computes a chain for `v` connecting to all currently-embedded
/// neighbors, using weighted Dijkstra from each neighbor chain (out of
/// the scratch's memoized weights and reusable layers).
#[allow(clippy::type_complexity)]
fn route_one(
    v: usize,
    adj: &[Vec<usize>],
    chains: &[Vec<usize>],
    scratch: &mut RouterScratch,
    rng: &mut StdRng,
) -> Option<(Vec<usize>, Vec<(usize, Vec<usize>)>)> {
    let embedded_neighbors: Vec<usize> = adj[v]
        .iter()
        .copied()
        .filter(|&u| !chains[u].is_empty())
        .collect();

    if embedded_neighbors.is_empty() {
        // Fresh start: any cheapest active qubit.
        let mut best: Vec<usize> = Vec::new();
        let mut best_w = f64::INFINITY;
        for (q, &w) in scratch.weight.iter().enumerate() {
            if w < best_w {
                best_w = w;
                best.clear();
                best.push(q);
            } else if w == best_w {
                best.push(q);
            }
        }
        if best.is_empty() || best_w.is_infinite() {
            return None;
        }
        return Some((vec![best[rng.gen_range(0..best.len())]], Vec::new()));
    }

    // Bounded multi-source Dijkstra from each neighbor chain into its
    // own scratch layer, then pick the root g minimizing
    // w(g) + Σ dist_u(g), where dist excludes the endpoint's own weight
    // (g is paid for exactly once).
    //
    // The searches are advanced by paced iterative deepening with
    // per-layer bounds: run each layer up to its own target, fold the
    // nodes that just became final in *every* layer into the running
    // minimum, and stop once a certificate audit (below) proves no
    // other node could enter the ±1e-12 tie list. One ascending scan of
    // the all-final nodes then builds the tie list. Bounding is thus
    // invisible: the tie list, the RNG draw, and the resulting chain are
    // byte-identical to an unbounded flood (the golden-router test and
    // the exhaustive oracle test pin this). On a large chip this is the
    // difference between flooding 2048 qubits per reroute (k times
    // over) and touching only the k small balls that can actually win.
    let k = embedded_neighbors.len();
    scratch.ensure_layers(k);
    for (i, &u) in embedded_neighbors.iter().enumerate() {
        scratch.layers[i].seed(&chains[u]);
    }
    // Per-layer deepening targets, paced: every layer starts one step
    // past level 0, and each escalation moves a layer at most one step
    // past the level it has already certified, never past `cap` below.
    // So no layer finalizes more than one level beyond what the current
    // best could still need, and a fresher, lower best cuts the next
    // escalation instead of finding layers that already overshot it.
    // The target schedule is pure performance — ANY schedule that
    // passes the audit produces the identical tie list.
    scratch.deepen_targets.clear();
    scratch.deepen_targets.resize(k, DEEPEN_STEP);
    scratch.folded.fill(0);
    scratch.passed.fill(0);
    // The minimum total over the nodes final in every layer: exact for
    // those nodes, and it only falls as more of them become all-final.
    let mut min_total = f64::INFINITY;
    loop {
        for i in 0..k {
            scratch.layers[i].run_until(
                scratch.deepen_targets[i],
                &scratch.weight,
                &scratch.csr,
                &mut scratch.counters,
            );
        }
        // Fold in the nodes that became final in every layer since the
        // last pass (each exactly once).
        let RouterScratch {
            layers,
            weight,
            deepen_targets: targets,
            deepen_certs: certs,
            folded,
            passed,
            ..
        } = &mut *scratch;
        let layers = &layers[..k];
        for (w, done) in folded.iter_mut().enumerate() {
            let mut acc = layers[0].fin[w];
            for layer in &layers[1..] {
                acc &= layer.fin[w];
            }
            let mut new = acc & !*done;
            *done = acc;
            while new != 0 {
                let g = (w << 6) + new.trailing_zeros() as usize;
                new &= new - 1;
                let mut total = weight[g];
                for layer in layers {
                    total += layer.dist[g];
                }
                min_total = min_total.min(total);
            }
        }
        if layers.iter().all(|l| l.exhausted) {
            break; // Every reachable node is final; the scan will be exact.
        }
        certs.clear();
        certs.extend(layers.iter().map(DijkstraLayer::certified_level));
        if !min_total.is_finite() {
            // The balls have not met yet: advance every live layer one
            // step, staying balanced.
            for i in 0..k {
                if !layers[i].exhausted {
                    targets[i] = certs[i] + DEEPEN_STEP;
                }
            }
            continue;
        }
        // ---- Certificate audit ----------------------------------------
        // `min_total` is exact over the all-final nodes; the audit must
        // prove every OTHER node's total exceeds best + tie-tolerance.
        // Per-layer certified level C_i lower-bounds any dist that layer
        // has not finalized, and every candidate's own weight is
        // ≥ pow[0] = 1 exactly, so a node finalized in S ⊊ layers has
        //   total ≥ w(g) + Σ_S dist_i(g) + Σ_∉S C_i          (per-node audit)
        // Nodes finalized in no layer need no check of their own. Every
        // target is ≥ DEEPEN_STEP > 0, so each layer has finalized its
        // chain and every node at distance 0 (a chain's neighbors). Take
        // a node g finalized in no layer with total(g) ≤ best + 1e-9 and
        // layer 0's shortest path to g; let x be its last node finalized
        // in layer 0. x is not a chain node (the path's next node would sit at
        // distance 0 and be final), so dist_0(x) + w(x) ≤ dist_0(g). In
        // every other layer i, x is either unfinalized (counted at C_i)
        // or final at dist_i(x) ≤ C_i, and C_i ≤ dist_i(g) since g is
        // unfinalized. Hence x's audit bound (its exact total, if x is
        // final everywhere) is ≤ total(g) − w(g) ≤ best + 1e-9 − 1: a
        // partly final x fails the audit and escalates, and an all-final
        // x would undercut `best`, which is impossible. So once the
        // audit passes, no node finalized nowhere is competitive.
        // Margins are conservative: auditing against best + 1e-9 and
        // escalating to cover best + 2e-9 can only delay certification
        // (the tie tolerance is 1e-12), never admit a wrong tie list.
        // Progress is guaranteed: a failed check always names a layer
        // whose certified level is below `cap`, and run_until leaves the
        // parked frontier strictly above the bound it ran to, so that
        // layer's target strictly increases; at all-targets = cap every
        // check passes (cap is the old single-bound certificate).
        let best = min_total;
        let cap = best - 1.0 + 2e-9;
        let mut escalated = false;
        // Audit nodes finalized in some layers but not all: walk
        // (∪ fin) \ (∩ fin) and escalate exactly the layers that fail to
        // prove a node uncompetitive. A node's bound only rises as layers
        // finalize it and certified levels rise, and `best` only falls,
        // so a node that passes once is skipped for good.
        for (w, pass) in passed.iter_mut().enumerate() {
            let mut all = layers[0].fin[w];
            let mut any = all;
            for layer in &layers[1..] {
                all &= layer.fin[w];
                any |= layer.fin[w];
            }
            let mut part = any & !all & !*pass;
            while part != 0 {
                let g = (w << 6) + part.trailing_zeros() as usize;
                let bit = 1u64 << (g & 63);
                part &= part - 1;
                let mut lb = weight[g];
                for (layer, &c) in layers.iter().zip(certs.iter()) {
                    lb += if layer.fin[w] & bit != 0 {
                        layer.dist[g]
                    } else {
                        c
                    };
                }
                if lb > best + 1e-9 {
                    *pass |= bit;
                    continue;
                }
                for (i, layer) in layers.iter().enumerate() {
                    if layer.fin[w] & bit == 0 {
                        let need = best + 2e-9 - (lb - certs[i]);
                        escalated |= raise_target(&mut targets[i], need, certs[i], cap);
                    }
                }
            }
        }
        if !escalated {
            break; // Certified: the tie list is provably complete.
        }
    }
    // Candidate roots are nodes final in *every* layer: AND the
    // finalized bitsets word by word, then walk the set bits in
    // ascending order (the same candidate order as a plain 0..n sweep,
    // which the tie list depends on).
    let mut best_g: Vec<usize> = Vec::new();
    let mut best_cost = f64::INFINITY;
    for w in 0..scratch.layers[0].fin.len() {
        let mut acc = scratch.layers[0].fin[w];
        for layer in &scratch.layers[1..k] {
            acc &= layer.fin[w];
        }
        while acc != 0 {
            let g = (w << 6) + acc.trailing_zeros() as usize;
            acc &= acc - 1;
            let wg = scratch.weight[g];
            if wg.is_infinite() {
                continue;
            }
            let mut total = wg;
            for layer in &scratch.layers[..k] {
                total += layer.dist[g];
            }
            if total < best_cost - 1e-12 {
                best_cost = total;
                best_g.clear();
                best_g.push(g);
            } else if (total - best_cost).abs() <= 1e-12 {
                best_g.push(g);
            }
        }
    }
    #[cfg(test)]
    oracle::check(scratch, &embedded_neighbors, chains, &best_g, best_cost);
    if best_g.is_empty() {
        return None;
    }
    let g = best_g[rng.gen_range(0..best_g.len())];

    // Collect the paths g → each neighbor chain. Following minorminer,
    // each path's interior is split: the half nearer g joins v's chain,
    // the half nearer u is donated to u's chain. This keeps hub
    // variables from accumulating enormous chains, which matters both
    // for qubit counts (§6.1) and for sampler mixing.
    let mut chain: Vec<usize> = vec![g];
    let mut donations: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, &u) in embedded_neighbors.iter().enumerate() {
        let mut interior: Vec<usize> = Vec::new();
        let mut cur = g;
        loop {
            let p = scratch.layers[i].parent(cur);
            if p == NO_PARENT {
                break; // cur is inside chain(u)
            }
            let p = p as usize;
            if p == cur {
                break;
            }
            cur = p;
            if chains[u].contains(&cur) {
                break;
            }
            interior.push(cur);
        }
        // interior[0] is adjacent to g, interior.last() adjacent to chain(u).
        let keep = interior.len().div_ceil(2);
        let mut donated: Vec<usize> = Vec::new();
        for (pos, q) in interior.into_iter().enumerate() {
            if pos < keep {
                if !chain.contains(&q) {
                    chain.push(q);
                }
            } else if !chain.contains(&q) && !donated.contains(&q) {
                donated.push(q);
            }
        }
        if !donated.is_empty() {
            donations.push((u, donated));
        }
    }
    Some((chain, donations))
}

/// Removes chain qubits that are not needed for connectivity or for any
/// logical edge (cheap post-pass; reduces the §6.1 qubit counts).
///
/// Works on per-qubit alive flags over the original chain order — the
/// candidate scan order and therefore the result are identical to the
/// historical clone-per-scan implementation, without its O(L²) copies.
fn trim_chains(embedding: &mut Embedding, adj: &[Vec<usize>], hardware: &HardwareGraph) {
    let n = embedding.chains.len();
    let mut rest: Vec<usize> = Vec::new();
    for (v, logical_neighbors) in adj.iter().enumerate().take(n) {
        let len = embedding.chains[v].len();
        if len <= 1 {
            continue;
        }
        let mut alive = vec![true; len];
        let mut alive_count = len;
        // Repeatedly scan candidates in (surviving) chain order, drop the
        // first removable qubit, and restart — the fixed point is reached
        // when a full scan removes nothing.
        'scan: while alive_count > 1 {
            let chain = &embedding.chains[v];
            for idx in 0..len {
                if !alive[idx] {
                    continue;
                }
                rest.clear();
                rest.extend(
                    chain
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| alive[i] && i != idx)
                        .map(|(_, &q)| q),
                );
                if !hardware.is_connected_subset(&rest) {
                    continue;
                }
                // Every logical neighbor must stay physically adjacent.
                let still_ok = logical_neighbors.iter().all(|&u| {
                    let other = &embedding.chains[u];
                    rest.iter()
                        .any(|&a| hardware.neighbors(a).iter().any(|&b| other.contains(&b)))
                });
                if still_ok {
                    alive[idx] = false;
                    alive_count -= 1;
                    continue 'scan;
                }
            }
            break;
        }
        if alive_count < len {
            let kept: Vec<usize> = embedding.chains[v]
                .iter()
                .enumerate()
                .filter(|&(i, _)| alive[i])
                .map(|(_, &q)| q)
                .collect();
            embedding.chains[v] = kept;
        }
    }
}

/// A test-only reference for [`route_one`]'s root search: fresh layers
/// run to exhaustion and one plain `0..n` scan, with no deepening and no
/// certificate. While enabled on a thread, every `route_one` call on it
/// asserts that its tie list, root cost and root-to-chain paths equal the
/// oracle's.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::cell::Cell;

    /// What the oracle checked while enabled.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct Tally {
        /// `route_one` calls with at least one embedded neighbor.
        pub calls: usize,
        /// Those made while some qubit was shared by two chains, so its
        /// weight was `base^2` or more.
        pub contested: usize,
    }

    thread_local! {
        static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
    }

    /// Runs `f` with the oracle enabled on this thread.
    pub(super) fn enabled<R>(f: impl FnOnce() -> R) -> (R, Tally) {
        TALLY.set(Some(Tally::default()));
        let result = f();
        (result, TALLY.take().expect("oracle enabled"))
    }

    pub(super) fn check(
        scratch: &RouterScratch,
        neighbors: &[usize],
        chains: &[Vec<usize>],
        best_g: &[usize],
        best_cost: f64,
    ) {
        let Some(mut tally) = TALLY.get() else {
            return;
        };
        let n = scratch.weight.len();
        let mut counters = RouteCounters::default();
        let full: Vec<DijkstraLayer> = neighbors
            .iter()
            .map(|&u| {
                let mut layer = DijkstraLayer::new(n);
                layer.seed(&chains[u]);
                layer.run_until(f64::INFINITY, &scratch.weight, &scratch.csr, &mut counters);
                assert!(layer.exhausted);
                layer
            })
            .collect();
        let mut ties: Vec<usize> = Vec::new();
        let mut cost = f64::INFINITY;
        for g in 0..n {
            let mut total = scratch.weight[g];
            for layer in &full {
                total += layer.dist[g];
            }
            if !total.is_finite() {
                continue; // inactive, or unreachable from some chain
            }
            if total < cost - 1e-12 {
                cost = total;
                ties.clear();
                ties.push(g);
            } else if (total - cost).abs() <= 1e-12 {
                ties.push(g);
            }
        }
        assert_eq!(best_g, ties, "tie list differs from exhaustion");
        assert_eq!(best_cost.to_bits(), cost.to_bits(), "root cost differs");
        let path = |layer: &DijkstraLayer, mut q: usize| {
            let mut hops = vec![q];
            while layer.parent(q) != NO_PARENT {
                q = layer.parent(q) as usize;
                hops.push(q);
            }
            hops
        };
        for &g in &ties {
            for (bounded, exhausted) in scratch.layers.iter().zip(&full) {
                assert_eq!(
                    path(bounded, g),
                    path(exhausted, g),
                    "root {g}: path differs"
                );
            }
        }
        tally.calls += 1;
        if scratch.usage.iter().any(|&u| u > 1) {
            tally.contested += 1;
        }
        TALLY.set(Some(tally));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chimera, KingGraph, Pegasus, Zephyr};

    fn opts(seed: u64) -> EmbedOptions {
        EmbedOptions {
            seed,
            ..Default::default()
        }
    }

    /// The router core alone, without the clique fallback.
    fn route(
        edges: &[(usize, usize)],
        num_vars: usize,
        hardware: &HardwareGraph,
        options: &EmbedOptions,
    ) -> Result<Embedding, EmbedError> {
        find_embedding_with_stats(edges, num_vars, hardware, options).map(|(e, _)| e)
    }

    /// `K_n` with unit ferromagnetic couplings.
    fn complete(n: usize) -> Ising {
        let mut model = Ising::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                model.add_j(i, j, -1.0);
            }
        }
        model
    }

    #[test]
    fn single_variable() {
        let hw = Chimera::new(1).graph();
        let e = route(&[], 1, &hw, &opts(1)).unwrap();
        assert_eq!(e.num_vars(), 1);
        assert_eq!(e.num_physical_qubits(), 1);
        assert!(e.validate(&Ising::new(1), &hw));
    }

    #[test]
    fn edge_embeds_directly() {
        let hw = Chimera::new(1).graph();
        let edges = [(0, 1)];
        let e = route(&edges, 2, &hw, &opts(2)).unwrap();
        assert!(e.validate(&complete(2), &hw));
        // An edge fits on adjacent qubits without chains.
        assert_eq!(e.num_physical_qubits(), 2);
    }

    #[test]
    fn triangle_needs_a_chain() {
        // Chimera is bipartite: K3 requires at least one 2-qubit chain.
        let hw = Chimera::new(1).graph();
        let edges = [(0, 1), (1, 2), (0, 2)];
        let e = route(&edges, 3, &hw, &opts(3)).unwrap();
        assert!(e.validate(&complete(3), &hw));
        assert!(e.num_physical_qubits() >= 4);
        assert!(e.max_chain_length() >= 2);
    }

    #[test]
    fn k5_embeds_in_one_cell_plus() {
        let chimera = Chimera::new(2);
        let hw = chimera.graph();
        let (e, _) = embed(&complete(5), &chimera, &hw, &opts(4), None).unwrap();
        assert!(e.validate(&complete(5), &hw));
    }

    #[test]
    fn k8_embeds_in_c4_via_fallback() {
        let chimera = Chimera::new(4);
        let hw = chimera.graph();
        let fast = EmbedOptions {
            tries: 2,
            rounds: 12,
            ..opts(5)
        };
        let (e, _) = embed(&complete(8), &chimera, &hw, &fast, None).unwrap();
        assert!(e.validate(&complete(8), &hw));
    }

    #[test]
    fn pegasus_has_no_chimera_template_and_uses_the_router() {
        // The clique fallback is a Topology hook. Pegasus returns None
        // from clique_embedding, so a dense graph either routes
        // heuristically on the *Pegasus* graph or fails outright — it
        // must never come back as Chimera's triangle template (whose
        // qubit indices mean something else entirely on a Pegasus
        // fabric).
        let pegasus = crate::Pegasus::new(2);
        let hw = pegasus.graph();
        // K6 routes fine on P2 (degree 15): the hook returning None must
        // not prevent the heuristic from succeeding.
        let (e, _) = embed(&complete(6), &pegasus, &hw, &opts(3), None).unwrap();
        assert!(e.validate(&complete(6), &hw));

        // An impossible problem (more variables than qubits) must
        // surface the router's error — with no template to fall back
        // on, there is nothing to mask it.
        let n = pegasus.num_qubits() + 1;
        let mut ring = Ising::new(n);
        for i in 0..n {
            ring.add_j(i, (i + 1) % n, 1.0);
        }
        let fast = EmbedOptions {
            tries: 1,
            rounds: 4,
            ..opts(9)
        };
        assert!(matches!(
            embed(&ring, &pegasus, &hw, &fast, None),
            Err(EmbedError::NoEmbeddingFound { .. })
        ));
    }

    #[test]
    fn clique_template_is_valid_up_to_4m() {
        for m in [2usize, 4] {
            let chimera = Chimera::new(m);
            let hw = chimera.graph();
            for n in [1usize, 4, 4 * m - 1, 4 * m] {
                let e = chimera.clique_embedding(n).unwrap();
                assert!(e.validate(&complete(n), &hw), "K{n} template on C{m}");
            }
            assert!(chimera.clique_embedding(4 * m + 1).is_none());
        }
    }

    #[test]
    fn random_sparse_graph_embeds_with_dropout() {
        let hw = Chimera::new(4).graph_with_dropout(0.03, 7);
        // A random-ish sparse graph on 12 nodes.
        let edges: Vec<(usize, usize)> = (0..12)
            .flat_map(|i| [(i, (i + 1) % 12), (i, (i + 3) % 12)])
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        let e = route(&edges, 12, &hw, &opts(6)).unwrap();
        assert!(e.validate_edges(&edges, &hw));
        // Dropped qubits are never used.
        for chain in e.chains() {
            for &q in chain {
                assert!(hw.is_active(q));
            }
        }
    }

    #[test]
    fn impossible_embedding_reports_failure() {
        // K9 cannot fit in a single unit cell (8 qubits), and a C1 has
        // no K9 template to fall back on.
        let chimera = Chimera::new(1);
        let hw = chimera.graph();
        let fast = EmbedOptions {
            tries: 2,
            rounds: 8,
            ..opts(8)
        };
        assert!(matches!(
            embed(&complete(9), &chimera, &hw, &fast, None),
            Err(EmbedError::NoEmbeddingFound { .. })
        ));
    }

    #[test]
    fn randomized_qubit_counts_vary_by_seed() {
        // §6.1: "the number of physical qubits varies from compilation to
        // compilation" — different seeds should explore different embeddings.
        let chimera = Chimera::new(3);
        let hw = chimera.graph();
        let counts: Vec<usize> = (0..6)
            .map(|s| {
                embed(&complete(7), &chimera, &hw, &opts(100 + s), None)
                    .unwrap()
                    .0
                    .num_physical_qubits()
            })
            .collect();
        // All valid; at least produce a spread or equal minimal counts.
        assert!(counts.iter().all(|&c| c >= 7));
    }

    #[test]
    fn stats_count_routing_work() {
        let chimera = Chimera::new(2);
        let hw = chimera.graph();
        let (e, stats) = embed(&complete(3), &chimera, &hw, &opts(3), None).unwrap();
        assert!(e.validate(&complete(3), &hw));
        assert!(stats.route_iterations >= 1, "at least one round ran");
        assert!(stats.restarts >= 1);
        assert!(!stats.cache_hit);
        // The scratch work counters move with real routing work.
        assert!(stats.heap_pops > 0, "Dijkstra ran: {stats:?}");
        assert!(stats.edge_relaxations > 0, "edges were relaxed: {stats:?}");
        assert!(stats.weight_updates > 0, "weights were memoized: {stats:?}");
    }

    /// Every root search of whole embeddings — early placement, rip-up
    /// rounds where overlapping qubits weigh `base^2` and more, polish
    /// rounds — must return exactly what exhaustive layers return, on
    /// every fabric family and for several seeds.
    #[test]
    fn bounded_root_search_matches_an_exhaustive_oracle() {
        // Each fabric with a clique size that crowds it.
        let fabrics = [
            (
                "chimera with dropout",
                Chimera::new(4).graph_with_dropout(0.05, 3),
                8,
            ),
            ("pegasus", Pegasus::new(3).graph(), 10),
            ("zephyr", Zephyr::new(2).graph(), 14),
            ("king", KingGraph::new(11).graph(), 8),
        ];
        for (name, hardware, clique) in &fabrics {
            let clique_edges: Vec<(usize, usize)> = (0..*clique)
                .flat_map(|i| ((i + 1)..*clique).map(move |j| (i, j)))
                .collect();
            let mut checked = oracle::Tally::default();
            for seed in 1..=3u64 {
                // A random graph on 16 vars: a ring plus two random chords
                // per variable.
                let mut rng = StdRng::seed_from_u64(seed);
                let sparse: Vec<(usize, usize)> = (0..16)
                    .flat_map(|i| {
                        [
                            (i, (i + 1) % 16),
                            (i, rng.gen_range(0..16)),
                            (i, rng.gen_range(0..16)),
                        ]
                    })
                    .filter(|&(a, b)| a != b)
                    .collect();
                for (edges, num_vars) in [(&clique_edges, *clique), (&sparse, 16)] {
                    // Two tries bound the work; a failed search is
                    // checked call by call all the same.
                    let options = EmbedOptions {
                        tries: 2,
                        ..opts(seed)
                    };
                    let (_, tally) = oracle::enabled(|| {
                        find_embedding_with_stats(edges, num_vars, hardware, &options)
                    });
                    checked.calls += tally.calls;
                    checked.contested += tally.contested;
                }
            }
            assert!(
                checked.contested > 0 && checked.calls > checked.contested,
                "{name}: too few states checked ({checked:?})"
            );
        }
        // Inputs on which the global bound "a node finalized in no layer
        // costs at least 1 + Σ C_i" asks some layer to deepen past what
        // the per-node audit asks for, with k ≥ 3 layers (4 and 2 such
        // escalations). `route_one` certifies those nodes by the per-node
        // audit alone (its comment has the proof); these cases pin the
        // tie lists where the two differ. Row i lists the neighbors
        // j > i of variable i.
        let deficit_cases: [(&str, HardwareGraph, &[&[usize]], u64); 2] = [
            (
                "chimera C2",
                Chimera::new(2).graph(),
                &[
                    &[1, 2, 4, 5, 7],
                    &[2, 3, 4, 7, 9],
                    &[3, 4, 5, 8, 9],
                    &[5],
                    &[6, 7, 8, 9],
                    &[6, 7, 8, 9],
                    &[7, 9],
                    &[8],
                    &[9],
                    &[],
                ],
                6,
            ),
            (
                "king 6x6",
                KingGraph::new(6).graph(),
                &[&[2, 3, 4, 5], &[4, 5], &[3, 4, 5], &[5], &[5], &[]],
                25,
            ),
        ];
        for (name, hardware, rows, seed) in &deficit_cases {
            let edges: Vec<(usize, usize)> = rows
                .iter()
                .enumerate()
                .flat_map(|(i, row)| row.iter().map(move |&j| (i, j)))
                .collect();
            let options = EmbedOptions {
                tries: 2,
                ..opts(*seed)
            };
            let (_, tally) = oracle::enabled(|| {
                find_embedding_with_stats(&edges, rows.len(), hardware, &options)
            });
            assert!(tally.calls > 0, "{name}: no root search checked");
        }
    }

    #[test]
    fn empty_hardware_rejected() {
        let mut hw = HardwareGraph::new(2);
        hw.add_edge(0, 1);
        hw.deactivate(0);
        hw.deactivate(1);
        assert_eq!(
            route(&[(0, 1)], 2, &hw, &opts(9)),
            Err(EmbedError::EmptyHardware)
        );
    }

    #[test]
    fn explicit_zero_couplings_are_not_routed() {
        // A model and the same model with an explicit zero coupling are
        // one routing problem: same chains, same work, same cache key.
        let chimera = Chimera::new(2);
        let hw = chimera.graph();
        let options = opts(3);
        let mut plain = Ising::new(4);
        plain.add_j(0, 1, -1.0);
        plain.add_j(1, 2, 0.5);
        plain.add_j(2, 3, -0.25);
        let mut zeroed = plain.clone();
        zeroed.add_j(0, 3, 0.0);
        assert_eq!(zeroed.num_couplings(), plain.num_couplings() + 1);

        let (chains, stats) = embed(&plain, &chimera, &hw, &options, None).unwrap();
        let (zero_chains, zero_stats) = embed(&zeroed, &chimera, &hw, &options, None).unwrap();
        assert_eq!(chains, zero_chains);
        assert_eq!(stats, zero_stats);
        assert_eq!(
            embedding_key(&plain, &chimera, &hw, &options),
            embedding_key(&zeroed, &chimera, &hw, &options)
        );
        assert!(chains.validate(&zeroed, &hw));
    }

    #[test]
    fn validate_rejects_a_chain_count_mismatch() {
        // Too few chains used to index past the end; too many leave
        // variables the model does not have.
        let hw = Chimera::new(1).graph();
        let model = complete(3);
        let short = Embedding::from_chains(vec![vec![0], vec![4]]);
        assert!(!short.validate(&model, &hw));
        let long = Embedding::from_chains(vec![vec![0], vec![4], vec![1, 5], vec![2]]);
        assert!(!long.validate(&model, &hw));
    }
}
