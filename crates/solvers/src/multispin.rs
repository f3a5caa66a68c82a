//! Bit-parallel multi-spin simulated annealing: 64 replicas per machine
//! word.
//!
//! Classical SA is the throughput floor for the paper's "run verifiers
//! backward at scale" workflow (§2, §6), where a textbook
//! one-read-at-a-time Metropolis walk pays an `exp()` and a
//! data-dependent branch per proposal. This module packs 64
//! *independent* replicas into one `u64` per variable (bit L = replica
//! L's spin, 1 = [`Spin::Up`]) and sweeps all of them at once:
//!
//! * flips are XOR masks, masked by an `active` lane set so partial
//!   words (reads not a multiple of 64) never leak garbage lanes;
//! * per-lane local fields (`f32`, lane-major rows of 64) are the
//!   incremental delta-energy tables — a proposal is one multiply, and
//!   a flip updates each CSR neighbor row with one masked axpy;
//! * Metropolis acceptance is table-driven: accept iff
//!   `β·δ ≤ T[u8]` with `T[k] = −ln((k+0.5)/256)`, so the hot loop does
//!   no `exp()` and draws one cheap xorshift64 word per lane;
//! * every lane owns a splitmix64-derived seed from a salted family
//!   (`lane_seed`, DESIGN.md §13).
//!
//! [`BitParallelSa`] (independent annealing restarts, behind
//! `SolverChoice::Sa`) runs the kernel. It is deterministic under a
//! fixed seed at any thread count, and
//! [`BitParallelSa::sample_reference`] provides a mask-width-1 scalar
//! oracle that the packed kernel must match bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use qac_pbf::{Ising, Spin};

use crate::{SampleSet, Sampler};

/// Weyl increment of the splitmix64 generator (the golden-ratio
/// constant γ).
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Salt of the replica-lane seed family (`b"LANE_SAL"`); see
/// [`lane_seed`] and DESIGN.md §13.
const LANE_SEED_SALT: u64 = 0x4c41_4e45_5f53_414c;

/// The splitmix64 finalizer (Steele et al., "Fast splittable
/// pseudorandom number generators").
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The RNG seed of replica lane `replica` (global index: word·64 +
/// lane) under sampler base seed `base`.
///
/// The family is salted with [`LANE_SEED_SALT`] *before* the first
/// splitmix finalize and spaced by the golden gamma before the second,
/// so its streams are pairwise distinct — pinned by this module's
/// seed-family test.
fn lane_seed(base: u64, replica: u64) -> u64 {
    splitmix64(
        splitmix64(base ^ LANE_SEED_SALT)
            .wrapping_add(replica.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)),
    )
}

/// xorshift64 (Marsaglia 2003): shift/xor only, so LLVM can vectorize
/// 64 independent streams, unlike multiply-based mixers.
#[inline]
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// xorshift64 has one absorbing state (0); seeds come from splitmix64,
/// so 0 occurs with probability 2⁻⁶⁴, but guard anyway.
#[inline]
fn nonzero_state(seed: u64) -> u64 {
    if seed == 0 {
        GOLDEN_GAMMA
    } else {
        seed
    }
}

/// Metropolis acceptance thresholds: accept a move of energy delta δ at
/// inverse temperature β iff `β·δ ≤ T[u]` for a uniform byte `u`, where
/// `T[u] = −ln((u+0.5)/256)` — i.e. compare against −ln(uniform)
/// without an `exp()` in the hot loop. T > 0 everywhere, so downhill
/// moves (δ ≤ 0) are accepted by the same comparison.
fn accept_table() -> [f32; 256] {
    let mut table = [0.0f32; 256];
    for (k, slot) in table.iter_mut().enumerate() {
        *slot = (-(((k as f64) + 0.5) / 256.0).ln()) as f32;
    }
    table
}

/// Lane mask with the low `lanes` bits set (all 64 when `lanes ≥ 64`).
#[inline]
fn active_mask(lanes: usize) -> u64 {
    if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Greedy-descent flip threshold. The kernel works in f32 (twice the
/// SIMD width of f64); 1e-5 is far above f32 rounding noise at the
/// corpus' O(1) coupling scale and far below any real energy gap.
const DESCENT_EPS: f32 = 1e-5;

/// Backstop for the descent loop: each pass flips at least one spin and
/// lowers that lane's energy by ≥ [`DESCENT_EPS`], so this bound is
/// unreachable in practice; it exists so f32 field drift can never turn
/// postprocessing into an unbounded loop.
const DESCENT_MAX_PASSES: usize = 100_000;

/// The model in kernel form: per-site f32 biases plus an f32 CSR copy
/// of the coupler adjacency (cast once, not per proposal).
struct PackedModel {
    n: usize,
    h: Vec<f32>,
    offsets: Vec<u32>,
    entries: Vec<(u32, f32)>,
}

impl PackedModel {
    fn build(model: &Ising) -> PackedModel {
        let adj = model.csr_adjacency();
        let n = model.num_vars();
        let h = (0..n).map(|i| model.h(i) as f32).collect();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::new();
        offsets.push(0u32);
        for i in 0..n {
            for &(j, w) in adj.neighbors(i) {
                entries.push((j, w as f32));
            }
            offsets.push(entries.len() as u32);
        }
        PackedModel {
            n,
            h,
            offsets,
            entries,
        }
    }

    #[inline]
    fn neighbors(&self, i: usize) -> &[(u32, f32)] {
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// One word of 64 replica lanes over the full model: packed spins,
/// their ±1 f32 mirror, the per-lane local-field (delta-energy) tables,
/// and one RNG stream per lane. Lanes are fully independent — no
/// cross-lane arithmetic — which is what makes the mask-width-1
/// reference walk reproducible.
struct LaneBlock {
    /// Packed spins: `words[i]` bit L is replica L's spin at site i.
    words: Vec<u64>,
    /// `signs[i·64 + L]` = ±1.0, the f32 mirror of `words[i]` bit L.
    signs: Vec<f32>,
    /// `fields[i·64 + L]` = h_i + Σ_j J_ij·σ_j for lane L; a flip's
    /// energy delta is `−2·σ_i·field_i` per lane.
    fields: Vec<f32>,
    /// Per-lane xorshift64 states (seeded from [`lane_seed`]).
    rng: [u64; 64],
    /// Lanes that correspond to requested reads; the rest never flip.
    active: u64,
    /// Total accepted flips (anneal + descent), all lanes.
    flips: u64,
}

impl LaneBlock {
    fn new(pm: &PackedModel, seeds: &[u64; 64], active: u64) -> LaneBlock {
        let n = pm.n;
        let mut rng = [0u64; 64];
        for (slot, &seed) in rng.iter_mut().zip(seeds.iter()) {
            *slot = nonzero_state(seed);
        }
        let mut words = vec![0u64; n];
        let mut signs = vec![0.0f32; n * 64];
        for (i, word) in words.iter_mut().enumerate() {
            let row = &mut signs[i * 64..][..64];
            let mut w = 0u64;
            for (l, slot) in row.iter_mut().enumerate() {
                let bit = xorshift64(&mut rng[l]) >> 63;
                w |= bit << l;
                *slot = if bit == 1 { 1.0 } else { -1.0 };
            }
            *word = w;
        }
        let mut block = LaneBlock {
            words,
            signs,
            fields: vec![0.0f32; n * 64],
            rng,
            active,
            flips: 0,
        };
        block.rebuild_fields(pm);
        block
    }

    /// Recomputes every lane's local fields from the packed spins.
    fn rebuild_fields(&mut self, pm: &PackedModel) {
        for i in 0..pm.n {
            let mut row = [pm.h[i]; 64];
            for &(j, w) in pm.neighbors(i) {
                let sj = &self.signs[j as usize * 64..][..64];
                for (slot, &s) in row.iter_mut().zip(sj.iter()) {
                    *slot += w * s;
                }
            }
            self.fields[i * 64..][..64].copy_from_slice(&row);
        }
    }

    /// Applies an accepted flip mask at site `i`: XOR the packed word,
    /// negate the flipped signs, and update every CSR neighbor's field
    /// row with one masked axpy.
    fn apply_flips(&mut self, pm: &PackedModel, i: usize, flips: u64) {
        self.words[i] ^= flips;
        self.flips += u64::from(flips.count_ones());
        let mut upd = [0.0f32; 64];
        {
            let s_row = &mut self.signs[i * 64..][..64];
            for l in 0..64 {
                let fl = ((flips >> l) & 1) as f32;
                let s = s_row[l] * (1.0 - 2.0 * fl);
                s_row[l] = s;
                upd[l] = s * fl;
            }
        }
        for &(j, w) in pm.neighbors(i) {
            let twoj = 2.0 * w;
            let f_row = &mut self.fields[j as usize * 64..][..64];
            for (slot, &u) in f_row.iter_mut().zip(upd.iter()) {
                *slot += twoj * u;
            }
        }
    }

    /// One Metropolis sweep of all 64 lanes at inverse temperature
    /// `beta`.
    fn sweep(&mut self, pm: &PackedModel, table: &[f32; 256], beta: f32) {
        for i in 0..pm.n {
            let mut flips = 0u64;
            {
                let s_row = &self.signs[i * 64..][..64];
                let f_row = &self.fields[i * 64..][..64];
                for l in 0..64 {
                    // One RNG word per lane per proposal, drawn
                    // unconditionally so lane streams advance in
                    // lockstep with the scalar reference walk.
                    let x = xorshift64(&mut self.rng[l]);
                    let delta = -2.0 * s_row[l] * f_row[l];
                    let accept = beta * delta <= table[(x >> 56) as usize];
                    flips |= (accept as u64) << l;
                }
            }
            flips &= self.active;
            if flips != 0 {
                self.apply_flips(pm, i, flips);
            }
        }
    }

    /// Greedy descent of every active lane to its local minimum
    /// (standard SA postprocessing). Converged lanes simply stop
    /// producing flips, so extra passes driven by slower lanes are
    /// no-ops for them.
    fn descend(&mut self, pm: &PackedModel) {
        for _ in 0..DESCENT_MAX_PASSES {
            let mut any = 0u64;
            for i in 0..pm.n {
                let mut flips = 0u64;
                {
                    let s_row = &self.signs[i * 64..][..64];
                    let f_row = &self.fields[i * 64..][..64];
                    for l in 0..64 {
                        let delta = -2.0 * s_row[l] * f_row[l];
                        flips |= u64::from(delta < -DESCENT_EPS) << l;
                    }
                }
                flips &= self.active;
                if flips != 0 {
                    self.apply_flips(pm, i, flips);
                    any |= flips;
                }
            }
            if any == 0 {
                break;
            }
        }
    }

    /// Unpacks one lane into a spin vector.
    fn lane_spins(&self, lane: usize) -> Vec<Spin> {
        self.words
            .iter()
            .map(|&w| Spin::from((w >> lane) & 1 == 1))
            .collect()
    }
}

/// Derives the β schedule from the model's energy scale: start hot
/// enough to accept the largest single-flip move ~50% of the time,
/// finish cold enough to freeze the smallest one to ~e⁻¹⁰.
fn auto_beta_range(model: &Ising) -> (f64, f64) {
    let adj = model.csr_adjacency();
    // Max |ΔE| of a single flip, bounded by 2(|h| + Σ|J|) per site.
    let mut max_delta = 0.0f64;
    let mut min_delta = f64::INFINITY;
    for i in 0..model.num_vars() {
        let local: f64 =
            model.h(i).abs() + adj.neighbors(i).iter().map(|(_, j)| j.abs()).sum::<f64>();
        if local > 0.0 {
            max_delta = max_delta.max(2.0 * local);
            min_delta = min_delta.min(2.0 * local);
        }
    }
    if max_delta == 0.0 {
        return (0.1, 1.0);
    }
    if !min_delta.is_finite() || min_delta <= 0.0 {
        min_delta = max_delta;
    }
    (0.693 / max_delta, 10.0 / min_delta)
}

/// The geometric per-sweep β ladder, pre-cast to f32 (the schedule is
/// derived in f64, then each sweep's value is truncated once).
fn beta_ladder(betas: (f64, f64), sweeps: usize) -> Vec<f32> {
    let (beta_min, beta_max) = betas;
    let sweeps = sweeps.max(1);
    let ratio = (beta_max / beta_min).powf(1.0 / sweeps as f64);
    let mut beta = beta_min;
    (0..sweeps)
        .map(|_| {
            let b = beta as f32;
            beta *= ratio;
            b
        })
        .collect()
}

/// Emits the per-sampler telemetry contract: a reads-per-second gauge
/// plus deterministic sweep and flip counters. SA's sweep is one
/// full-model sweep of one 64-lane word (so 100 reads count two word
/// sweeps per schedule step), and tabu's is one step (a scan of every
/// candidate flip).
pub(crate) fn emit_sampler_metrics(
    name: &str,
    num_reads: usize,
    started: Instant,
    word_sweeps: u64,
    flips: u64,
) {
    let recorder = qac_telemetry::global();
    if !recorder.is_enabled() {
        return;
    }
    recorder.counter_add(
        &format!("qac_sampler_sweeps_total{{sampler=\"{name}\"}}"),
        word_sweeps,
    );
    recorder.counter_add(
        &format!("qac_sampler_flips_total{{sampler=\"{name}\"}}"),
        flips,
    );
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    recorder.gauge_set(
        &format!("qac_sampler_reads_per_sec{{sampler=\"{name}\"}}"),
        num_reads as f64 / secs,
    );
}

/// Simulated annealing (Kirkpatrick et al. 1983), the classical
/// counterpart of quantum annealing the paper contrasts against in §2:
/// independent Metropolis restarts on a geometric β schedule, 64 replicas
/// per word, each finished by a greedy descent to its local minimum.
///
/// Reads are replica lanes, each seeded from its own stream of one
/// salted splitmix64 family (DESIGN.md §13), so results are deterministic
/// for a fixed seed at any thread count, and a prefix of the reads at a
/// larger `num_reads` equals the reads of a smaller one.
#[derive(Debug, Clone)]
pub struct BitParallelSa {
    seed: u64,
    sweeps: usize,
    threads: usize,
}

impl BitParallelSa {
    /// A sampler with the given seed and default schedule (256 sweeps,
    /// β range from the model's energy scale, 4 worker threads).
    pub fn new(seed: u64) -> BitParallelSa {
        BitParallelSa {
            seed,
            sweeps: 256,
            threads: 4,
        }
    }

    /// Sets the number of full-model sweeps per read.
    ///
    /// Clamped to at least 1: zero sweeps would return unannealed
    /// random spins, so 0 silently behaves as 1.
    pub fn with_sweeps(mut self, sweeps: usize) -> BitParallelSa {
        self.sweeps = sweeps.max(1);
        self
    }

    /// Sets the worker thread count (clamped ≥ 1). Words are
    /// independent, so the thread count cannot change results.
    pub fn with_threads(mut self, threads: usize) -> BitParallelSa {
        self.threads = threads.max(1);
        self
    }

    fn run_words(&self, model: &Ising, num_reads: usize) -> (Vec<Vec<Spin>>, u64, usize) {
        let n = model.num_vars();
        if num_reads == 0 {
            return (Vec::new(), 0, 0);
        }
        if n == 0 {
            return (vec![Vec::new(); num_reads], 0, 0);
        }
        let pm = PackedModel::build(model);
        let ladder = beta_ladder(auto_beta_range(model), self.sweeps);
        let table = accept_table();
        let words = num_reads.div_ceil(64);
        let flight = qac_telemetry::global_flight();
        let anneal_word = |w: usize| -> LaneBlock {
            let lanes = (num_reads - w * 64).min(64);
            let mut seeds = [0u64; 64];
            for (l, slot) in seeds.iter_mut().enumerate() {
                *slot = lane_seed(self.seed, (w * 64 + l) as u64);
            }
            let mut block = LaneBlock::new(&pm, &seeds, active_mask(lanes));
            for &beta in &ladder {
                block.sweep(&pm, &table, beta);
            }
            block.descend(&pm);
            block
        };
        let threads = self.threads.min(words);
        if threads <= 1 {
            let mut out = vec![Vec::new(); num_reads];
            let mut flips = 0u64;
            for w in 0..words {
                let block = anneal_word(w);
                flips += block.flips;
                let lanes = (num_reads - w * 64).min(64);
                for (l, slot) in out[w * 64..][..lanes].iter_mut().enumerate() {
                    *slot = block.lane_spins(l);
                }
                flight.record(
                    qac_telemetry::FlightKind::SamplerMilestone,
                    "sa",
                    ((w + 1) * 64).min(num_reads) as f64,
                );
            }
            return (out, flips, words);
        }
        let reads = Mutex::new(vec![Vec::new(); num_reads]);
        let flip_total = AtomicU64::new(0);
        let trace = qac_telemetry::current_trace();
        crossbeam::scope(|scope| {
            for t in 0..threads {
                let reads = &reads;
                let flip_total = &flip_total;
                let anneal_word = &anneal_word;
                scope.spawn(move |_| {
                    let mut done = 0usize;
                    let mut w = t;
                    while w < words {
                        let block = anneal_word(w);
                        flip_total.fetch_add(block.flips, Ordering::Relaxed);
                        let lanes = (num_reads - w * 64).min(64);
                        {
                            let mut out = reads.lock();
                            for (l, slot) in out[w * 64..][..lanes].iter_mut().enumerate() {
                                *slot = block.lane_spins(l);
                            }
                        }
                        done += lanes;
                        w += threads;
                    }
                    flight.record_for(
                        trace,
                        qac_telemetry::FlightKind::SamplerMilestone,
                        &format!("sa:thread:{t}"),
                        done as f64,
                    );
                });
            }
        })
        .expect("annealing threads do not panic");
        (
            reads.into_inner(),
            flip_total.load(Ordering::Relaxed),
            words,
        )
    }

    /// The mask-width-1 oracle: anneals each read as a plain scalar
    /// walk of the *same* per-lane algorithm (same RNG stream, same f32
    /// arithmetic, in the same order), one replica at a time.
    ///
    /// Exists so tests can pin lane independence — the packed kernel
    /// must reproduce this bit for bit — and as executable
    /// documentation of what one lane computes. Not a production path.
    pub fn sample_reference(&self, model: &Ising, num_reads: usize) -> SampleSet {
        let n = model.num_vars();
        if n == 0 {
            return SampleSet::from_reads(model, vec![Vec::new(); num_reads]);
        }
        let pm = PackedModel::build(model);
        let ladder = beta_ladder(auto_beta_range(model), self.sweeps);
        let table = accept_table();
        let reads = (0..num_reads)
            .map(|r| reference_read(&pm, lane_seed(self.seed, r as u64), &ladder, &table))
            .collect();
        SampleSet::from_reads(model, reads)
    }
}

/// One scalar replica walk, mirroring the packed kernel's per-lane
/// operations exactly (expression shapes included — f32 rounding must
/// agree, not just the algorithm).
fn reference_read(pm: &PackedModel, seed: u64, ladder: &[f32], table: &[f32; 256]) -> Vec<Spin> {
    let n = pm.n;
    let mut state = nonzero_state(seed);
    let mut up = vec![false; n];
    let mut sign = vec![0.0f32; n];
    for i in 0..n {
        let bit = xorshift64(&mut state) >> 63;
        up[i] = bit == 1;
        sign[i] = if bit == 1 { 1.0 } else { -1.0 };
    }
    let mut field = vec![0.0f32; n];
    for (i, slot) in field.iter_mut().enumerate() {
        let mut f = pm.h[i];
        for &(j, w) in pm.neighbors(i) {
            f += w * sign[j as usize];
        }
        *slot = f;
    }
    for &beta in ladder {
        for i in 0..n {
            let x = xorshift64(&mut state);
            let delta = -2.0 * sign[i] * field[i];
            if beta * delta <= table[(x >> 56) as usize] {
                up[i] = !up[i];
                let s = sign[i] * (1.0 - 2.0 * 1.0);
                sign[i] = s;
                for &(j, w) in pm.neighbors(i) {
                    field[j as usize] += (2.0 * w) * (s * 1.0);
                }
            }
        }
    }
    for _ in 0..DESCENT_MAX_PASSES {
        let mut any = false;
        for i in 0..n {
            let delta = -2.0 * sign[i] * field[i];
            if delta < -DESCENT_EPS {
                up[i] = !up[i];
                let s = sign[i] * (1.0 - 2.0 * 1.0);
                sign[i] = s;
                for &(j, w) in pm.neighbors(i) {
                    field[j as usize] += (2.0 * w) * (s * 1.0);
                }
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    up.into_iter().map(Spin::from).collect()
}

impl Sampler for BitParallelSa {
    fn sample(&self, model: &Ising, num_reads: usize) -> SampleSet {
        let started = Instant::now();
        let (reads, flips, words) = self.run_words(model, num_reads);
        let set = SampleSet::from_reads(model, reads);
        emit_sampler_metrics(
            "sa",
            num_reads,
            started,
            (self.sweeps * words) as u64,
            flips,
        );
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactSolver;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_model(seed: u64, n: usize) -> Ising {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Ising::new(n);
        for i in 0..n {
            m.add_h(i, rng.gen_range(-1.0..1.0));
            for j in (i + 1)..n {
                if rng.gen::<f64>() < 0.4 {
                    m.add_j(i, j, rng.gen_range(-1.0..1.0));
                }
            }
        }
        m
    }

    #[test]
    fn packed_run_matches_scalar_reference_exactly() {
        // The load-bearing equivalence: for every model shape and read
        // count, the packed kernel must equal the mask-width-1 scalar
        // walk bit for bit — lane packing is a layout, not an algorithm
        // change.
        for (seed, n, reads) in [
            (1u64, 7usize, 1usize),
            (2, 10, 5),
            (3, 12, 16),
            (4, 9, 64),
            (5, 11, 65),
            (6, 5, 130),
        ] {
            let m = random_model(seed, n);
            let bp = BitParallelSa::new(0xb17_0000 + seed).with_sweeps(60);
            assert_eq!(
                bp.sample(&m, reads),
                bp.sample_reference(&m, reads),
                "seed {seed}, n {n}, reads {reads}"
            );
        }
    }

    #[test]
    fn bp_finds_ground_state_of_small_models() {
        for seed in 0..5 {
            let m = random_model(0xface + seed, 10);
            let exact = ExactSolver::new().minimum_energy(&m);
            let best = BitParallelSa::new(99)
                .with_sweeps(200)
                .sample(&m, 30)
                .best()
                .unwrap()
                .energy;
            assert!(
                (best - exact).abs() < 1e-9,
                "seed {seed}: bp {best} vs exact {exact}"
            );
        }
    }

    #[test]
    fn zero_sweeps_and_threads_clamp_to_one() {
        let m = random_model(6, 8);
        // with_sweeps(0)/with_threads(0) behave exactly as 1, not as "do
        // nothing" — pinned here so the clamp stays intentional.
        let clamped = BitParallelSa::new(5)
            .with_sweeps(0)
            .with_threads(0)
            .sample(&m, 6);
        let explicit = BitParallelSa::new(5)
            .with_sweeps(1)
            .with_threads(1)
            .sample(&m, 6);
        assert_eq!(clamped, explicit);
        assert_eq!(clamped.total_reads(), 6);
    }

    #[test]
    fn empty_and_zero_read_edges() {
        let empty = Ising::new(0);
        assert_eq!(BitParallelSa::new(1).sample(&empty, 3).total_reads(), 3);

        let m = random_model(9, 6);
        let set = BitParallelSa::new(1).sample(&m, 0);
        assert_eq!(set.total_reads(), 0);
        assert!(set.is_empty());
    }

    #[test]
    fn lane_seeds_are_pairwise_distinct() {
        // Lane streams must not collide for realistic index ranges,
        // within one base seed or across several: a collision would
        // correlate two reads' RNG streams.
        let mut seen = std::collections::HashSet::new();
        for base in [42u64, 0, 0x5eed, 0xd_3caf, u64::MAX / 3] {
            for r in 0..4096u64 {
                assert!(seen.insert(lane_seed(base, r)), "lane {r} at {base:#x}");
            }
        }
    }
}
