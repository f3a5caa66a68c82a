//! A process-wide embedding cache.
//!
//! Minor embedding dominates compile-to-run latency (the CMR heuristic
//! reroutes chains for dozens of rounds), yet repeated runs of the same
//! compiled program re-solve the identical placement problem: the logical
//! interaction graph, the embedding options, and the topology and its
//! hardware graph fully determine the search. [`EmbeddingCache`] memoizes
//! on exactly those ([`embedding_key`]), so a warm run performs **zero**
//! route iterations. Lookups go through [`embed`](crate::embed).
//!
//! The cache is `Sync`; share one instance across runs (or threads) via
//! `Arc`.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use qac_pbf::Ising;

use crate::embed::{routed_couplings, EmbedOptions, EmbedStats, Embedding};
use crate::topology::Topology;
use crate::{EmbedError, HardwareGraph};

/// FNV-1a, the canonical-form hasher for cache keys (stable across runs,
/// unlike `DefaultHasher`, whose seeds are unspecified). Shared with the
/// topology module, which uses it for [`Topology::parameter_hash`]
/// values.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    pub(crate) fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Canonical hash of one embedding problem as [`embed`](crate::embed)
/// sees it: the topology's [`parameter_hash`](Topology::parameter_hash),
/// the routed interaction graph (the model's variable count and nonzero
/// couplings), the [`EmbedOptions`] and the hardware graph (node count,
/// inactive set, couplers).
///
/// The coupling *values* are deliberately excluded — an embedding depends
/// only on which interactions exist, so models that differ only in
/// coefficients (e.g. different pin biases) share a cache entry. The
/// parameter hash keeps two families apart even when their graphs are
/// equal, so e.g. a C4 and a king's graph can never share an entry.
pub fn embedding_key<T: Topology + ?Sized>(
    model: &Ising,
    topology: &T,
    hardware: &HardwareGraph,
    options: &EmbedOptions,
) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(topology.parameter_hash());
    h.write_usize(model.num_vars());
    // `j_iter` yields each coupling once, normalized and sorted, so the
    // edge list is already canonical.
    h.write_usize(routed_couplings(model).count());
    for (a, b) in routed_couplings(model) {
        h.write_usize(a);
        h.write_usize(b);
    }

    h.write_u64(options.seed);
    h.write_usize(options.tries);
    h.write_usize(options.rounds);
    h.write_u64(options.penalty_base.to_bits());

    h.write_usize(hardware.num_nodes());
    for node in 0..hardware.num_nodes() {
        if !hardware.is_active(node) {
            h.write_usize(node);
        }
    }
    h.write_usize(hardware.num_edges());
    for (a, b) in hardware.edges() {
        h.write_usize(a);
        h.write_usize(b);
    }
    h.finish()
}

/// A coherent snapshot of the cache's counters (see
/// [`EmbeddingCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that had to embed.
    pub misses: usize,
    /// Embeddings currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Total completed lookups (every lookup is exactly one of hit or
    /// miss).
    pub fn lookups(&self) -> usize {
        self.hits + self.misses
    }
}

/// Memoizes minor embeddings by [`embedding_key`], with hit/miss
/// counters.
///
/// Counter updates happen while the entry map's lock is held, so a
/// [`EmbeddingCache::stats`] snapshot (which takes the same lock) is
/// always coherent: `entries <= misses` and `hits + misses` equals the
/// number of completed lookups — under any number of concurrent
/// threads, not just at quiescence. A cache rides in an `Arc` on
/// `DWaveSimOptions`, so any threads that share those options share the
/// cache, and these invariants are tested below.
#[derive(Default)]
pub struct EmbeddingCache {
    entries: Mutex<HashMap<u64, Embedding>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl fmt::Debug for EmbeddingCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EmbeddingCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl EmbeddingCache {
    /// An empty cache.
    pub fn new() -> EmbeddingCache {
        EmbeddingCache::default()
    }

    /// Returns the embedding cached under `key`, or computes one with
    /// `embed`, stores it, and returns it. Hits report
    /// [`EmbedStats::cache_hit`] with zero route iterations; failures are
    /// not cached (a later call with more tries may succeed). Every
    /// lookup bumps the hit or miss counters, unlabeled and under a
    /// `topology="family"` label, and leaves a flight event named after
    /// the family.
    pub(crate) fn lookup_or_embed<F>(
        &self,
        key: u64,
        family: &'static str,
        embed: F,
    ) -> Result<(Embedding, EmbedStats), EmbedError>
    where
        F: FnOnce() -> Result<(Embedding, EmbedStats), EmbedError>,
    {
        // Both the `qac_embed_*` names and the generic
        // `qac_cache_hit/miss_total` convention; the flight recorder gets
        // the same event under the current job's trace id for
        // post-mortems.
        let bump = |names: [&str; 2], kind: qac_telemetry::FlightKind| {
            let telemetry = qac_telemetry::global();
            for base in names {
                telemetry.counter_add(base, 1);
                telemetry.counter_add(
                    &qac_telemetry::metrics::labeled(base, &[("topology", family)]),
                    1,
                );
            }
            qac_telemetry::global_flight().record(kind, family, 1.0);
        };
        {
            let guard = self.lock();
            if let Some(found) = guard.get(&key).cloned() {
                // Count the hit before releasing the map lock, so no
                // stats() snapshot can observe the lookup half-recorded.
                self.hits.fetch_add(1, Ordering::Relaxed);
                drop(guard);
                bump(
                    ["qac_embed_cache_hits_total", "qac_cache_hit_total"],
                    qac_telemetry::FlightKind::CacheHit,
                );
                let stats = EmbedStats {
                    cache_hit: true,
                    ..EmbedStats::default()
                };
                return Ok((found, stats));
            }
        }
        // The lock is NOT held while embedding (it can take seconds);
        // concurrent misses on the same key both embed and one insert
        // wins, which costs duplicated work but never blocks other keys.
        let (embedding, stats) = embed()?;
        {
            // Miss counter and insert move together under the lock:
            // `entries <= misses` holds at every instant (a lost update
            // here would let a stats() reader see an entry with no miss
            // accounting for it).
            let mut guard = self.lock();
            self.misses.fetch_add(1, Ordering::Relaxed);
            guard.entry(key).or_insert_with(|| embedding.clone());
        }
        bump(
            ["qac_embed_cache_misses_total", "qac_cache_miss_total"],
            qac_telemetry::FlightKind::CacheMiss,
        );
        Ok((embedding, stats))
    }

    /// Number of cached embeddings.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to embed.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// A coherent snapshot of hits, misses, and entry count, taken under
    /// the entry map's lock (unlike three separate calls to
    /// [`EmbeddingCache::hits`] / [`EmbeddingCache::misses`] /
    /// [`EmbeddingCache::len`], which can interleave with writers).
    pub fn stats(&self) -> CacheStats {
        let guard = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: guard.len(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Embedding>> {
        // A poisoned mutex means another thread panicked mid-insert; the
        // map itself is always in a consistent state.
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{embed, Chimera, KingGraph, Pegasus, Zephyr};

    /// Every successful lookup bumps the process-wide telemetry counters,
    /// which `lookups_emit_generic_counters_and_flight_events` reads
    /// exactly; the tests that look up hold this lock so another test's
    /// bumps cannot land inside its before/after window.
    fn serial_lookups() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn model(n: usize, edges: &[(usize, usize)]) -> Ising {
        let mut model = Ising::new(n);
        for &(a, b) in edges {
            model.add_j(a, b, -1.0);
        }
        model
    }

    fn triangle() -> Ising {
        model(3, &[(0, 1), (1, 2), (0, 2)])
    }

    fn embed_triangle(
        cache: &EmbeddingCache,
        hw: &HardwareGraph,
        options: &EmbedOptions,
    ) -> (Embedding, EmbedStats) {
        embed(&triangle(), &Chimera::new(2), hw, options, Some(cache)).unwrap()
    }

    #[test]
    fn warm_lookup_is_a_hit_with_zero_route_iterations() {
        let _serial = serial_lookups();
        let hw = Chimera::new(2).graph();
        let options = EmbedOptions::default();
        let cache = EmbeddingCache::new();

        let (cold, cold_stats) = embed_triangle(&cache, &hw, &options);
        assert!(!cold_stats.cache_hit);
        assert!(cold_stats.route_iterations > 0);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let (warm, warm_stats) = embed_triangle(&cache, &hw, &options);
        assert!(warm_stats.cache_hit);
        assert_eq!(warm_stats.route_iterations, 0);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cold, warm, "hit returns the identical embedding");
        assert!(
            warm.validate(&triangle(), &hw),
            "cached embedding stays valid"
        );
    }

    #[test]
    fn an_explicit_zero_coupling_hits_the_entry_of_the_model_without_it() {
        let _serial = serial_lookups();
        let chimera = Chimera::new(2);
        let hw = chimera.graph();
        let options = EmbedOptions::default();
        let cache = EmbeddingCache::new();
        let path = model(3, &[(0, 1), (1, 2)]);
        let mut zeroed = path.clone();
        zeroed.add_j(0, 2, 0.0);
        let (cold, _) = embed(&path, &chimera, &hw, &options, Some(&cache)).unwrap();
        let (warm, stats) = embed(&zeroed, &chimera, &hw, &options, Some(&cache)).unwrap();
        assert!(stats.cache_hit);
        assert_eq!(warm, cold);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn key_distinguishes_problem_options_and_hardware() {
        let c2 = Chimera::new(2);
        let hw2 = c2.graph();
        let hw3 = Chimera::new(3).graph();
        let mut dropped = Chimera::new(2).graph();
        dropped.deactivate(0);
        let base = EmbedOptions::default();
        let key = |m: &Ising, o: &EmbedOptions, hw| embedding_key(m, &c2, hw, o);

        let k0 = key(&triangle(), &base, &hw2);
        // Coupling values and insertion order do not matter.
        let mut reweighted = Ising::new(3);
        reweighted.add_j(2, 0, 0.5);
        reweighted.add_j(1, 0, 3.0);
        reweighted.add_j(2, 1, -0.25);
        assert_eq!(k0, key(&reweighted, &base, &hw2));
        // Everything else does.
        assert_ne!(k0, key(&model(3, &[(0, 1), (1, 2)]), &base, &hw2));
        assert_ne!(k0, key(&model(4, &[(0, 1), (1, 2), (0, 2)]), &base, &hw2));
        let seeded = EmbedOptions {
            seed: 1,
            ..base.clone()
        };
        assert_ne!(k0, key(&triangle(), &seeded, &hw2));
        let rounds = EmbedOptions {
            rounds: 7,
            ..base.clone()
        };
        assert_ne!(k0, key(&triangle(), &rounds, &hw2));
        assert_ne!(k0, key(&triangle(), &base, &hw3));
        assert_ne!(k0, key(&triangle(), &base, &dropped));

        // The family/parameter hash separates topologies even when the
        // problem and the hardware graph bytes are equal: that guarantee
        // must come from the parameter hash, not the graph bytes.
        let c4 = Chimera::new(4);
        let king = KingGraph::new(11); // 121 vs 128 nodes: near-miss sizes
        let tk = |t: &dyn Topology, hw: &HardwareGraph| embedding_key(&triangle(), t, hw, &base);
        let c4_graph = c4.graph();
        let king_graph = king.graph();
        assert_ne!(tk(&c4, &c4_graph), tk(&king, &king_graph));
        // Same problem + same hardware bytes, different claimed family →
        // different key.
        assert_ne!(tk(&c4, &c4_graph), tk(&king, &c4_graph));
        assert_ne!(
            tk(&Pegasus::new(4), &c4_graph),
            tk(&Zephyr::new(4), &c4_graph)
        );
        assert_ne!(tk(&c4, &c4_graph), tk(&Chimera::new(3), &c4_graph));
    }

    #[test]
    fn failures_are_not_cached() {
        let chimera = Chimera::new(1);
        let hw = chimera.graph();
        let cache = EmbeddingCache::new();
        let options = EmbedOptions {
            tries: 1,
            rounds: 4,
            ..Default::default()
        };
        // K9 in one unit cell: impossible, and too big for C1's template.
        let edges: Vec<(usize, usize)> = (0..9)
            .flat_map(|i| ((i + 1)..9).map(move |j| (i, j)))
            .collect();
        let k9 = model(9, &edges);
        let attempt = |cache: &EmbeddingCache| embed(&k9, &chimera, &hw, &options, Some(cache));
        assert!(attempt(&cache).is_err());
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // Still a miss (not a poisoned hit) the second time.
        assert!(attempt(&cache).is_err());
    }

    #[test]
    fn stats_snapshot_matches_individual_accessors_at_quiescence() {
        let _serial = serial_lookups();
        let hw = Chimera::new(2).graph();
        let options = EmbedOptions::default();
        let cache = EmbeddingCache::new();
        embed_triangle(&cache, &hw, &options);
        embed_triangle(&cache, &hw, &options);
        let stats = cache.stats();
        assert_eq!(
            stats,
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
        assert_eq!(stats.lookups(), 2);
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (cache.hits(), cache.misses(), cache.len())
        );
    }

    #[test]
    fn concurrent_hammer_loses_no_counter_updates() {
        let _serial = serial_lookups();
        // Threads that share one cache must not lose counter updates;
        // this is the lost-update regression test. 8 threads × 24 lookups over 4
        // distinct keys: every lookup must be accounted as exactly one
        // hit or miss, every key must end up cached, and mid-flight
        // stats() snapshots must never observe entries the miss counter
        // cannot explain.
        let hw = Chimera::new(2).graph();
        let cache = EmbeddingCache::new();
        let threads = 8usize;
        let iterations = 24usize;
        let keys = 4u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                let hw = &hw;
                scope.spawn(move || {
                    for i in 0..iterations {
                        // Distinct EmbedOptions seeds are distinct cache
                        // keys; rotate so every thread touches every key.
                        let options = EmbedOptions {
                            seed: (t + i) as u64 % keys,
                            ..Default::default()
                        };
                        let (embedding, _) = embed_triangle(cache, hw, &options);
                        assert!(embedding.validate(&triangle(), hw));
                        let stats = cache.stats();
                        assert!(
                            stats.entries <= stats.misses,
                            "entry without a recorded miss: {stats:?}"
                        );
                        assert!(
                            stats.lookups() <= threads * iterations,
                            "over-counted lookups: {stats:?}"
                        );
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.lookups(),
            threads * iterations,
            "lost a counter update: {stats:?}"
        );
        assert_eq!(stats.entries, keys as usize, "every key cached once");
        // Duplicated work on racing first lookups is allowed (misses may
        // exceed entries) but each key misses at least once.
        assert!(stats.misses >= keys as usize);
        assert_eq!(stats.hits, threads * iterations - stats.misses);
    }

    #[test]
    fn concurrent_hammer_across_mixed_topologies() {
        let _serial = serial_lookups();
        // Same shape as the single-topology hammer, but the 8 threads
        // rotate over *topologies* instead of seeds: one triangle, one
        // option set, four families of similar scale. Every
        // (topology, hardware) pair must get exactly one entry and the
        // counters must balance — a cross-family key collision would
        // surface as a missing entry (two families sharing one) or as a
        // validate() failure (a chain of foreign qubit indices).
        let topologies: Vec<(Box<dyn Topology + Sync>, HardwareGraph)> = vec![
            (Box::new(Chimera::new(2)), Chimera::new(2).graph()),
            (Box::new(Pegasus::new(2)), Pegasus::new(2).graph()),
            (Box::new(Zephyr::new(2)), Zephyr::new(2).graph()),
            (Box::new(KingGraph::new(4)), KingGraph::new(4).graph()),
        ];
        let cache = EmbeddingCache::new();
        let threads = 8usize;
        let iterations = 24usize;
        let options = EmbedOptions::default();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                let topologies = &topologies;
                let options = &options;
                scope.spawn(move || {
                    for i in 0..iterations {
                        let (topology, hw) = &topologies[(t + i) % topologies.len()];
                        let (embedding, _) =
                            embed(&triangle(), topology.as_ref(), hw, options, Some(cache))
                                .expect("triangle embeds on every family");
                        assert!(
                            embedding.validate(&triangle(), hw),
                            "cached chain must be valid on its own topology"
                        );
                        let stats = cache.stats();
                        assert!(stats.entries <= stats.misses, "{stats:?}");
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.lookups(), threads * iterations);
        assert_eq!(
            stats.entries,
            topologies.len(),
            "one entry per topology — no cross-family collisions: {stats:?}"
        );
        assert!(stats.misses >= topologies.len());
        assert_eq!(stats.hits, threads * iterations - stats.misses);
    }

    #[test]
    fn lookups_emit_generic_counters_and_flight_events() {
        let _serial = serial_lookups();
        // Alongside the qac_embed_* names, every lookup bumps the generic
        // qac_cache_hit/miss_total counters (labeled by topology family
        // + unlabeled aggregate) and leaves a CacheHit/CacheMiss flight
        // event under the active trace.
        use qac_telemetry::{FlightKind, TraceId, TraceScope};
        let telemetry = qac_telemetry::global();
        telemetry.enable();
        let labeled_hit =
            qac_telemetry::metrics::labeled("qac_cache_hit_total", &[("topology", "king")]);
        let counters = || {
            let m = telemetry.metrics();
            (
                m.counter("qac_cache_hit_total"),
                m.counter("qac_cache_miss_total"),
                m.counter(&labeled_hit),
            )
        };
        let before = counters();

        let king = KingGraph::new(4);
        let hw = king.graph();
        let options = EmbedOptions::default();
        let cache = EmbeddingCache::new();
        let trace = TraceId::fresh();
        {
            let _scope = TraceScope::enter(trace);
            for _ in 0..2 {
                embed(&triangle(), &king, &hw, &options, Some(&cache))
                    .expect("triangle embeds on a king graph");
            }
        }

        let after = counters();
        assert_eq!(after.0, before.0 + 1, "one generic hit");
        assert_eq!(after.1, before.1 + 1, "one generic miss");
        assert_eq!(after.2, before.2 + 1, "one king-labeled hit");

        let kinds: Vec<FlightKind> = qac_telemetry::global_flight()
            .events_for(trace)
            .iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            [FlightKind::CacheMiss, FlightKind::CacheHit],
            "miss then hit, both under the job's trace id"
        );
        for event in qac_telemetry::global_flight().events_for(trace) {
            assert_eq!(event.name, "king");
        }
    }
}
