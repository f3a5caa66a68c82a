//! Golden-chain regression harness for the embedding router.
//!
//! `tests/golden/router_chains.txt` was captured from the router *before*
//! the CSR/scratch/bounded-deepening rewrite (default [`EmbedOptions`]
//! except the seed, on an ideal 2000Q Chimera). The rewrite is required
//! to be byte-identical seed-for-seed on the sequential path, so every
//! chain of every workload/seed pair must still match exactly — any
//! change to heap tie-breaking, relaxation order, RNG consumption, or
//! the deepening certificate shows up here as a diff.

use qac_bench::{compile_workload, AUSTRALIA, CIRCSAT, FIGURE2};
use qac_chimera::{embed, Chimera, EmbedOptions};

const GOLDEN: &str = include_str!("golden/router_chains.txt");
const GOLDEN_TOPOLOGY: &str = include_str!("golden/router_chains_topology.txt");

/// Parses the fixture into `(workload, seed, chains)` records.
fn parse_golden() -> Vec<(String, u64, Vec<Vec<usize>>)> {
    let mut records: Vec<(String, u64, Vec<Vec<usize>>)> = Vec::new();
    for line in GOLDEN.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("workload ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("workload name").to_string();
            assert_eq!(parts.next(), Some("seed"), "malformed header: {line}");
            let seed: u64 = parts
                .next()
                .expect("seed value")
                .parse()
                .expect("numeric seed");
            records.push((name, seed, Vec::new()));
        } else {
            let (var, qubits) = line.split_once(':').expect("chain line `v: q q ...`");
            let var: usize = var.trim().parse().expect("numeric variable");
            let chain: Vec<usize> = qubits
                .split_whitespace()
                .map(|q| q.parse().expect("numeric qubit"))
                .collect();
            let chains = &mut records.last_mut().expect("header before chains").2;
            assert_eq!(chains.len(), var, "chains listed in variable order");
            chains.push(chain);
        }
    }
    records
}

#[test]
fn router_chains_match_pre_rewrite_goldens() {
    let records = parse_golden();
    assert_eq!(records.len(), 6, "3 workloads x 2 seeds");

    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();
    for (name, source, top) in [
        ("figure2", FIGURE2, "circuit"),
        ("circsat", CIRCSAT, "circsat"),
        ("australia", AUSTRALIA, "australia"),
    ] {
        let logical = compile_workload(source, top).assembled.ising;
        for seed in [11u64, 12] {
            let golden = &records
                .iter()
                .find(|(g_name, g_seed, _)| g_name == name && *g_seed == seed)
                .unwrap_or_else(|| panic!("fixture missing {name} seed {seed}"))
                .2;
            let options = EmbedOptions {
                seed,
                ..EmbedOptions::default()
            };
            let (embedding, _) = embed(&logical, &chimera, &hardware, &options, None)
                .unwrap_or_else(|e| panic!("{name} seed {seed} failed to embed: {e}"));
            // Every golden output must also be a *valid* minor embedding —
            // connected chains of active qubits with every logical edge
            // realizable — not merely a reproducible one.
            assert!(
                embedding.validate(&logical, &hardware),
                "{name} seed {seed}: embedding no longer validates"
            );
            assert_eq!(
                embedding.chains(),
                golden.as_slice(),
                "{name} seed {seed}: routed chains diverged from the pre-rewrite goldens"
            );
        }
    }
}

/// The Chimera fixture is frozen history (captured in the PR that
/// introduced it); pin its exact bytes so a well-meaning regeneration
/// can never silently rewrite what "unchanged" means.
#[test]
fn chimera_fixture_bytes_are_frozen() {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in GOLDEN.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!(
        hash, 0x551b_2b00_c8c8_710c,
        "tests/golden/router_chains.txt was modified; the Chimera goldens must stay byte-identical"
    );
}

/// The topology fixture (Pegasus + king's graph, two seeds per
/// workload) replays byte-for-byte: `topology_golden_fixture` routes
/// and validates every record, so equality here means every chain of
/// every fabric matches and still embeds validly. Regenerate with
/// `cargo run --release -p qac-bench --bin golden_gen` after an
/// intentional router change.
#[test]
fn topology_router_chains_match_goldens() {
    let records = GOLDEN_TOPOLOGY
        .lines()
        .filter(|l| l.starts_with("workload "))
        .count();
    assert_eq!(records, 8, "2 workloads x 2 topologies x 2 seeds");
    assert!(
        qac_bench::topology_golden_fixture() == GOLDEN_TOPOLOGY,
        "routed chains diverged from tests/golden/router_chains_topology.txt"
    );
}
