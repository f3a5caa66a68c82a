//! Content hashing and single-edit mutators for incremental
//! recompilation (DESIGN.md §14).
//!
//! Every cell gets a stable id (its index — the builder never reorders
//! cells) plus a structural FNV-1a hash over everything downstream
//! passes read from it: kind, instance name, connected net ids, and the
//! *names* of those nets (QMASM symbols derive from port/net names, so
//! a rename must change the owning cells' hashes even though the wiring
//! is unchanged). [`Netlist::structural_hash`] folds them into the
//! whole-netlist key the incremental compiler compares.

use crate::{CellId, CellKind, NetId, Netlist};

/// FNV-1a, the same dependency-free hasher the embedding cache keys
/// with (`qac-chimera`): deterministic across platforms and processes,
/// which is what makes hashes usable as on-disk artifact keys.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(Self::OFFSET_BASIS)
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Absorbs a `usize` (widened to 64 bits).
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Absorbs a length-prefixed string (prefix-free over sequences).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

/// Hashes a byte string with FNV-1a in one call.
pub fn fnv_str(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.write_str(s);
    h.finish()
}

impl Netlist {
    /// The structural hash of one cell: kind, instance name, connected
    /// net ids, and the names of those nets.
    pub fn cell_hash(&self, cell: CellId) -> u64 {
        let c = &self.cells()[cell];
        let mut h = Fnv::new();
        h.write_usize(cell);
        h.write_str(c.kind.name());
        h.write_str(&c.name);
        h.write_usize(c.inputs.len());
        for &net in c.inputs.iter().chain(std::iter::once(&c.output)) {
            h.write_usize(net);
            match self.net_name(net) {
                Some(name) => h.write_str(name),
                None => h.write_u64(0),
            }
        }
        h.finish()
    }

    /// Per-cell structural hashes, indexed by cell id.
    pub fn cell_hashes(&self) -> Vec<u64> {
        (0..self.cells().len())
            .map(|id| self.cell_hash(id))
            .collect()
    }

    /// A structural hash of the whole netlist: module name, net pool,
    /// ports, constants, and every cell hash. Equal hashes mean every
    /// downstream artifact of the compile pipeline is reusable.
    pub fn structural_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_str(self.name());
        h.write_usize(self.num_nets());
        for (tag, ports) in [(1u64, self.input_ports()), (2u64, self.output_ports())] {
            h.write_u64(tag);
            h.write_usize(ports.len());
            for port in ports {
                h.write_str(&port.name);
                h.write_usize(port.bits.len());
                for &bit in &port.bits {
                    h.write_usize(bit);
                }
            }
        }
        h.write_usize(self.constants().len());
        for &(net, value) in self.constants() {
            h.write_usize(net);
            h.write_u64(u64::from(value));
        }
        h.write_usize(self.cells().len());
        for id in 0..self.cells().len() {
            h.write_u64(self.cell_hash(id));
        }
        // Net names not touched by any cell still matter (ports read
        // them); hash the map in net-id order for determinism.
        let mut named: Vec<(NetId, &str)> = (0..self.num_nets())
            .filter_map(|n| self.net_name(n).map(|s| (n, s)))
            .collect();
        named.sort_unstable_by_key(|&(n, _)| n);
        h.write_usize(named.len());
        for (net, name) in named {
            h.write_usize(net);
            h.write_str(name);
        }
        h.finish()
    }

    // ── Cheap single-edit mutators (the interactive-editing model) ──

    /// Swaps the gate kind of `cell` in place. The new kind must have
    /// the same arity and sequentiality as the old one — this is the
    /// "swap a gate" edit, not a rewiring.
    ///
    /// # Panics
    /// Panics if the arities differ or exactly one side is sequential.
    pub fn set_cell_kind(&mut self, cell: CellId, kind: CellKind) {
        let old = self.cells()[cell].kind;
        assert_eq!(
            old.num_inputs(),
            kind.num_inputs(),
            "arity mismatch swapping {old} for {kind}"
        );
        assert_eq!(
            old.is_sequential(),
            kind.is_sequential(),
            "sequentiality mismatch swapping {old} for {kind}"
        );
        self.cells_mut()[cell].kind = kind;
    }

    /// Retargets input pin `pin` of `cell` to read `net` instead —
    /// the "retarget a net" edit. The caller is responsible for keeping
    /// the netlist acyclic ([`Netlist::validate`] still checks).
    ///
    /// # Panics
    /// Panics if `pin` or `net` is out of range.
    pub fn retarget_input(&mut self, cell: CellId, pin: usize, net: NetId) {
        assert!(net < self.num_nets(), "net {net} out of range");
        let inputs = &mut self.cells_mut()[cell].inputs;
        assert!(pin < inputs.len(), "pin {pin} out of range");
        inputs[pin] = net;
    }

    /// Inverts the value of the `index`-th constant tie — the "flip a
    /// pin constant" edit. Returns the new value.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn flip_constant(&mut self, index: usize) -> bool {
        let (_, value) = &mut self.constants_mut()[index];
        *value = !*value;
        *value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    fn two_gate() -> Netlist {
        let mut b = Builder::new("m");
        let a = b.input("a", 1)[0];
        let c = b.input("b", 1)[0];
        let x = b.and(a, c);
        let y = b.or(x, c);
        b.output("y", &[y]);
        b.finish()
    }

    #[test]
    fn hash_is_stable_and_sensitive() {
        let n = two_gate();
        assert_eq!(n.structural_hash(), two_gate().structural_hash());
        let mut edited = n.clone();
        edited.set_cell_kind(0, CellKind::Or);
        assert_ne!(n.structural_hash(), edited.structural_hash());
        assert_ne!(n.cell_hash(0), edited.cell_hash(0));
        assert_eq!(n.cell_hash(1), edited.cell_hash(1));
    }

    #[test]
    fn net_rename_dirties_owning_cells() {
        let n = two_gate();
        let mut renamed = n.clone();
        let a = renamed.input_ports()[0].bits[0];
        renamed.set_net_name(a, "renamed");
        // Cell 0 reads net `a`; its hash must change. Cell 1 does not.
        assert_ne!(n.cell_hash(0), renamed.cell_hash(0));
        assert_eq!(n.cell_hash(1), renamed.cell_hash(1));
    }

    #[test]
    fn mutators_apply_single_edits() {
        let mut b = Builder::new("k");
        let a = b.input("a", 1)[0];
        let t = b.constant(true);
        let y = b.and(a, t);
        b.output("y", &[y]);
        let mut n = b.finish();
        assert!(!n.flip_constant(0));
        assert!(!n.constants()[0].1);
        let other = n.input_ports()[0].bits[0];
        n.retarget_input(0, 1, other);
        assert_eq!(n.cells()[0].inputs[1], other);
        assert!(n.validate().is_ok());
    }
}
