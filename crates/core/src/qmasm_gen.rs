//! The `edif2qmasm` step: netlist → QMASM program text (paper §4.3).
//!
//! Each cell instantiates its standard-cell macro; each net becomes a set
//! of `=` chains biasing the connected pins to agree (§4.3.1); ground and
//! power ties become single-variable weights (§4.3.4). Module port nets
//! keep their source names so the `qmasm` reporter can present results
//! symbolically; everything else is `$`-prefixed and hidden.

use qac_netlist::Netlist;

/// Renders `netlist` as a QMASM program that `!include`s the standard
/// cell library.
///
/// The returned text is self-contained modulo the `stdcell.qmasm` include
/// (supply it via [`qac_qmasm::MapIncludes`], generating the body with
/// [`qac_qmasm::stdcell_qmasm`]).
pub fn netlist_to_qmasm(netlist: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# QMASM program generated from module `{}`\n",
        netlist.name()
    ));
    out.push_str("!include \"stdcell.qmasm\"\n\n");

    // Symbols for each net: port bits keep their names (a net aliased by
    // several ports gets all of them, chained below), everything else is
    // internal.
    let mut port_syms: Vec<Vec<String>> = vec![Vec::new(); netlist.num_nets()];
    for port in netlist.input_ports().iter().chain(netlist.output_ports()) {
        for (idx, &net) in port.bits.iter().enumerate() {
            let sym = if port.width() == 1 {
                port.name.clone()
            } else {
                format!("{}[{idx}]", port.name)
            };
            port_syms[net].push(sym);
        }
    }
    let net_symbol = |net: usize| -> String {
        port_syms[net]
            .first()
            .cloned()
            .unwrap_or_else(|| format!("$net{net}"))
    };

    // Instances.
    out.push_str("# Cells\n");
    for (id, cell) in netlist.cells().iter().enumerate() {
        out.push_str(&format!("!use_macro {} $g{id}\n", cell.kind.name()));
    }

    // Nets: one chain per pin connection (paper §4.3.1 — a net is an
    // assertion that its endpoints are equal).
    out.push_str("\n# Nets\n");
    for (id, cell) in netlist.cells().iter().enumerate() {
        for (pin_idx, &net) in cell.inputs.iter().enumerate() {
            let pin = cell.kind.input_names()[pin_idx];
            out.push_str(&format!("$g{id}.{pin} = {}\n", net_symbol(net)));
        }
        out.push_str(&format!(
            "$g{id}.{} = {}\n",
            cell.kind.output_name(),
            net_symbol(cell.output)
        ));
    }

    // Ports whose net drives nothing (e.g. a clock input, which the
    // discrete-time model ignores) still get a zero-weight statement so
    // the symbol exists and stays pinnable.
    let mut used = vec![false; netlist.num_nets()];
    for cell in netlist.cells() {
        for &n in &cell.inputs {
            used[n] = true;
        }
        used[cell.output] = true;
    }
    for &(n, _) in netlist.constants() {
        used[n] = true;
    }
    let unused_ports: Vec<String> = (0..netlist.num_nets())
        .filter(|&n| !used[n] && !port_syms[n].is_empty())
        .map(|n| port_syms[n][0].clone())
        .collect();
    if !unused_ports.is_empty() {
        out.push_str("\n# Unused ports (kept addressable)\n");
        for sym in unused_ports {
            out.push_str(&format!("{sym} 0\n"));
        }
    }

    // Port aliases: a net carrying several port names needs the extra
    // names chained so every symbol is reportable and pinnable.
    let aliased: Vec<&Vec<String>> = port_syms.iter().filter(|syms| syms.len() > 1).collect();
    if !aliased.is_empty() {
        out.push_str("\n# Port aliases\n");
        for syms in aliased {
            for other in &syms[1..] {
                out.push_str(&format!("{other} = {}\n", syms[0]));
            }
        }
    }

    // Ground and power (§4.3.4): H_GND(σ) = σ pins false, H_VCC(σ) = −σ
    // pins true. Magnitude 1 suffices ("only the sign matters").
    let has_constants = !netlist.constants().is_empty();
    if has_constants {
        out.push_str("\n# Ground and power\n");
        for &(net, value) in netlist.constants() {
            let weight = if value { -1.0 } else { 1.0 };
            out.push_str(&format!("{} {}\n", net_symbol(net), weight));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qac_gatesynth::CellLibrary;
    use qac_netlist::Builder;
    use qac_qmasm::{assemble, parse, AssembleOptions, MapIncludes};

    fn includes() -> MapIncludes {
        let mut inc = MapIncludes::new();
        inc.insert(
            "stdcell.qmasm",
            qac_qmasm::stdcell_qmasm(&CellLibrary::table5()),
        );
        inc
    }

    #[test]
    fn generated_text_assembles() {
        let mut b = Builder::new("demo");
        let a = b.input("a", 1)[0];
        let c = b.input("b", 1)[0];
        let x = b.xor(a, c);
        let t = b.constant(true);
        let y = b.and(x, t);
        b.output("y", &[y]);
        let netlist = b.finish();
        let text = netlist_to_qmasm(&netlist);
        assert!(text.contains("!use_macro XOR $g0"));
        assert!(text.contains("$g0.A = a"));
        let program = parse(&text, &includes()).unwrap();
        let assembled = assemble(&program, &AssembleOptions::default()).unwrap();
        // Visible symbols: a, b, y (plus hidden internals).
        assert!(assembled.symbols.resolve("a").is_some());
        assert!(assembled.symbols.resolve("y").is_some());
        // Chains merged: XOR(3 pins + 1 anc) + AND(3) + const net, with
        // a/b/y/x shared ⇒ a, b, x(=g0.Y=g1.A), anc, t(=g1.B), y ⇒ 6 vars.
        assert_eq!(assembled.ising.num_vars(), 6);
    }

    #[test]
    fn ground_states_compute_the_circuit() {
        use qac_pbf::bits_to_spins;
        // y = a XOR b via the full QMASM path.
        let mut b = Builder::new("x");
        let a = b.input("a", 1)[0];
        let c = b.input("b", 1)[0];
        let y = b.xor(a, c);
        b.output("y", &[y]);
        let netlist = b.finish();
        let text = netlist_to_qmasm(&netlist);
        let program = parse(&text, &includes()).unwrap();
        let assembled = assemble(&program, &AssembleOptions::default()).unwrap();
        let n = assembled.ising.num_vars();
        let mut best = f64::INFINITY;
        let mut minima = Vec::new();
        for idx in 0..(1u64 << n) {
            let spins = bits_to_spins(idx, n);
            let e = assembled.ising.energy(&spins);
            if e < best - 1e-9 {
                best = e;
                minima = vec![spins];
            } else if (e - best).abs() < 1e-9 {
                minima.push(spins);
            }
        }
        assert_eq!(minima.len(), 4, "one ground state per input combination");
        for spins in minima {
            let av = assembled.symbols.value_of("a", &spins).unwrap();
            let bv = assembled.symbols.value_of("b", &spins).unwrap();
            let yv = assembled.symbols.value_of("y", &spins).unwrap();
            assert_eq!(yv, av ^ bv);
        }
    }

    #[test]
    fn multibit_ports_are_indexed() {
        let mut b = Builder::new("w");
        let a = b.input("a", 2);
        b.output("y", &a);
        let text = netlist_to_qmasm(&b.finish());
        assert!(
            text.contains("a[0]") || text.contains("a[1]"),
            "expected indexed symbols"
        );
    }
}
