//! Answer oracles, written from the programs' specifications and sharing
//! no code with the compiler: a decoded answer is right when it honours
//! the job's pins and the program's input/output relation.

use crate::jobs::{Pin, Program, COUNTER_STEPS};

/// The Australia map's ten borders (Listing 7).
const BORDERS: [(&str, &str); 10] = [
    ("WA", "NT"),
    ("WA", "SA"),
    ("NT", "SA"),
    ("NT", "QLD"),
    ("SA", "QLD"),
    ("SA", "NSW"),
    ("SA", "VIC"),
    ("QLD", "NSW"),
    ("NSW", "VIC"),
    ("NSW", "ACT"),
];

/// Checks one answer; `get` reads a named value (a bit or a word) of it.
pub fn check(
    program: Program,
    pins: &[Pin],
    get: &dyn Fn(&str) -> Option<u64>,
) -> Result<(), String> {
    let value = |name: &str| get(name).ok_or_else(|| format!("answer has no `{name}`"));
    for pin in pins {
        let got = value(&pin.name)?;
        if got != pin.value {
            return Err(format!(
                "pin {} = {} but the answer has {got}",
                pin.name, pin.value
            ));
        }
    }
    match program {
        Program::Figure2 => {
            let (s, a, b, c) = (value("s")?, value("a")?, value("b")?, value("c")?);
            let want = if s == 1 { a + b } else { a.wrapping_sub(b) } & 3;
            expect("c", c, want)
        }
        Program::Circsat => {
            let (a, b, c, y) = (value("a")?, value("b")?, value("c")?, value("y")?);
            expect("y", y, circsat(a == 1, b == 1, c == 1).into())
        }
        Program::Mult(n) => {
            let (a, b, c) = (value("A")?, value("B")?, value("C")?);
            if a >> n != 0 || b >> n != 0 {
                return Err(format!("operands {a}, {b} exceed {n} bits"));
            }
            expect("C", c, a * b)
        }
        Program::Australia => {
            let mut proper = true;
            for (x, y) in BORDERS {
                proper &= value(x)? != value(y)?;
            }
            expect("valid", value("valid")?, proper.into())
        }
        Program::Counter => {
            let mut count = 0u64;
            for t in 0..COUNTER_STEPS {
                expect(&format!("out@{t}"), value(&format!("out@{t}"))?, count)?;
                if value(&format!("reset@{t}"))? == 1 {
                    count = 0;
                } else if value(&format!("inc@{t}"))? == 1 {
                    count = (count + 1) & 63;
                }
            }
            expect("ff_final", value("ff_final")?, count)
        }
    }
}

fn expect(name: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{name} = {got}, expected {want}"))
    }
}

/// Listing 5, wire by wire.
fn circsat(a: bool, b: bool, c: bool) -> bool {
    let x4 = !c;
    let x5 = a | b;
    let x6 = !x4;
    let x7 = a & b & x4;
    let x8 = x5 | x6;
    let x9 = x6 | x7;
    x8 & x9 & x7
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    type Answer = BTreeMap<String, u64>;

    fn answer(values: &[(&str, u64)]) -> Answer {
        values.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    fn verdict(program: Program, pins: &[Pin], answer: &Answer) -> Result<(), String> {
        check(program, pins, &|name| answer.get(name).copied())
    }

    /// Width in bits of each value of an answer, for corruption.
    fn width(program: Program, name: &str) -> u32 {
        match (program, name) {
            (Program::Figure2, "c") => 2,
            (Program::Mult(n), "A" | "B") => n,
            (Program::Mult(n), "C") => 2 * n,
            (Program::Australia, "valid") => 1,
            (Program::Australia, _) => 2,
            (Program::Counter, "ff_final") => 6,
            (Program::Counter, n) if n.starts_with("out@") => 6,
            _ => 1,
        }
    }

    /// Asserts `good` is accepted and that flipping each listed bit
    /// (`name`, or every bit of every value when `names` is empty) is
    /// rejected.
    fn rejects_every_flip(program: Program, pins: &[Pin], good: &Answer, names: &[&str]) {
        assert_eq!(verdict(program, pins, good), Ok(()), "{program:?} {good:?}");
        let names: Vec<String> = if names.is_empty() {
            good.keys().cloned().collect()
        } else {
            names.iter().map(|s| s.to_string()).collect()
        };
        for name in names {
            for bit in 0..width(program, &name) {
                let mut bad = good.clone();
                *bad.get_mut(&name).unwrap() ^= 1 << bit;
                assert!(
                    verdict(program, pins, &bad).is_err(),
                    "{program:?} accepted {name} bit {bit} flipped: {bad:?}"
                );
            }
        }
    }

    #[test]
    fn figure2_checks_the_mux_relation() {
        // With b = 1, every single-bit flip of s, a, b or c changes c's
        // required value or c itself.
        for (s, a) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let c = if s == 1 { a + 1 } else { (a + 3) & 3 };
            let good = answer(&[("s", s), ("a", a), ("b", 1), ("c", c)]);
            rejects_every_flip(Program::Figure2, &[], &good, &[]);
        }
        // 1 − 1 = 0 and 0 − 1 = 3 (mod 4).
        assert!(verdict(
            Program::Figure2,
            &[],
            &answer(&[("s", 0), ("a", 0), ("b", 1), ("c", 3)])
        )
        .is_ok());
    }

    #[test]
    fn circsat_checks_listing_5() {
        let good = answer(&[("a", 1), ("b", 1), ("c", 0), ("y", 1)]);
        rejects_every_flip(Program::Circsat, &[Pin::bit("y", true)], &good, &[]);
        // The formula's only satisfying input is (1, 1, 0).
        let sat: Vec<(bool, bool, bool)> = (0..8)
            .map(|i| (i & 4 != 0, i & 2 != 0, i & 1 != 0))
            .filter(|&(a, b, c)| circsat(a, b, c))
            .collect();
        assert_eq!(sat, [(true, true, false)]);
    }

    #[test]
    fn multiplier_checks_the_product() {
        for n in [4, 6, 8] {
            let (a, b) = ((1 << n) - 3, 5);
            let good = answer(&[("A", a), ("B", b), ("C", a * b)]);
            rejects_every_flip(Program::Mult(n), &[], &good, &[]);
        }
        // A pinned product the answer does not reach is wrong even when
        // the answer multiplies correctly.
        let pins = [Pin::word("C", 8, 221)];
        assert!(verdict(
            Program::Mult(4),
            &pins,
            &answer(&[("A", 13), ("B", 1), ("C", 13)])
        )
        .is_err());
    }

    #[test]
    fn australia_checks_every_border() {
        // WA=0 NT=1 SA=2 QLD=0 NSW=1 VIC=0 ACT=0 is a proper colouring.
        let good = answer(&[
            ("WA", 0),
            ("NT", 1),
            ("SA", 2),
            ("QLD", 0),
            ("NSW", 1),
            ("VIC", 0),
            ("ACT", 0),
            ("valid", 1),
        ]);
        let pins = [Pin::bit("valid", true)];
        rejects_every_flip(Program::Australia, &pins, &good, &["valid"]);
        // A one-bit flip that collides with a neighbour: SA 2 → 0 = QLD.
        let mut bad = good.clone();
        *bad.get_mut("SA").unwrap() ^= 2;
        assert!(verdict(Program::Australia, &pins, &bad).is_err());
        // Each border is checked: copying one endpoint's colour onto the
        // other breaks exactly that border.
        for (x, y) in BORDERS {
            let mut bad = good.clone();
            let colour = bad[x];
            bad.insert(y.to_string(), colour);
            assert!(verdict(Program::Australia, &pins, &bad).is_err(), "{x}-{y}");
        }
    }

    #[test]
    fn counter_is_simulated_step_by_step() {
        let mut good = answer(&[("ff_final", 3)]);
        for t in 0..COUNTER_STEPS {
            good.insert(format!("inc@{t}"), 1);
            good.insert(format!("reset@{t}"), 0);
            good.insert(format!("clk@{t}"), 0);
            good.insert(format!("out@{t}"), t as u64);
        }
        let pins = [Pin::word("ff_final", 6, 3)];
        let outputs: Vec<String> = good
            .keys()
            .filter(|k| !k.starts_with("clk"))
            .cloned()
            .collect();
        let outputs: Vec<&str> = outputs.iter().map(String::as_str).collect();
        rejects_every_flip(Program::Counter, &pins, &good, &outputs);
        // A reset at the last step reaches 0 instead.
        let mut reset = good.clone();
        reset.insert("reset@2".into(), 1);
        reset.insert("ff_final".into(), 0);
        assert!(verdict(Program::Counter, &[], &reset).is_ok());
    }

    #[test]
    fn a_missing_value_is_an_error() {
        let partial = answer(&[("s", 1), ("a", 1)]);
        assert!(verdict(Program::Figure2, &[], &partial).is_err());
    }
}
