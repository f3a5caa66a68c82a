//! Reverse execution end to end, with the netlist simulator as oracle.
//!
//! The paper's headline trick is running a circuit *backward*: pin the
//! outputs, anneal, and read the inputs off the ground state (§5:
//! factoring with a multiplier, CLRS circuit satisfiability). These
//! tests drive that path through `Compiled::run` and then hold every
//! returned input assignment up against `CombSim` — an independent
//! evaluation of the same netlist — so a decode bug cannot mark wrong
//! factors "valid" unchallenged.

use qac::core::{compile, CompileOptions, Compiled, RunOptions, RunOutcome, SolverChoice};
use qac::netlist::CombSim;

const MULT: &str = r#"
    module mult (A, B, C);
      input [3:0] A;
      input [3:0] B;
      output [7:0] C;
      assign C = A * B;
    endmodule
"#;

const CIRCSAT: &str = r#"
    module circsat (a, b, c, y);
      input a, b, c;
      output y;
      wire [1:10] x;
      assign x[1] = a;
      assign x[2] = b;
      assign x[3] = c;
      assign x[4] = ~x[3];
      assign x[5] = x[1] | x[2];
      assign x[6] = ~x[4];
      assign x[7] = x[1] & x[2] & x[4];
      assign x[8] = x[5] | x[6];
      assign x[9] = x[6] | x[7];
      assign x[10] = x[8] & x[9] & x[7];
      assign y = x[10];
    endmodule
"#;

fn compile_top(source: &str, top: &str) -> Compiled {
    compile(source, top, &CompileOptions::default()).unwrap()
}

/// Runs `options` under up to five fixed seeds and returns the first
/// outcome that decodes a valid execution (or the last one, for the
/// caller's asserts to reject). Stochastic samplers can miss on one
/// seed; the fixed seed list keeps the test reproducible.
fn run_until_valid(program: &Compiled, options: &RunOptions) -> RunOutcome {
    let mut outcome = None;
    for seed in [1u64, 2, 3, 4, 5] {
        let run = program.run(&options.clone().seed(seed)).unwrap();
        if run.valid_fraction() > 0.0 {
            return run;
        }
        outcome = Some(run);
    }
    outcome.expect("at least one seed ran")
}

#[test]
fn multiplier_backward_recovers_factors_validated_by_simulation() {
    let program = compile_top(MULT, "mult");
    let sim = CombSim::new(&program.netlist).unwrap();
    let outcome = run_until_valid(
        &program,
        &RunOptions::new()
            .pin("C[7:0] := 143")
            .solver(SolverChoice::Tabu)
            .num_reads(30),
    );
    let factorizations: Vec<(u64, u64)> = outcome
        .valid_solutions()
        .map(|s| (s.get("A").unwrap(), s.get("B").unwrap()))
        .collect();
    assert!(!factorizations.is_empty(), "143 = 11 × 13 should factor");
    for &(a, b) in &factorizations {
        // Arithmetic check *and* the independent netlist oracle: the
        // recovered inputs must drive the forward circuit to the pinned
        // product.
        assert_eq!(a * b, 143, "bogus factorization {a} × {b}");
        let simulated = sim.eval_words(&[("A", a), ("B", b)]).unwrap();
        assert_eq!(simulated["C"], 143, "netlist disagrees at A={a} B={b}");
    }
}

#[test]
fn multiplier_backward_on_a_prime_square_pins_both_factors() {
    // 49's only 4-bit factorization is 7 × 7, so a valid read determines
    // both inputs completely.
    let program = compile_top(MULT, "mult");
    let sim = CombSim::new(&program.netlist).unwrap();
    let outcome = run_until_valid(
        &program,
        &RunOptions::new()
            .pin("C[7:0] := 49")
            .solver(SolverChoice::Tabu)
            .num_reads(30),
    );
    let mut saw_valid = false;
    for s in outcome.valid_solutions() {
        saw_valid = true;
        let (a, b) = (s.get("A").unwrap(), s.get("B").unwrap());
        assert_eq!((a, b), (7, 7));
        assert_eq!(sim.eval_words(&[("A", a), ("B", b)]).unwrap()["C"], 49);
    }
    assert!(saw_valid, "49 = 7 × 7 should factor");
}

#[test]
fn circsat_backward_assignments_satisfy_the_netlist() {
    let program = compile_top(CIRCSAT, "circsat");
    let sim = CombSim::new(&program.netlist).unwrap();
    let outcome = run_until_valid(
        &program,
        &RunOptions::new()
            .pin("y := true")
            .solver(SolverChoice::Exact),
    );
    let assignments: std::collections::BTreeSet<(u64, u64, u64)> = outcome
        .valid_solutions()
        .map(|s| {
            (
                s.get("a").unwrap(),
                s.get("b").unwrap(),
                s.get("c").unwrap(),
            )
        })
        .collect();
    // Every returned assignment must actually satisfy the circuit.
    for &(a, b, c) in &assignments {
        let simulated = sim.eval_words(&[("a", a), ("b", b), ("c", c)]).unwrap();
        assert_eq!(simulated["y"], 1, "a={a} b={b} c={c} does not satisfy");
    }
    // And CLRS's circuit has exactly one satisfying assignment: (1, 1, 0).
    assert_eq!(assignments.into_iter().collect::<Vec<_>>(), [(1, 1, 0)]);
}

#[test]
fn each_of_three_reverse_jobs_validates_against_its_netlist() {
    // Both reverse problems, three jobs run one after another. Each
    // job's solutions are validated against its own program's netlist.
    let mult = compile_top(MULT, "mult");
    let circsat = compile_top(CIRCSAT, "circsat");
    let factor = |product: u64| {
        RunOptions::new()
            .pin(&format!("C[7:0] := {product}"))
            .solver(SolverChoice::Tabu)
            .num_reads(30)
    };
    let jobs = [
        ("factor:15", &mult, factor(15), 15),
        (
            "circsat:y=1",
            &circsat,
            RunOptions::new()
                .pin("y := true")
                .solver(SolverChoice::Exact),
            0,
        ),
        ("factor:21", &mult, factor(21), 21),
    ];
    for (label, program, options, product) in jobs {
        let outcome = run_until_valid(program, &options);
        let sim = CombSim::new(&program.netlist).unwrap();
        let mut valid = 0usize;
        for s in outcome.valid_solutions() {
            valid += 1;
            if product > 0 {
                let (a, b) = (s.get("A").unwrap(), s.get("B").unwrap());
                assert_eq!(a * b, product, "{label}");
                assert_eq!(sim.eval_words(&[("A", a), ("B", b)]).unwrap()["C"], product);
            } else {
                let inputs: Vec<(&str, u64)> = ["a", "b", "c"]
                    .iter()
                    .map(|&port| (port, s.get(port).unwrap()))
                    .collect();
                assert_eq!(sim.eval_words(&inputs).unwrap()["y"], 1, "{label}");
            }
        }
        assert!(valid > 0, "{label}: no valid execution decoded");
    }
}
