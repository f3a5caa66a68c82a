//! Packed-lane equivalence on the path users run by default.
//!
//! `SolverChoice::Sa` — the default solver — anneals 64 reads per
//! machine word. Its correctness rests on one exact property: a packed
//! run equals, bit for bit, the one-lane scalar walk of the same
//! algorithm (`BitParallelSa::sample_reference`). 100 reads make one
//! full word and one partial 36-lane word, so a garbage lane leaking
//! out of the partial word, or a lane reading another lane's state,
//! changes the sample set.

use qac::core::{compile, CompileOptions};
use qac::qmasm::PinStyle;
use qac::solvers::{BitParallelSa, Sampler};

/// Listing 5.
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

#[test]
fn packed_sa_matches_the_one_lane_walk_on_circsat() {
    let compiled = compile(CIRCSAT, "circsat", &CompileOptions::default()).unwrap();
    let pin_weight = (2.0 * compiled.assembled.chain_strength).max(2.0);
    let model = compiled
        .assembled
        .pinned_model(&[("y".to_string(), true)], PinStyle::Bias(pin_weight))
        .unwrap();
    // The run path's defaults: 256 sweeps, 100 reads, seed 0x5eed.
    let sa = BitParallelSa::new(0x5eed).with_sweeps(256);
    let packed = sa.sample(&model, 100);
    assert_eq!(packed.total_reads(), 100);
    assert_eq!(packed, sa.sample_reference(&model, 100));
}
