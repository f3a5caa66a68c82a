use std::fmt;
use std::ops::Neg;

use serde::{Deserialize, Serialize};

/// A "physics Boolean": false is −1 ([`Spin::Down`]) and true is +1
/// ([`Spin::Up`]).
///
/// The paper's exposition (§2) represents Boolean variables as spins in
/// {−1, +1}; this type keeps that distinction explicit in the type system
/// instead of reusing `bool` or `i8`.
///
/// The discriminants are the spin values themselves, so [`Spin::value`]
/// and [`Spin::sign`] are a cast rather than a branch: in a sampler's
/// local-field sum over random spins a `match` compiles to a
/// data-dependent branch that mispredicts about once per coupler. The
/// derived `Ord` follows the discriminants, so `Down < Up`, and the type
/// occupies one byte.
///
/// ```
/// use qac_pbf::Spin;
/// assert_eq!(Spin::from(true), Spin::Up);
/// assert_eq!(Spin::Down.value(), -1.0);
/// assert_eq!(-Spin::Up, Spin::Down);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(i8)]
pub enum Spin {
    /// σ = −1, the encoding of logical false.
    Down = -1,
    /// σ = +1, the encoding of logical true.
    Up = 1,
}

impl Spin {
    /// The spin's numeric value, −1.0 or +1.0.
    #[inline]
    pub fn value(self) -> f64 {
        f64::from(self as i8)
    }

    /// The spin's integer value, −1 or +1.
    #[inline]
    pub fn sign(self) -> i8 {
        self as i8
    }

    /// The classical bit this spin encodes: `Down → false`, `Up → true`.
    #[inline]
    pub fn to_bool(self) -> bool {
        matches!(self, Spin::Up)
    }

    /// The classical bit as 0/1.
    #[inline]
    pub fn to_bit(self) -> u8 {
        match self {
            Spin::Down => 0,
            Spin::Up => 1,
        }
    }

    /// The opposite spin.
    #[inline]
    pub fn flipped(self) -> Spin {
        match self {
            Spin::Down => Spin::Up,
            Spin::Up => Spin::Down,
        }
    }
}

impl From<bool> for Spin {
    #[inline]
    fn from(b: bool) -> Spin {
        if b {
            Spin::Up
        } else {
            Spin::Down
        }
    }
}

impl From<Spin> for bool {
    #[inline]
    fn from(s: Spin) -> bool {
        s.to_bool()
    }
}

impl Neg for Spin {
    type Output = Spin;
    #[inline]
    fn neg(self) -> Spin {
        self.flipped()
    }
}

impl fmt::Display for Spin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Spin::Down => write!(f, "-1"),
            Spin::Up => write!(f, "+1"),
        }
    }
}

/// A convenience alias for an owned spin assignment.
pub type SpinVec = Vec<Spin>;

/// Converts a little-endian bit index into a spin vector of width `n`.
///
/// Bit `i` of `index` becomes spin `i`. Useful for exhaustively enumerating
/// all 2ⁿ assignments.
///
/// ```
/// use qac_pbf::{bits_to_spins, Spin};
/// assert_eq!(bits_to_spins(0b101, 3), vec![Spin::Up, Spin::Down, Spin::Up]);
/// ```
pub fn bits_to_spins(index: u64, n: usize) -> SpinVec {
    (0..n).map(|i| Spin::from((index >> i) & 1 == 1)).collect()
}

/// Converts a spin slice back into the little-endian bit index that
/// [`bits_to_spins`] would have produced.
///
/// ```
/// use qac_pbf::{bits_to_spins, spins_to_index};
/// for idx in 0..16 {
///     assert_eq!(spins_to_index(&bits_to_spins(idx, 4)), idx);
/// }
/// ```
pub fn spins_to_index(spins: &[Spin]) -> u64 {
    spins
        .iter()
        .enumerate()
        .fold(0, |acc, (i, s)| acc | (u64::from(s.to_bit()) << i))
}

/// Converts a spin slice into a vector of classical bits.
pub fn spins_to_bits(spins: &[Spin]) -> Vec<bool> {
    spins.iter().map(|s| s.to_bool()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_values() {
        assert_eq!(Spin::Down.value(), -1.0);
        assert_eq!(Spin::Up.value(), 1.0);
        assert_eq!(Spin::Down.sign(), -1);
        assert_eq!(Spin::Up.sign(), 1);
        for s in [Spin::Down, Spin::Up] {
            assert_eq!(s.value().to_bits(), f64::from(s.sign()).to_bits());
            assert_eq!(s.to_bit(), u8::from(s.to_bool()));
            assert_eq!(s.flipped().value(), -s.value());
            assert_eq!(-s, s.flipped());
        }
    }

    #[test]
    fn spin_representation_keeps_size_order_and_names() {
        assert_eq!(std::mem::size_of::<Spin>(), 1);
        assert_eq!(std::mem::size_of::<Option<Spin>>(), 1);
        assert!(Spin::Down < Spin::Up);
        assert_eq!(Spin::Down.cmp(&Spin::Up), std::cmp::Ordering::Less);
        let mut spins = vec![Spin::Up, Spin::Down, Spin::Up, Spin::Down, Spin::Down];
        spins.sort();
        assert_eq!(
            spins,
            [Spin::Down, Spin::Down, Spin::Down, Spin::Up, Spin::Up]
        );
        // Serde's derive names unit variants by identifier, whatever
        // their discriminants; the identifiers are what `Debug` prints.
        assert_eq!(format!("{:?}", Spin::Down), "Down");
        assert_eq!(format!("{:?}", Spin::Up), "Up");
    }

    #[test]
    fn spin_bool_round_trip() {
        assert_eq!(Spin::from(false), Spin::Down);
        assert_eq!(Spin::from(true), Spin::Up);
        for b in [false, true] {
            assert_eq!(Spin::from(b).to_bool(), b);
            assert_eq!(bool::from(Spin::from(b)), b);
        }
    }

    #[test]
    fn spin_negation_is_involution() {
        for s in [Spin::Down, Spin::Up] {
            assert_eq!(-(-s), s);
            assert_ne!(-s, s);
        }
    }

    #[test]
    fn bits_round_trip_all_nibbles() {
        for idx in 0..16u64 {
            let spins = bits_to_spins(idx, 4);
            assert_eq!(spins.len(), 4);
            assert_eq!(spins_to_index(&spins), idx);
        }
    }

    #[test]
    fn bits_to_spins_zero_width() {
        assert!(bits_to_spins(0, 0).is_empty());
        assert_eq!(spins_to_index(&[]), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Spin::Up.to_string(), "+1");
        assert_eq!(Spin::Down.to_string(), "-1");
    }

    #[test]
    fn spins_to_bits_matches_to_bool() {
        let spins = bits_to_spins(0b0110, 4);
        assert_eq!(spins_to_bits(&spins), vec![false, true, true, false]);
    }
}
