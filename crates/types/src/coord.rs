//! Virtual-space coordinates and the circular-distance metrics used by
//! String Figure's greediest routing protocol.
//!
//! Every memory node is assigned one coordinate per virtual space. A
//! coordinate is a point on the unit ring `[0, 1)`. The routing protocol is
//! built on two quantities defined in Section III-B of the paper:
//!
//! * the **circular distance** between two coordinates `u` and `v`:
//!   `D(u, v) = min(|u - v|, 1 - |u - v|)`, and
//! * the **minimum circular distance** between two nodes whose coordinate
//!   vectors are `U = <u_1 … u_L>` and `V = <v_1 … v_L>`:
//!   `MD(U, V) = min_i D(u_i, v_i)`.
//!
//! The hardware routing table stores coordinates quantised to seven bits
//! ([`QuantizedCoord`]), which this module also models so that table-storage
//! costs and quantisation error can be evaluated.

use crate::error::{SfError, SfResult};
use crate::ids::SpaceId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A coordinate on the unit ring `[0, 1)` within one virtual space.
///
/// Coordinates are totally ordered by their numeric value. Construction
/// validates the range so that downstream circular-distance math never has to
/// re-check it.
///
/// # Examples
///
/// ```
/// use sf_types::Coordinate;
/// let c = Coordinate::new(0.25).unwrap();
/// assert_eq!(c.value(), 0.25);
/// assert!(Coordinate::new(1.0).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Coordinate(f64);

impl Coordinate {
    /// Creates a coordinate, validating that it lies in `[0, 1)` and is finite.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidCoordinate`] if `value` is NaN, infinite, or
    /// outside `[0, 1)`.
    pub fn new(value: f64) -> SfResult<Self> {
        if !value.is_finite() || !(0.0..1.0).contains(&value) {
            return Err(SfError::InvalidCoordinate { value });
        }
        Ok(Self(value))
    }

    /// Creates a coordinate by wrapping an arbitrary finite value onto `[0, 1)`.
    ///
    /// Useful when generating coordinates by arithmetic (e.g. `base + offset`)
    /// where the intermediate value may exceed the ring.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    #[must_use]
    pub fn wrapping(value: f64) -> Self {
        assert!(value.is_finite(), "coordinate must be finite");
        let mut v = value.rem_euclid(1.0);
        // rem_euclid can return exactly 1.0 for tiny negative inputs due to
        // rounding; fold that back onto the ring.
        if v >= 1.0 {
            v = 0.0;
        }
        Self(v)
    }

    /// Returns the raw value in `[0, 1)`.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Quantises this coordinate to the 7-bit representation stored in the
    /// hardware routing table.
    #[must_use]
    pub fn quantize(self) -> QuantizedCoord {
        QuantizedCoord::from_coordinate(self)
    }
}

impl fmt::Display for Coordinate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl Eq for Coordinate {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Coordinate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Coordinates are always finite by construction, so total order is safe.
        self.0
            .partial_cmp(&other.0)
            .expect("coordinates are finite")
    }
}

/// Number of bits used to store a coordinate in the hardware routing table
/// (Section IV of the paper).
pub const COORD_BITS: u32 = 7;

/// Number of representable quantisation levels for a [`QuantizedCoord`].
pub const COORD_LEVELS: u16 = 1 << COORD_BITS;

/// A coordinate quantised to [`COORD_BITS`] bits, as stored by router hardware.
///
/// ```
/// use sf_types::{Coordinate, QuantizedCoord};
/// let q = Coordinate::new(0.5).unwrap().quantize();
/// assert_eq!(q.raw(), 64);
/// let back = q.to_coordinate();
/// assert!((back.value() - 0.5).abs() < 1.0 / 128.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct QuantizedCoord(u8);

impl QuantizedCoord {
    /// Quantises a full-precision coordinate.
    #[must_use]
    pub fn from_coordinate(coord: Coordinate) -> Self {
        let level = (coord.value() * f64::from(COORD_LEVELS)).floor() as u16;
        Self(level.min(COORD_LEVELS - 1) as u8)
    }

    /// Creates a quantised coordinate from a raw 7-bit level.
    ///
    /// # Errors
    ///
    /// Returns [`SfError::InvalidCoordinate`] if `raw` is not below
    /// [`COORD_LEVELS`].
    pub fn from_raw(raw: u8) -> SfResult<Self> {
        if u16::from(raw) >= COORD_LEVELS {
            return Err(SfError::InvalidCoordinate {
                value: f64::from(raw),
            });
        }
        Ok(Self(raw))
    }

    /// Returns the raw 7-bit quantisation level.
    #[must_use]
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// Converts back to a full-precision coordinate at the centre of the
    /// quantisation bucket.
    #[must_use]
    pub fn to_coordinate(self) -> Coordinate {
        Coordinate::wrapping((f64::from(self.0) + 0.5) / f64::from(COORD_LEVELS))
    }
}

impl fmt::Display for QuantizedCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Circular distance `D(u, v) = min(|u - v|, 1 - |u - v|)` between two
/// coordinates on the unit ring.
///
/// The result lies in `[0, 0.5]`.
///
/// ```
/// use sf_types::{Coordinate, circular_distance};
/// let a = Coordinate::new(0.9).unwrap();
/// let b = Coordinate::new(0.1).unwrap();
/// assert!((circular_distance(a, b) - 0.2).abs() < 1e-12);
/// ```
#[must_use]
pub fn circular_distance(u: Coordinate, v: Coordinate) -> f64 {
    ring_distance(u.value(), v.value())
}

/// The circular-distance arithmetic on raw ring values — the single copy
/// every distance function in this module goes through.
#[inline]
fn ring_distance(u: f64, v: f64) -> f64 {
    let diff = (u - v).abs();
    diff.min(1.0 - diff)
}

/// Minimum circular distance `MD(U, V) = min_i D(u_i, v_i)` between two
/// coordinate vectors given as raw per-space ring values of equal length.
///
/// This is the form routing evaluates per hop. Lengths are fixed (and
/// validated) when a network's virtual spaces are built, so they are only
/// checked in debug builds.
///
/// ```
/// use sf_types::min_circular_distance;
/// assert!((min_circular_distance(&[0.1, 0.8], &[0.6, 0.85]) - 0.05).abs() < 1e-12);
/// ```
#[must_use]
#[inline]
pub fn min_circular_distance(u: &[f64], v: &[f64]) -> f64 {
    debug_assert_eq!(
        u.len(),
        v.len(),
        "coordinate vectors must span the same virtual spaces"
    );
    debug_assert!(!u.is_empty(), "coordinate vectors must not be empty");
    u.iter()
        .zip(v)
        .map(|(&a, &b)| ring_distance(a, b))
        .fold(f64::INFINITY, f64::min)
}

/// The virtual space whose circular distance between `u` and `v` is minimal
/// (the first such space on ties), together with that distance — the
/// "MD-defining space" used for virtual-channel selection. Same length
/// contract as [`min_circular_distance`].
///
/// ```
/// use sf_types::{closest_space, SpaceId};
/// let (space, d) = closest_space(&[0.1, 0.8], &[0.6, 0.85]);
/// assert_eq!(space, SpaceId::new(1));
/// assert!((d - 0.05).abs() < 1e-12);
/// ```
#[must_use]
#[inline]
pub fn closest_space(u: &[f64], v: &[f64]) -> (SpaceId, f64) {
    debug_assert_eq!(u.len(), v.len());
    debug_assert!(!u.is_empty());
    let mut best = (SpaceId::new(0), f64::INFINITY);
    for (i, (&a, &b)) in u.iter().zip(v).enumerate() {
        let d = ring_distance(a, b);
        if d < best.1 {
            best = (SpaceId::new(i), d);
        }
    }
    best
}

/// Minimum circular distance between two coordinate vectors; see
/// [`min_circular_distance`].
#[must_use]
pub fn minimum_circular_distance(u: &CoordinateVector, v: &CoordinateVector) -> f64 {
    min_circular_distance(u.values(), v.values())
}

/// The full set of virtual-space coordinates assigned to one memory node.
///
/// Index `i` is the node's coordinate in virtual space `i`.
///
/// ```
/// use sf_types::{Coordinate, CoordinateVector, SpaceId};
/// let v = CoordinateVector::new(vec![
///     Coordinate::new(0.1).unwrap(),
///     Coordinate::new(0.7).unwrap(),
/// ]);
/// assert_eq!(v.num_spaces(), 2);
/// assert_eq!(v.coordinate(SpaceId::new(1)).value(), 0.7);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoordinateVector {
    /// Raw ring values in space order (each validated into `[0, 1)` by the
    /// [`Coordinate`] it came from).
    values: Vec<f64>,
}

impl CoordinateVector {
    /// Creates a coordinate vector from per-space coordinates.
    #[must_use]
    pub fn new(coords: Vec<Coordinate>) -> Self {
        Self {
            values: coords.into_iter().map(Coordinate::value).collect(),
        }
    }

    /// Number of virtual spaces covered by this vector.
    #[must_use]
    pub fn num_spaces(&self) -> usize {
        self.values.len()
    }

    /// Returns the coordinate in the given virtual space.
    ///
    /// # Panics
    ///
    /// Panics if `space` is out of range.
    #[must_use]
    pub fn coordinate(&self, space: SpaceId) -> Coordinate {
        Coordinate(self.values[space.index()])
    }

    /// Returns the coordinate in the given virtual space, if present.
    #[must_use]
    pub fn get(&self, space: SpaceId) -> Option<Coordinate> {
        self.values.get(space.index()).map(|&v| Coordinate(v))
    }

    /// Iterates over coordinates in space order.
    pub fn iter(&self) -> impl Iterator<Item = Coordinate> + '_ {
        self.values.iter().map(|&v| Coordinate(v))
    }

    /// Returns the raw ring values in space order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Returns the index of the virtual space whose circular distance to the
    /// other vector is minimal, together with that distance; see
    /// [`closest_space`].
    #[must_use]
    pub fn closest_space(&self, other: &Self) -> (SpaceId, f64) {
        closest_space(&self.values, &other.values)
    }
}

impl fmt::Display for CoordinateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn coord(v: f64) -> Coordinate {
        Coordinate::new(v).unwrap()
    }

    #[test]
    fn coordinate_rejects_out_of_range() {
        assert!(Coordinate::new(-0.01).is_err());
        assert!(Coordinate::new(1.0).is_err());
        assert!(Coordinate::new(f64::NAN).is_err());
        assert!(Coordinate::new(f64::INFINITY).is_err());
        assert!(Coordinate::new(0.0).is_ok());
        assert!(Coordinate::new(0.999_999).is_ok());
    }

    #[test]
    fn wrapping_folds_onto_ring() {
        assert!((Coordinate::wrapping(1.25).value() - 0.25).abs() < 1e-12);
        assert!((Coordinate::wrapping(-0.25).value() - 0.75).abs() < 1e-12);
        assert_eq!(Coordinate::wrapping(0.0).value(), 0.0);
    }

    #[test]
    fn circular_distance_matches_paper_definition() {
        assert!((circular_distance(coord(0.1), coord(0.4)) - 0.3).abs() < 1e-12);
        assert!((circular_distance(coord(0.9), coord(0.1)) - 0.2).abs() < 1e-12);
        assert_eq!(circular_distance(coord(0.5), coord(0.5)), 0.0);
        // Antipodal points are exactly half the ring apart.
        assert!((circular_distance(coord(0.0), coord(0.5)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn minimum_circular_distance_picks_best_space() {
        let u = CoordinateVector::new(vec![coord(0.1), coord(0.8)]);
        let v = CoordinateVector::new(vec![coord(0.6), coord(0.85)]);
        // Space 0 distance = 0.5, space 1 distance = 0.05.
        assert!((minimum_circular_distance(&u, &v) - 0.05).abs() < 1e-12);
        let (space, d) = u.closest_space(&v);
        assert_eq!(space, SpaceId::new(1));
        assert!((d - 0.05).abs() < 1e-12);
    }

    #[test]
    fn quantized_coordinate_roundtrip_error_is_bounded() {
        for i in 0..128u16 {
            let c = coord(f64::from(i) / 128.0 + 1e-9);
            let q = c.quantize();
            let back = q.to_coordinate();
            assert!(circular_distance(c, back) <= 1.0 / 128.0);
        }
    }

    #[test]
    fn quantized_coordinate_raw_bounds() {
        assert!(QuantizedCoord::from_raw(127).is_ok());
        assert!(QuantizedCoord::from_raw(128).is_err());
        assert_eq!(coord(0.999_999).quantize().raw(), 127);
        assert_eq!(coord(0.0).quantize().raw(), 0);
    }

    #[test]
    fn coordinate_vector_accessors() {
        let v = CoordinateVector::new(vec![coord(0.2), coord(0.4), coord(0.6)]);
        assert_eq!(v.num_spaces(), 3);
        assert_eq!(v.coordinate(SpaceId::new(2)).value(), 0.6);
        assert_eq!(v.get(SpaceId::new(3)), None);
        assert_eq!(v.values(), &[0.2, 0.4, 0.6]);
        assert_eq!(v.to_string(), "<0.2000, 0.4000, 0.6000>");
    }

    proptest! {
        #[test]
        fn prop_circular_distance_symmetric(a in 0.0..1.0f64, b in 0.0..1.0f64) {
            let (ca, cb) = (coord(a), coord(b));
            prop_assert!((circular_distance(ca, cb) - circular_distance(cb, ca)).abs() < 1e-12);
        }

        #[test]
        fn prop_circular_distance_bounded(a in 0.0..1.0f64, b in 0.0..1.0f64) {
            let d = circular_distance(coord(a), coord(b));
            prop_assert!((0.0..=0.5).contains(&d));
        }

        #[test]
        fn prop_circular_distance_identity(a in 0.0..1.0f64) {
            prop_assert_eq!(circular_distance(coord(a), coord(a)), 0.0);
        }

        #[test]
        fn prop_circular_distance_triangle(a in 0.0..1.0f64, b in 0.0..1.0f64, c in 0.0..1.0f64) {
            let (ca, cb, cc) = (coord(a), coord(b), coord(c));
            let d_ab = circular_distance(ca, cb);
            let d_bc = circular_distance(cb, cc);
            let d_ac = circular_distance(ca, cc);
            prop_assert!(d_ac <= d_ab + d_bc + 1e-12);
        }

        #[test]
        fn prop_md_is_min_over_spaces(
            coords in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..6)
        ) {
            let u = CoordinateVector::new(coords.iter().map(|(a, _)| coord(*a)).collect());
            let v = CoordinateVector::new(coords.iter().map(|(_, b)| coord(*b)).collect());
            let md = minimum_circular_distance(&u, &v);
            for (a, b) in &coords {
                prop_assert!(md <= circular_distance(coord(*a), coord(*b)) + 1e-15);
            }
        }

        #[test]
        fn prop_quantization_error_within_one_bucket(a in 0.0..1.0f64) {
            let c = coord(a);
            let back = c.quantize().to_coordinate();
            prop_assert!(circular_distance(c, back) <= 1.0 / 128.0 + 1e-12);
        }

        #[test]
        fn prop_wrapping_always_valid(a in -100.0..100.0f64) {
            let c = Coordinate::wrapping(a);
            prop_assert!((0.0..1.0).contains(&c.value()));
        }
    }
}
