//! The canonical seven-dimensional convolution iteration space.
//!
//! Following Timeloop's convention (paper §2.1), a convolutional layer is a
//! seven-deep loop nest over:
//!
//! | Dim | Meaning |
//! |-----|---------|
//! | `N` | batch |
//! | `M` | output channels |
//! | `C` | input channels |
//! | `P` | output rows |
//! | `Q` | output columns |
//! | `R` | filter rows |
//! | `S` | filter columns |

use std::fmt;
use std::ops::{Index, IndexMut};

/// One of the seven canonical convolution dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dim {
    /// Batch.
    N,
    /// Output channels.
    M,
    /// Input channels.
    C,
    /// Output feature-map rows.
    P,
    /// Output feature-map columns.
    Q,
    /// Filter rows.
    R,
    /// Filter columns.
    S,
}

impl Dim {
    /// All seven dimensions, in canonical order.
    pub const ALL: [Dim; 7] = [Dim::N, Dim::M, Dim::C, Dim::P, Dim::Q, Dim::R, Dim::S];

    /// Index of this dimension within [`Dim::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Dim::N => 0,
            Dim::M => 1,
            Dim::C => 2,
            Dim::P => 3,
            Dim::Q => 4,
            Dim::R => 5,
            Dim::S => 6,
        }
    }

    /// The dimension at position `i` of [`Dim::ALL`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= 7`.
    #[inline]
    pub fn from_index(i: usize) -> Dim {
        Dim::ALL[i]
    }

    /// Whether this is a *reduction* dimension: iterating it accumulates
    /// into the same output element (`C`, `R`, `S`).
    #[inline]
    pub fn is_reduction(self) -> bool {
        matches!(self, Dim::C | Dim::R | Dim::S)
    }

    /// Single-letter name used in loopnest pretty-printing.
    pub fn letter(self) -> char {
        match self {
            Dim::N => 'N',
            Dim::M => 'M',
            Dim::C => 'C',
            Dim::P => 'P',
            Dim::Q => 'Q',
            Dim::R => 'R',
            Dim::S => 'S',
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// The three tensor datatypes moved between memory levels (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Datatype {
    /// Filter weights (`M × C × R × S`).
    Weight,
    /// Input feature map (`N × C × P′ × Q′`).
    Ifmap,
    /// Output feature map (`N × M × P × Q`).
    Ofmap,
}

impl Datatype {
    /// All three datatypes in canonical order.
    pub const ALL: [Datatype; 3] = [Datatype::Weight, Datatype::Ifmap, Datatype::Ofmap];

    /// Index of this datatype within [`Datatype::ALL`] (and the
    /// `[weight, ifmap, ofmap]` arrays indexed like it).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Datatype::Weight => 0,
            Datatype::Ifmap => 1,
            Datatype::Ofmap => 2,
        }
    }

    /// Dimensions that select a *different* element of this datatype.
    ///
    /// For the ifmap, `P`/`Q` combined with `R`/`S` address the sliding
    /// window; all of `N, C, P, Q, R, S` are relevant. Depthwise layers
    /// additionally make `M` relevant to the ifmap (each output channel
    /// reads its own input channel); that is handled by
    /// [`ConvLayer::relevant_dims`](crate::ConvLayer::relevant_dims)
    /// rather than here.
    pub fn relevant_dims(self) -> &'static [Dim] {
        match self {
            Datatype::Weight => &[Dim::M, Dim::C, Dim::R, Dim::S],
            Datatype::Ifmap => &[Dim::N, Dim::C, Dim::P, Dim::Q, Dim::R, Dim::S],
            Datatype::Ofmap => &[Dim::N, Dim::M, Dim::P, Dim::Q],
        }
    }

    /// Whether `dim` is relevant to this datatype (non-depthwise case).
    #[inline]
    pub fn is_relevant(self, dim: Dim) -> bool {
        match self {
            Datatype::Weight => !matches!(dim, Dim::N | Dim::P | Dim::Q),
            Datatype::Ifmap => dim != Dim::M,
            Datatype::Ofmap => !dim.is_reduction(),
        }
    }

    /// Short lowercase name (`"weight"`, `"ifmap"`, `"ofmap"`).
    pub fn name(self) -> &'static str {
        match self {
            Datatype::Weight => "weight",
            Datatype::Ifmap => "ifmap",
            Datatype::Ofmap => "ofmap",
        }
    }
}

impl fmt::Display for Datatype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dense map from [`Dim`] to a value, stored inline.
///
/// Used pervasively for loop bounds and tiling factors.
///
/// ```
/// use secureloop_workload::{Dim, DimMap};
///
/// let mut bounds = DimMap::splat(1u64);
/// bounds[Dim::M] = 96;
/// assert_eq!(bounds.product(), 96);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimMap<T>(pub [T; 7]);

impl<T: Copy> DimMap<T> {
    /// A map with every dimension set to `v`.
    pub fn splat(v: T) -> Self {
        DimMap([v; 7])
    }

    /// Iterate `(Dim, value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Dim, T)> + '_ {
        Dim::ALL.iter().map(move |&d| (d, self.0[d.index()]))
    }
}

impl DimMap<u64> {
    /// Product of all seven entries.
    pub fn product(&self) -> u64 {
        self.0.iter().product()
    }
}

impl<T> Index<Dim> for DimMap<T> {
    type Output = T;
    fn index(&self, d: Dim) -> &T {
        &self.0[d.index()]
    }
}

impl<T> IndexMut<Dim> for DimMap<T> {
    fn index_mut(&mut self, d: Dim) -> &mut T {
        &mut self.0[d.index()]
    }
}

impl<T: Copy + Default> Default for DimMap<T> {
    fn default() -> Self {
        DimMap([T::default(); 7])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_roundtrip() {
        for (i, &d) in Dim::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(Dim::from_index(i), d);
        }
        for (i, &dt) in Datatype::ALL.iter().enumerate() {
            assert_eq!(dt.index(), i);
        }
    }

    #[test]
    fn reduction_dims() {
        let red: Vec<Dim> = Dim::ALL
            .iter()
            .copied()
            .filter(|d| d.is_reduction())
            .collect();
        assert_eq!(red, vec![Dim::C, Dim::R, Dim::S]);
    }

    #[test]
    fn relevance_matches_tensor_indexing() {
        // Weights are indexed by M,C,R,S only.
        assert!(Datatype::Weight.is_relevant(Dim::M));
        assert!(!Datatype::Weight.is_relevant(Dim::P));
        // Ofmap is indexed by N,M,P,Q only.
        assert!(!Datatype::Ofmap.is_relevant(Dim::C));
        assert!(Datatype::Ofmap.is_relevant(Dim::Q));
        // Ifmap depends on the sliding window: P,Q,R,S all relevant.
        for d in [Dim::P, Dim::Q, Dim::R, Dim::S, Dim::C, Dim::N] {
            assert!(Datatype::Ifmap.is_relevant(d));
        }
        assert!(!Datatype::Ifmap.is_relevant(Dim::M));
        for dt in Datatype::ALL {
            for d in Dim::ALL {
                assert_eq!(dt.is_relevant(d), dt.relevant_dims().contains(&d));
            }
        }
    }

    #[test]
    fn dimmap_product_and_index() {
        let mut m = DimMap::splat(2u64);
        assert_eq!(m.product(), 128);
        m[Dim::C] = 5;
        assert_eq!(m[Dim::C], 5);
        assert_eq!(m.product(), 64 / 2 * 5 * 2);
        assert_eq!(m.iter().count(), 7);
    }

    #[test]
    fn display_letters() {
        let s: String = Dim::ALL.iter().map(|d| d.letter()).collect();
        assert_eq!(s, "NMCPQRS");
        assert_eq!(Datatype::Ifmap.to_string(), "ifmap");
    }
}
