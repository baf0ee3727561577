//! Strongly typed identifiers for the entities of the system.
//!
//! Every entity (road-network node, street segment, street, POI, photo,
//! interned keyword, grid cell) is identified by a dense `u32` index into its
//! owning collection. Wrapping the index in a newtype prevents mixing ids of
//! different kinds and keeps hot structs small (paper-scale datasets have a
//! few million POIs, well within `u32`).

/// Defines a `u32`-backed id newtype with the standard conversions.
macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an id from a `usize` index, panicking on overflow.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize, "id overflow");
                Self(index as u32)
            }

            /// Returns the id as a `usize` index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw `u32` value.
            #[inline]
            pub fn raw(self) -> u32 {
                self.0
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl From<$name> for u32 {
            #[inline]
            fn from(v: $name) -> u32 {
                v.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a road-network node (intersection or breakpoint).
    NodeId
);
define_id!(
    /// Identifier of a street segment (a link of the road network).
    SegmentId
);
define_id!(
    /// Identifier of a street (a chain of consecutive segments).
    StreetId
);
define_id!(
    /// Identifier of a Point of Interest.
    PoiId
);
define_id!(
    /// Identifier of a geo-tagged photo.
    PhotoId
);
define_id!(
    /// Identifier of an interned keyword.
    KeywordId
);
define_id!(
    /// Linearised identifier of a grid cell (row-major over the grid extent).
    CellId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let id = PoiId::from_index(123);
        assert_eq!(id.index(), 123);
        assert_eq!(id.raw(), 123);
        assert_eq!(u32::from(id), 123);
        assert_eq!(PoiId::from(123u32), id);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(SegmentId(1) < SegmentId(2));
        assert_eq!(SegmentId(5), SegmentId(5));
    }

    #[test]
    fn display_names_the_kind() {
        assert_eq!(StreetId(9).to_string(), "StreetId#9");
        assert_eq!(CellId(0).to_string(), "CellId#0");
    }
}
