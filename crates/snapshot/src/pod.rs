//! Plain-old-data reinterpretation between byte slices and primitive
//! arrays.
//!
//! This is the "validated cast" at the heart of snapshot loading: a
//! section payload is viewed directly as `&[u32]`/`&[u64]`/`&[f64]` when
//! its pointer is suitably aligned and its length is an exact multiple of
//! the element size; otherwise the caller gets `None` and reports the
//! section as corrupt. The forward direction (typed slice → bytes) is
//! always valid for these types: they have no padding, no niches, and
//! every bit pattern is a value (`f64` included — NaN payloads round-trip
//! bit-exactly).
//!
//! This module is the only place in the crate, alongside the mmap shim,
//! that uses `unsafe`.

#![allow(unsafe_code)]

use core::mem::{align_of, size_of};
use core::slice;

macro_rules! pod_casts {
    ($to_bytes:ident, $from_bytes:ident, $ty:ty) => {
        /// Views a typed slice as its underlying native-endian bytes.
        pub(crate) fn $to_bytes(v: &[$ty]) -> &[u8] {
            // SAFETY: `$ty` is a primitive with no padding; any `$ty` value
            // is valid as bytes, the pointer is valid for `len * size` bytes
            // and `u8` has alignment 1.
            unsafe { slice::from_raw_parts(v.as_ptr().cast::<u8>(), v.len() * size_of::<$ty>()) }
        }

        /// Views bytes as a typed slice, or `None` if the pointer is
        /// misaligned for the type or the length is not a whole number of
        /// elements.
        pub(crate) fn $from_bytes(b: &[u8]) -> Option<&[$ty]> {
            let size = size_of::<$ty>();
            if b.is_empty() {
                return Some(&[]);
            }
            if !b.len().is_multiple_of(size) || b.as_ptr().align_offset(align_of::<$ty>()) != 0 {
                return None;
            }
            // SAFETY: alignment and size were just checked; every bit
            // pattern of `$ty` is a valid value; the lifetime is tied to the
            // input borrow.
            Some(unsafe { slice::from_raw_parts(b.as_ptr().cast::<$ty>(), b.len() / size) })
        }
    };
}

pod_casts!(u32s_as_bytes, bytes_as_u32s, u32);
pod_casts!(u64s_as_bytes, bytes_as_u64s, u64);
pod_casts!(f64s_as_bytes, bytes_as_f64s, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_round_trip() {
        let v = [1u32, 0xdead_beef, u32::MAX];
        let b = u32s_as_bytes(&v);
        assert_eq!(b.len(), 12);
        assert_eq!(bytes_as_u32s(b).unwrap(), &v);
    }

    #[test]
    fn f64_round_trip_preserves_bits() {
        let v = [1.5f64, -0.0, f64::NAN, f64::INFINITY];
        let back = bytes_as_f64s(f64s_as_bytes(&v)).unwrap();
        for (a, b) in v.iter().zip(back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rejects_ragged_length() {
        let b = [0u8; 7];
        assert!(bytes_as_u32s(&b).is_none());
        assert!(bytes_as_u64s(&b).is_none());
    }

    #[test]
    fn rejects_misaligned_pointer() {
        let buf = [0u8; 64];
        // At least one of two pointers one byte apart is misaligned for u64.
        let a = bytes_as_u64s(&buf[0..32]).is_none();
        let b = bytes_as_u64s(&buf[1..33]).is_none();
        assert!(a || b);
    }

    #[test]
    fn empty_slices_cast() {
        assert_eq!(bytes_as_u32s(&[]).unwrap().len(), 0);
        assert_eq!(u64s_as_bytes(&[]).len(), 0);
    }
}
