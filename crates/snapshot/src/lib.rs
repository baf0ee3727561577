//! The `soi-snapshot` on-disk container: versioned, checksummed,
//! alignment-aware snapshots of the offline index structures.
//!
//! The offline structures this workspace persists — the index bundle's
//! `PoiIndex` and `PhotoGrid` — are at heart a handful of flat
//! `u32`/`u64`/`f64` arrays in CSR layouts. This crate stores those arrays
//! verbatim — native-endian plain-old-data — inside a
//! single container file, so loading an index is a *validated cast*, not a
//! parse:
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header (32 B): magic "SOISNAP1" · format version ·         │
//! │                endianness tag · section count ·            │
//! │                table checksum (FNV-1a 64)                  │
//! ├────────────────────────────────────────────────────────────┤
//! │ section table: n × 48 B entries                            │
//! │   {name[16] · offset u64 · len u64 · align u32 ·           │
//! │    reserved u32 · checksum u64 (FNV-1a 64 of the payload)} │
//! ├────────────────────────────────────────────────────────────┤
//! │ payloads, each zero-padded to its declared alignment       │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! Reads go through [`SnapshotBytes`]: an `mmap(2)` of the file on unix
//! (via a tiny syscall shim in the spirit of the serving layer's
//! `signal(2)` shim — no libc *crate*, just the symbols std already links)
//! with a read-into-8-byte-aligned-buffer fallback everywhere else (or when
//! `SOI_SNAPSHOT_NO_MMAP=1`).
//!
//! Corruption — truncation, flipped bytes, bad magic, unknown versions,
//! foreign endianness, overlapping or out-of-bounds sections — surfaces as
//! a categorized [`SoiError`](soi_common::SoiError) in the `Data` category
//! (CLI exit code 3) carrying the file path. Nothing in this crate panics
//! on untrusted input.

#![deny(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as `SoiError`, never panic: unwrap and
// expect are compile errors outside of test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bytes;
pub mod container;
pub mod fnv;
pub mod pod;

pub use bytes::SnapshotBytes;
pub use container::{
    corrupt, SectionMeta, Snapshot, SnapshotWriter, ENDIAN_TAG, FORMAT_VERSION, HEADER_LEN, MAGIC,
    TABLE_ENTRY_LEN,
};
pub use fnv::{fnv1a64, fnv1a64_words, Fnv64};
