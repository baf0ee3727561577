//! The snapshot container: header, section table, payloads.
//!
//! See the crate docs for the layout diagram. Design choices:
//!
//! - **Native endianness with a tag.** Payloads are raw POD arrays, so a
//!   file is only readable on a host with the same byte order as the
//!   writer. The header records the writer's order via a known `u32`
//!   constant; a reader on the other order sees the byte-swapped value and
//!   rejects the file instead of silently mis-reading every number.
//! - **Alignment capped at 8.** The widest element stored is 8 bytes
//!   (`u64`/`f64`), and the read fallback guarantees an 8-byte-aligned
//!   base, so every in-file offset aligned to the section's declared
//!   alignment is aligned in memory too.
//! - **Eager checksum verification.** [`Snapshot::open`] verifies the
//!   table checksum and every payload checksum before returning. The
//!   table uses byte-wise FNV-1a; payloads use the word-wise variant
//!   (8 bytes per multiply) so the pass stays I/O-bound even on large
//!   files. Either way a corrupt snapshot can never reach a decoder.

use std::path::{Path, PathBuf};

use soi_common::{Result, SoiError};

use crate::bytes::SnapshotBytes;
use crate::fnv::{fnv1a64, fnv1a64_words};
use crate::pod;

/// File magic: identifies a soi snapshot container, generation 1.
pub const MAGIC: [u8; 8] = *b"SOISNAP1";
/// Container format version. Bump on any incompatible change to the
/// container layout *or* to the section set the index codecs store in it.
///
/// - 1: per-structure occupied-cell id columns with `u64` offset triplets.
/// - 2: every cell/keyword/segment keyed map is one dense `Csr` column pair
///   (`{p}.s` row starts as `u32`, `{p}.i` items); no id columns.
/// - 3: no `eps.*` sections and no ε slot in `cache.meta` (4 values).
/// - 4: postings stored as cell slots, not POI ids; no cell totals (a load
///   derives them) and no segment length list (SL3 is the network's).
/// - 5: only the POI index's primary columns (members, run directory,
///   postings); no global lists (a load derives them) and no raster.
pub const FORMAT_VERSION: u32 = 5;
/// Endianness probe constant, stored native-endian.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;
/// Header size in bytes.
pub const HEADER_LEN: usize = 32;
/// Section-table entry size in bytes.
pub const TABLE_ENTRY_LEN: usize = 48;

const NAME_LEN: usize = 16;
const MAX_ALIGN: u32 = 8;

/// Builds a categorized `Data` error for a corrupt or unreadable snapshot,
/// carrying the file path so one log line locates the artifact.
pub fn corrupt(path: &Path, message: impl Into<String>) -> SoiError {
    SoiError::parse(0, format!("snapshot: {}", message.into())).at_path(path)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct PendingSection {
    name: String,
    align: u32,
    bytes: Vec<u8>,
}

/// Accumulates named sections and assembles the container.
#[derive(Default)]
pub struct SnapshotWriter {
    sections: Vec<PendingSection>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a raw byte section.
    ///
    /// # Errors
    /// Rejects names longer than 16 bytes or already used, and alignments
    /// that are not a power of two in `1..=8` — all writer-side programming
    /// errors, reported rather than panicking.
    pub fn bytes(&mut self, name: &str, align: u32, bytes: &[u8]) -> Result<()> {
        if name.is_empty() || name.len() > NAME_LEN || !name.is_ascii() {
            return Err(SoiError::invalid(format!(
                "snapshot section name `{name}` must be 1..={NAME_LEN} ASCII bytes"
            )));
        }
        if !align.is_power_of_two() || align > MAX_ALIGN {
            return Err(SoiError::invalid(format!(
                "snapshot section `{name}`: alignment {align} not a power of two in 1..={MAX_ALIGN}"
            )));
        }
        if self.sections.iter().any(|s| s.name == name) {
            return Err(SoiError::invalid(format!(
                "snapshot section `{name}` added twice"
            )));
        }
        self.sections.push(PendingSection {
            name: name.to_string(),
            align,
            bytes: bytes.to_vec(),
        });
        Ok(())
    }

    /// Adds a `u32` array section (alignment 4).
    ///
    /// # Errors
    /// See [`SnapshotWriter::bytes`].
    pub fn u32s(&mut self, name: &str, values: &[u32]) -> Result<()> {
        self.bytes(name, 4, pod::u32s_as_bytes(values))
    }

    /// Adds a `u64` array section (alignment 8).
    ///
    /// # Errors
    /// See [`SnapshotWriter::bytes`].
    pub fn u64s(&mut self, name: &str, values: &[u64]) -> Result<()> {
        self.bytes(name, 8, pod::u64s_as_bytes(values))
    }

    /// Adds an `f64` array section (alignment 8).
    ///
    /// # Errors
    /// See [`SnapshotWriter::bytes`].
    pub fn f64s(&mut self, name: &str, values: &[f64]) -> Result<()> {
        self.bytes(name, 8, pod::f64s_as_bytes(values))
    }

    /// Assembles the container image in memory.
    pub fn finish(&self) -> Vec<u8> {
        let n = self.sections.len();
        let table_len = n * TABLE_ENTRY_LEN;

        // Lay out payloads after the table, honouring alignment.
        let mut offsets = Vec::with_capacity(n);
        let mut cursor = HEADER_LEN + table_len;
        for s in &self.sections {
            let align = s.align.max(1) as usize;
            cursor = cursor.div_ceil(align) * align;
            offsets.push(cursor);
            cursor += s.bytes.len();
        }

        let mut buf = vec![0u8; cursor];

        // Table entries.
        for (i, (s, &off)) in self.sections.iter().zip(&offsets).enumerate() {
            let e = HEADER_LEN + i * TABLE_ENTRY_LEN;
            buf[e..e + s.name.len()].copy_from_slice(s.name.as_bytes());
            buf[e + 16..e + 24].copy_from_slice(&(off as u64).to_ne_bytes());
            buf[e + 24..e + 32].copy_from_slice(&(s.bytes.len() as u64).to_ne_bytes());
            buf[e + 32..e + 36].copy_from_slice(&s.align.to_ne_bytes());
            // e+36..e+40 reserved, stays zero.
            buf[e + 40..e + 48].copy_from_slice(&fnv1a64_words(&s.bytes).to_ne_bytes());
            buf[off..off + s.bytes.len()].copy_from_slice(&s.bytes);
        }

        // Header, including the checksum over the just-written table.
        let table_checksum = fnv1a64(&buf[HEADER_LEN..HEADER_LEN + table_len]);
        buf[0..8].copy_from_slice(&MAGIC);
        buf[8..12].copy_from_slice(&FORMAT_VERSION.to_ne_bytes());
        buf[12..16].copy_from_slice(&ENDIAN_TAG.to_ne_bytes());
        buf[16..20].copy_from_slice(&(n as u32).to_ne_bytes());
        // 20..24 reserved, stays zero.
        buf[24..32].copy_from_slice(&table_checksum.to_ne_bytes());
        buf
    }

    /// Writes the container to `path` atomically (temp file + rename) and
    /// returns the file size in bytes.
    ///
    /// # Errors
    /// Any I/O failure creating, writing, or renaming the file.
    pub fn write_to(&self, path: &Path) -> Result<u64> {
        let image = self.finish();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, &image).map_err(|e| SoiError::io(e, &tmp))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            SoiError::io(e, path)
        })?;
        Ok(image.len() as u64)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Metadata of one section, as recorded in the table.
#[derive(Debug, Clone)]
pub struct SectionMeta {
    /// Section name (≤ 16 ASCII bytes).
    pub name: String,
    /// Absolute payload offset in the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub(crate) len: u64,
    /// Declared payload alignment.
    pub align: u32,
    /// Word-wise FNV-1a 64 checksum of the payload (see [`crate::fnv::fnv1a64_words`]).
    pub(crate) checksum: u64,
}

/// An opened, fully validated snapshot container.
#[derive(Debug)]
pub struct Snapshot {
    data: SnapshotBytes,
    path: PathBuf,
    sections: Vec<SectionMeta>,
}

impl Snapshot {
    /// Opens and validates `path`: magic, version, endianness, table
    /// checksum, section bounds/overlap, and every payload checksum.
    ///
    /// # Errors
    /// I/O failures (`Io`/`NotFound` category) and any corruption
    /// (`Data` category, exit code 3), always naming the file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let data = SnapshotBytes::open(path)?;
        let sections = validate(path, data.as_slice())?;
        Ok(Snapshot {
            data,
            path: path.to_path_buf(),
            sections,
        })
    }

    /// The file this snapshot was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total container size in bytes.
    pub fn file_len(&self) -> u64 {
        self.data.as_slice().len() as u64
    }

    /// The validated section table, in file order.
    pub fn sections(&self) -> &[SectionMeta] {
        &self.sections
    }

    /// Whether a section named `name` exists.
    pub fn has(&self, name: &str) -> bool {
        self.sections.iter().any(|s| s.name == name)
    }

    /// The payload bytes of section `name`.
    ///
    /// # Errors
    /// A `Data` error if the section is absent (a structurally valid file
    /// from a different producer, or a stale layout).
    pub fn bytes(&self, name: &str) -> Result<&[u8]> {
        let meta = self
            .sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| corrupt(&self.path, format!("missing section `{name}`")))?;
        let (start, end) = (meta.offset as usize, (meta.offset + meta.len) as usize);
        Ok(&self.data.as_slice()[start..end])
    }

    /// Section `name` viewed as a `u32` array.
    ///
    /// # Errors
    /// `Data` error if absent, misaligned, or not a whole number of
    /// elements.
    pub fn u32s(&self, name: &str) -> Result<&[u32]> {
        pod::bytes_as_u32s(self.bytes(name)?)
            .ok_or_else(|| corrupt(&self.path, format!("section `{name}` is not a u32 array")))
    }

    /// Section `name` viewed as a `u64` array.
    ///
    /// # Errors
    /// As [`Snapshot::u32s`].
    pub fn u64s(&self, name: &str) -> Result<&[u64]> {
        pod::bytes_as_u64s(self.bytes(name)?)
            .ok_or_else(|| corrupt(&self.path, format!("section `{name}` is not a u64 array")))
    }

    /// Section `name` viewed as an `f64` array.
    ///
    /// # Errors
    /// As [`Snapshot::u32s`].
    pub fn f64s(&self, name: &str) -> Result<&[f64]> {
        pod::bytes_as_f64s(self.bytes(name)?)
            .ok_or_else(|| corrupt(&self.path, format!("section `{name}` is not an f64 array")))
    }
}

/// Full structural validation; returns the parsed section table.
fn validate(path: &Path, buf: &[u8]) -> Result<Vec<SectionMeta>> {
    let file_len = buf.len();
    if file_len < HEADER_LEN {
        return Err(corrupt(
            path,
            format!("truncated: {file_len} bytes, header needs {HEADER_LEN}"),
        ));
    }
    if buf[0..8] != MAGIC {
        return Err(corrupt(path, "bad magic (not a soi snapshot)"));
    }
    let version = read_u32(buf, 8);
    let endian = read_u32(buf, 12);
    if endian != ENDIAN_TAG {
        if endian == ENDIAN_TAG.swap_bytes() {
            return Err(corrupt(
                path,
                "endianness mismatch: written on a host with the opposite byte order",
            ));
        }
        return Err(corrupt(path, format!("bad endianness tag {endian:#010x}")));
    }
    if version != FORMAT_VERSION {
        return Err(corrupt(
            path,
            format!("unsupported format version {version} (reader supports {FORMAT_VERSION})"),
        ));
    }
    let count = read_u32(buf, 16) as usize;
    let table_len = count
        .checked_mul(TABLE_ENTRY_LEN)
        .filter(|&tl| tl <= file_len - HEADER_LEN)
        .ok_or_else(|| {
            corrupt(
                path,
                format!("section table ({count} entries) exceeds file size {file_len}"),
            )
        })?;
    let table = &buf[HEADER_LEN..HEADER_LEN + table_len];
    let stored_table_checksum = read_u64(buf, 24);
    let actual_table_checksum = fnv1a64(table);
    if stored_table_checksum != actual_table_checksum {
        return Err(corrupt(
            path,
            format!(
                "section table checksum mismatch (stored {stored_table_checksum:#018x}, computed {actual_table_checksum:#018x})"
            ),
        ));
    }

    let mut sections = Vec::with_capacity(count);
    for i in 0..count {
        let e = i * TABLE_ENTRY_LEN;
        let name_bytes = &table[e..e + NAME_LEN];
        let name_end = name_bytes.iter().position(|&b| b == 0).unwrap_or(NAME_LEN);
        let name = std::str::from_utf8(&name_bytes[..name_end])
            .ok()
            .filter(|n| !n.is_empty() && n.is_ascii())
            .ok_or_else(|| corrupt(path, format!("section {i}: invalid name")))?
            .to_string();
        if name_bytes[name_end..].iter().any(|&b| b != 0) {
            return Err(corrupt(path, format!("section {i}: non-padded name")));
        }
        let offset = read_u64(table, e + 16);
        let len = read_u64(table, e + 24);
        let align = read_u32(table, e + 32);
        let checksum = read_u64(table, e + 40);
        if !align.is_power_of_two() || align > MAX_ALIGN {
            return Err(corrupt(
                path,
                format!("section `{name}`: invalid alignment {align}"),
            ));
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| corrupt(path, format!("section `{name}`: offset+len overflows")))?;
        if offset < (HEADER_LEN + table_len) as u64 || end > file_len as u64 {
            return Err(corrupt(
                path,
                format!(
                    "section `{name}`: range {offset}..{end} outside payload area of {file_len}-byte file"
                ),
            ));
        }
        if !offset.is_multiple_of(align as u64) {
            return Err(corrupt(
                path,
                format!("section `{name}`: offset {offset} not {align}-byte aligned"),
            ));
        }
        if sections.iter().any(|s: &SectionMeta| s.name == name) {
            return Err(corrupt(path, format!("duplicate section `{name}`")));
        }
        sections.push(SectionMeta {
            name,
            offset,
            len,
            align,
            checksum,
        });
    }

    // Overlap check over the payload spans.
    let mut spans: Vec<(u64, u64, &str)> = sections
        .iter()
        .map(|s| (s.offset, s.offset + s.len, s.name.as_str()))
        .collect();
    spans.sort_unstable();
    for pair in spans.windows(2) {
        if pair[1].0 < pair[0].1 {
            return Err(corrupt(
                path,
                format!("sections `{}` and `{}` overlap", pair[0].2, pair[1].2),
            ));
        }
    }

    // Payload checksums, eagerly.
    for s in &sections {
        let payload = &buf[s.offset as usize..(s.offset + s.len) as usize];
        let actual = fnv1a64_words(payload);
        if actual != s.checksum {
            return Err(corrupt(
                path,
                format!(
                    "section `{}` checksum mismatch (stored {:#018x}, computed {actual:#018x})",
                    s.name, s.checksum
                ),
            ));
        }
    }

    Ok(sections)
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[at..at + 4]);
    u32::from_ne_bytes(b)
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_ne_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_common::ErrorCategory;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("soi-snapc-{}-{name}.soisnap", std::process::id()))
    }

    fn sample_writer() -> SnapshotWriter {
        let mut w = SnapshotWriter::new();
        w.u32s("ids", &[1, 2, 3, 4, 5]).unwrap();
        w.f64s("weights", &[0.5, -1.25, f64::NAN]).unwrap();
        w.u64s("meta", &[42, u64::MAX]).unwrap();
        w.bytes("blob", 1, b"hello").unwrap();
        w
    }

    #[test]
    fn round_trip() {
        let path = temp_path("roundtrip");
        sample_writer().write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.u32s("ids").unwrap(), &[1, 2, 3, 4, 5]);
        let w = snap.f64s("weights").unwrap();
        assert_eq!(w[0], 0.5);
        assert!(w[2].is_nan());
        assert_eq!(snap.u64s("meta").unwrap(), &[42, u64::MAX]);
        assert_eq!(snap.bytes("blob").unwrap(), b"hello");
        assert_eq!(snap.sections().len(), 4);
        assert!(snap.has("ids") && !snap.has("nope"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_sections_round_trip() {
        let path = temp_path("empty");
        let mut w = SnapshotWriter::new();
        w.u32s("nothing", &[]).unwrap();
        w.write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.u32s("nothing").unwrap().len(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_rejects_bad_sections() {
        let mut w = SnapshotWriter::new();
        assert!(w.bytes("x", 3, b"").is_err(), "non-power-of-two align");
        assert!(w.bytes("x", 16, b"").is_err(), "align > 8");
        assert!(w.bytes("", 1, b"").is_err(), "empty name");
        assert!(w.bytes("aaaaaaaaaaaaaaaaa", 1, b"").is_err(), "long name");
        w.bytes("dup", 1, b"").unwrap();
        assert!(w.bytes("dup", 1, b"").is_err(), "duplicate name");
    }

    #[test]
    fn missing_section_is_data_error() {
        let path = temp_path("missing");
        sample_writer().write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let err = snap.u32s("absent").unwrap_err();
        assert_eq!(err.category(), ErrorCategory::Data);
        assert!(err.to_string().contains("absent"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_type_view_is_data_error() {
        let path = temp_path("wrongtype");
        sample_writer().write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        // "blob" is 5 bytes — not a whole number of u32s.
        assert_eq!(
            snap.u32s("blob").unwrap_err().category(),
            ErrorCategory::Data
        );
        std::fs::remove_file(&path).ok();
    }

    fn corrupted(name: &str, mutate: impl FnOnce(&mut Vec<u8>)) -> SoiError {
        let path = temp_path(name);
        sample_writer().write_to(&path).unwrap();
        let mut image = std::fs::read(&path).unwrap();
        mutate(&mut image);
        std::fs::write(&path, &image).unwrap();
        let err = Snapshot::open(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        err
    }

    type Mutator = Box<dyn FnOnce(&mut Vec<u8>)>;

    #[test]
    fn corruption_modes_are_data_errors_with_path() {
        let cases: Vec<(&str, Mutator)> = vec![
            ("magic", Box::new(|b: &mut Vec<u8>| b[0] = b'X')),
            ("version", Box::new(|b: &mut Vec<u8>| b[8] = 99)),
            ("endian", Box::new(|b: &mut Vec<u8>| b[12..16].reverse())),
            ("truncate-hdr", Box::new(|b: &mut Vec<u8>| b.truncate(10))),
            (
                "truncate-body",
                Box::new(|b: &mut Vec<u8>| {
                    let l = b.len();
                    b.truncate(l - 3);
                }),
            ),
            (
                "payload-flip",
                Box::new(|b: &mut Vec<u8>| {
                    let l = b.len();
                    b[l - 1] ^= 0x40;
                }),
            ),
            (
                "table-flip",
                Box::new(|b: &mut Vec<u8>| b[HEADER_LEN + 17] ^= 0x01),
            ),
        ];
        for (name, mutate) in cases {
            let err = corrupted(name, mutate);
            assert_eq!(err.category(), ErrorCategory::Data, "case {name}: {err}");
            assert!(err.to_string().contains(".soisnap"), "case {name}: {err}");
        }
    }

    #[test]
    fn out_of_bounds_and_overlap_are_rejected() {
        // Patch entry 0's offset to point past EOF, fixing the table
        // checksum so the bounds check (not the checksum) fires.
        let err = corrupted("oob", |b| {
            let file_len = b.len() as u64;
            b[HEADER_LEN + 16..HEADER_LEN + 24].copy_from_slice(&file_len.to_ne_bytes());
            let n = read_u32(b, 16) as usize;
            let table = fnv1a64(&b[HEADER_LEN..HEADER_LEN + n * TABLE_ENTRY_LEN]);
            b[24..32].copy_from_slice(&table.to_ne_bytes());
        });
        assert_eq!(err.category(), ErrorCategory::Data);
        assert!(err.to_string().contains("outside payload area"), "{err}");

        // Point section 1 at section 0's payload (aligned) -> overlap.
        let err = corrupted("overlap", |b| {
            let e0 = HEADER_LEN;
            let e1 = HEADER_LEN + TABLE_ENTRY_LEN;
            let off0 = read_u64(b, e0 + 16);
            let aligned = off0.div_ceil(8) * 8;
            b[e1 + 16..e1 + 24].copy_from_slice(&aligned.to_ne_bytes());
            let n = read_u32(b, 16) as usize;
            let table = fnv1a64(&b[HEADER_LEN..HEADER_LEN + n * TABLE_ENTRY_LEN]);
            b[24..32].copy_from_slice(&table.to_ne_bytes());
        });
        assert_eq!(err.category(), ErrorCategory::Data);
        std::fs::remove_file(temp_path("overlap")).ok();
    }

    #[test]
    fn exit_code_is_three() {
        let err = corrupted("exitcode", |b| b[0] = 0);
        assert_eq!(err.category().exit_code(), 3);
    }
}
