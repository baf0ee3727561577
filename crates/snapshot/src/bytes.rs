//! Snapshot file bytes: `mmap(2)` on unix, aligned read everywhere else.
//!
//! Mapping the file lets the kernel page index sections in lazily and
//! share clean pages between processes — a fleet of readers of the same
//! snapshot pays for the file once. The fallback path reads the whole file
//! into a buffer backed by a `Vec<u64>`, guaranteeing the 8-byte alignment
//! the POD casts in [`crate::pod`] require (the container caps section
//! alignment at 8 for exactly this reason; mapped files are page-aligned
//! and trivially satisfy it).
//!
//! The mmap shim follows the serving layer's `signal(2)` shim: an
//! `extern "C"` declaration of the two symbols, which libc — always linked
//! by `std` on unix — provides. No libc crate, no bindings generator. Any
//! mmap failure degrades silently to the read path.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use soi_common::{Result, SoiError};

/// The raw bytes of a snapshot file, however they were obtained.
#[derive(Debug)]
pub(crate) struct SnapshotBytes {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    /// The file content copied into an 8-byte-aligned owned buffer.
    Owned { buf: Vec<u64>, len: usize },
    /// A read-only private mapping of the file.
    #[cfg(unix)]
    Mapped(unix::Mapping),
}

impl SnapshotBytes {
    /// Opens `path` and makes its content addressable, preferring `mmap`.
    ///
    /// # Errors
    /// Any I/O failure opening or reading the file (an `mmap` failure is
    /// not an error — it falls back to reading).
    pub(crate) fn open(path: &Path) -> Result<Self> {
        let file = File::open(path).map_err(|e| SoiError::io(e, path))?;
        let len = file
            .metadata()
            .map_err(|e| SoiError::io(e, path))?
            .len()
            .try_into()
            .map_err(|_| {
                SoiError::io(
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "file exceeds usize"),
                    path,
                )
            })?;

        #[cfg(unix)]
        if let Some(mapping) = unix::Mapping::map(&file, len) {
            return Ok(SnapshotBytes {
                inner: Inner::Mapped(mapping),
            });
        }
        Self::read(file, len, path)
    }

    /// The read fallback: the first `len` bytes of `file` (opened from
    /// `path`) copied into an 8-byte-aligned owned buffer.
    fn read(mut file: File, len: usize, path: &Path) -> Result<Self> {
        let mut buf = vec![0u64; len.div_ceil(8)];
        let dest = bytes_mut(&mut buf);
        file.read_exact(&mut dest[..len])
            .map_err(|e| SoiError::io(e, path))?;
        Ok(SnapshotBytes {
            inner: Inner::Owned { buf, len },
        })
    }

    /// The file content. The pointer is at least 8-byte aligned.
    pub(crate) fn as_slice(&self) -> &[u8] {
        match &self.inner {
            Inner::Owned { buf, len } => {
                #[allow(unsafe_code)]
                // SAFETY: the buffer holds `len.div_ceil(8)` u64s, so at
                // least `len` initialized bytes; u8 has alignment 1.
                unsafe {
                    core::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), *len)
                }
            }
            #[cfg(unix)]
            Inner::Mapped(m) => m.as_slice(),
        }
    }
}

/// A mutable byte view of an owned `u64` buffer.
#[allow(unsafe_code)]
fn bytes_mut(buf: &mut [u64]) -> &mut [u8] {
    // SAFETY: u64 has no padding and any byte pattern is valid; the length
    // covers exactly the buffer; u8 alignment is 1.
    unsafe { core::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), buf.len() * 8) }
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod unix {
    //! The `mmap(2)`/`munmap(2)` shim.

    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        // Provided by libc, which std always links on unix targets.
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private mapping, unmapped on drop.
    #[derive(Debug)]
    pub(super) struct Mapping {
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ and never mutated; sharing the
    // immutable view across threads is safe, and unmapping happens exactly
    // once in Drop.
    unsafe impl Send for Mapping {}
    // SAFETY: as above — all access is through `&self` reads of immutable
    // memory.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps `len` bytes of `file` read-only, or `None` on any failure.
        pub(super) fn map(file: &File, len: usize) -> Option<Self> {
            if len == 0 {
                return None;
            }
            // SAFETY: fd is a valid open file descriptor for the duration
            // of the call; addr=null lets the kernel choose placement; a
            // failed call returns MAP_FAILED which we check.
            let ptr = unsafe {
                mmap(
                    core::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as usize == usize::MAX {
                return None;
            }
            Some(Mapping { ptr, len })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: the mapping covers `len` readable bytes and lives as
            // long as `self`; the file was opened read-only and the mapping
            // is private, so the memory is immutable from our side.
            unsafe { core::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` describe a live mapping created by mmap
            // and not yet unmapped; failure here is unrecoverable but
            // harmless (the address space leaks until process exit).
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, content: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("soi-snapbytes-{}-{name}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(content).unwrap();
        path
    }

    #[test]
    fn reads_content_and_is_aligned() {
        let path = temp_file("basic", b"0123456789abcdef!");
        let bytes = SnapshotBytes::open(&path).unwrap();
        assert_eq!(bytes.as_slice(), b"0123456789abcdef!");
        assert_eq!(bytes.as_slice().as_ptr().align_offset(8), 0);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn mmap_and_fallback_agree() {
        let content: Vec<u8> = (0..10_000u32).flat_map(|v| v.to_le_bytes()).collect();
        let path = temp_file("agree", &content);
        let mapped = SnapshotBytes::open(&path).unwrap();
        assert!(matches!(mapped.inner, Inner::Mapped(_)));
        let owned = SnapshotBytes::read(File::open(&path).unwrap(), content.len(), &path).unwrap();
        assert!(matches!(owned.inner, Inner::Owned { .. }));
        assert_eq!(mapped.as_slice(), owned.as_slice());
        assert_eq!(owned.as_slice().as_ptr().align_offset(8), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_ok() {
        let path = temp_file("empty", b"");
        let bytes = SnapshotBytes::open(&path).unwrap();
        assert!(bytes.as_slice().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = SnapshotBytes::open(Path::new("/nonexistent/soi.snap")).unwrap_err();
        assert!(err.to_string().contains("soi.snap"));
    }
}
