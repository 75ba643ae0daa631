//! A minimal read-only file memory mapping, hand-rolled over the raw
//! `mmap(2)`/`munmap(2)` syscalls.
//!
//! The zero-copy artifact path ([`crate::artifact::MappedArtifact`])
//! wants weight pages shared between every process serving the same
//! model: the kernel keeps one physical copy of the read-only mapping
//! and each `--workers N` replica borrows it, so per-process RSS for
//! the weight image stays flat. The workspace is dependency-free by
//! construction, so instead of a crates.io wrapper this module declares
//! the two libc entry points it needs directly (std already links
//! libc on every unix target) and wraps them in an RAII handle.
//!
//! On non-unix targets [`Mmap::open`] degrades to reading the file into
//! an owned buffer — same API, no page sharing.
//!
//! `mmap` returns page-aligned addresses (≥ 4096 bytes on every
//! supported target), so the base of a mapping always satisfies the
//! [`ant_core::store::STORE_ALIGN`] = 64-byte guarantee that borrowed
//! [`ant_core::store::PackedStore`]s demand; in-file section alignment
//! is the artifact writer's job (`docs/format.md` §7).

use std::fs::File;
use std::io;
use std::path::Path;

/// A read-only mapping of an entire file (or an owned fallback buffer
/// on targets without `mmap`). Derefs to `&[u8]`; unmapped on drop.
///
/// The runtime shares one `Arc<Mmap>` across every tensor and panel
/// borrowed from the file, so the mapping lives exactly as long as the
/// last plan that references it.
pub struct Mmap {
    repr: Repr,
}

#[cfg(unix)]
enum Repr {
    /// `len == 0` files map nothing; the pointer is a 64-aligned
    /// placeholder and drop skips `munmap`.
    Mapped { ptr: *mut u8, len: usize },
}

#[cfg(not(unix))]
enum Repr {
    Owned(Vec<u8>),
}

// SAFETY: the mapping is immutable (PROT_READ, MAP_PRIVATE) for its
// whole lifetime; sharing read access across threads is sound. That
// rests on the artifact contract (`docs/format.md` §7): a served `.antm`
// is replaced by rename (`ModelArtifact::save_path`), never rewritten in
// place: a private mapping still shows another writer's bytes, and SIGBUS
// past a truncation. Keeping `cp` and editors off it is the operator's job.
unsafe impl Send for Mmap {}
// SAFETY: as above.
unsafe impl Sync for Mmap {}

#[cfg(unix)]
mod sys {
    //! The libc surface this module needs, declared directly: std links
    //! libc on unix, so these resolve without any external crate.
    #![allow(non_camel_case_types)]

    pub type c_int = i32;
    pub type c_void = std::ffi::c_void;
    pub type size_t = usize;
    pub type off_t = i64;

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: size_t,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: off_t,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    }
}

impl Mmap {
    /// Maps the whole file at `path` read-only.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from opening or statting the file, or from the
    /// `mmap` syscall itself (surfaced via `errno`).
    pub fn open(path: &Path) -> io::Result<Mmap> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file larger than address space",
            ));
        }
        Self::from_file(&file, len as usize)
    }

    #[cfg(unix)]
    fn from_file(file: &File, len: usize) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            // mmap rejects zero-length requests; represent the empty
            // file with a well-aligned dangling pointer.
            return Ok(Mmap {
                repr: Repr::Mapped {
                    ptr: ant_core::store::STORE_ALIGN as *mut u8,
                    len: 0,
                },
            });
        }
        // SAFETY: fd is a valid open file descriptor, len is its exact
        // size, and we request a fresh private read-only mapping —
        // nothing aliases writable memory.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            repr: Repr::Mapped {
                ptr: ptr as *mut u8,
                len,
            },
        })
    }

    #[cfg(not(unix))]
    fn from_file(file: &File, len: usize) -> io::Result<Mmap> {
        use std::io::Read;
        let mut bytes = Vec::with_capacity(len);
        let mut f = file;
        f.read_to_end(&mut bytes)?;
        Ok(Mmap {
            repr: Repr::Owned(bytes),
        })
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            #[cfg(unix)]
            // SAFETY: `ptr..ptr+len` is a live PROT_READ mapping until
            // drop (or a well-aligned dangling pointer when len == 0,
            // which `from_raw_parts` permits).
            Repr::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            #[cfg(not(unix))]
            Repr::Owned(v) => v,
        }
    }

    /// Whether the bytes are an actual kernel mapping (page-shareable
    /// across processes) rather than the owned fallback.
    pub fn is_mapped(&self) -> bool {
        #[cfg(unix)]
        {
            true
        }
        #[cfg(not(unix))]
        {
            false
        }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        {
            let Repr::Mapped { ptr, len } = self.repr;
            if len != 0 {
                // SAFETY: exactly the region returned by mmap in
                // `from_file`; no borrowed slice outlives the handle
                // (borrowers hold the Arc that keeps us alive).
                unsafe { sys::munmap(ptr as *mut sys::c_void, len) };
            }
        }
    }
}

/// This process's `Private_Dirty` kB of the mapping that holds `bytes`,
/// from `/proc/self/smaps`: what the mapping costs this process on top of
/// the pages it shares with every other process mapping the same file.
/// `None` where there is no smaps (off linux) or no mapping at `bytes`.
pub fn private_dirty_kb(bytes: &[u8]) -> Option<u64> {
    let addr = bytes.as_ptr() as usize;
    let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
    let mut in_target = false;
    for line in smaps.lines() {
        // A mapping's header line starts with its `lo-hi` address range.
        if let Some((range, _)) = line.split_once(' ') {
            if let Some((lo, hi)) = range.split_once('-') {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    in_target = lo <= addr && addr < hi;
                }
            }
        }
        if in_target {
            if let Some(rest) = line.strip_prefix("Private_Dirty:") {
                return rest.trim().trim_end_matches(" kB").trim().parse().ok();
            }
        }
    }
    None
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap")
            .field("len", &self.as_slice().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ant-mmap-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn maps_file_contents_and_alignment() {
        let path = temp_path("contents");
        let data: Vec<u8> = (0..200u8).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&data)
            .unwrap();
        let map = Mmap::open(&path).unwrap();
        assert_eq!(&*map, data.as_slice());
        assert_eq!(
            map.as_slice().as_ptr() as usize % ant_core::store::STORE_ALIGN,
            0,
            "mapping base must satisfy the store alignment guarantee"
        );
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        std::fs::File::create(&path).unwrap();
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_empty());
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(Mmap::open(Path::new("/definitely/not/here.antm")).is_err());
    }
}
