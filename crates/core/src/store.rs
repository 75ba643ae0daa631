//! Owned-or-borrowed packed storage with a guaranteed 64-byte base
//! alignment.
//!
//! The serving runtime wants to execute weights straight out of a
//! memory-mapped artifact: the file stores wire codes and pre-packed
//! GEMM panels, and the compiled plan should *borrow* those pages
//! instead of copying them into fresh `Vec`s. [`PackedStore`] is the
//! ownership abstraction that makes this safe to thread through the
//! stack:
//!
//! * **Owned** storage allocates with a 64-byte-aligned layout, so
//!   alignment is a property of the type rather than an allocator
//!   accident.
//! * **Borrowed** storage holds a raw slice plus an `Arc` to whatever
//!   owns the underlying memory (e.g. an `Arc<Mmap>` in the runtime,
//!   type-erased here so this crate needs no OS dependency). The
//!   checked constructor refuses misaligned or mis-sized byte ranges,
//!   so every successfully-constructed store upholds the same 64-byte
//!   guarantee.
//!
//! Cloning an owned store copies; cloning a borrowed store bumps the
//! owner's refcount. Equality always compares contents, so artifact
//! round-trip tests see value semantics regardless of the variant.
//!
//! ```
//! use ant_core::store::{PackedStore, STORE_ALIGN};
//! use std::sync::Arc;
//!
//! let owned: PackedStore<i8> = PackedStore::from_vec(vec![1, -2, 3]);
//! assert_eq!(owned.as_ptr() as usize % STORE_ALIGN, 0);
//!
//! // Borrow the owned store's bytes through an Arc'd owner, as the
//! // runtime does with a file mapping.
//! let owner: Arc<PackedStore<u8>> = Arc::new(PackedStore::from_vec(vec![7u8; 64]));
//! let view = unsafe {
//!     PackedStore::<i8>::borrowed(owner.as_slice(), owner.clone()).unwrap()
//! };
//! assert!(view.is_borrowed());
//! assert_eq!(view.len(), 64);
//! ```

use std::any::Any;
use std::ptr::NonNull;
use std::sync::Arc;

/// The base alignment (in bytes) every [`PackedStore`] guarantees for
/// its first element: owned buffers are allocated to it, borrowed
/// ranges are rejected without it. 64 bytes covers every SIMD width the
/// kernels use and matches one x86 cache line.
pub const STORE_ALIGN: usize = 64;

/// An element type that may live in a [`PackedStore`].
///
/// # Safety
///
/// Implementors must be plain-old-data: `Copy`, no padding or invalid
/// bit patterns, and meaningful under byte-level reinterpretation (the
/// borrowed constructor casts raw little-endian file bytes to `[T]`).
/// The provided implementations cover exactly the widths the runtime
/// serializes: `u8` wire codes and `i8`/`i16` panel images.
pub unsafe trait StorePod: Copy + Send + Sync + 'static {}

// SAFETY: fixed-width primitive integers have no padding and accept
// every bit pattern.
unsafe impl StorePod for u8 {}
// SAFETY: as above.
unsafe impl StorePod for i8 {}
// SAFETY: as above.
unsafe impl StorePod for i16 {}

/// Packed element storage that is either owned (64-byte-aligned
/// allocation) or borrowed from an `Arc`-kept owner such as a file
/// mapping. Derefs to `&[T]`; see the [module docs](self) for the
/// ownership rules.
pub struct PackedStore<T: StorePod> {
    repr: Repr<T>,
}

enum Repr<T: StorePod> {
    Owned(AlignedBuf<T>),
    Borrowed {
        ptr: NonNull<T>,
        len: usize,
        _owner: Arc<dyn Any + Send + Sync>,
    },
}

// SAFETY: the store is an immutable view of `[T]`; `T: Send + Sync` is
// implied by `StorePod`, and the type-erased owner is `Send + Sync` by
// its trait object bounds.
unsafe impl<T: StorePod> Send for PackedStore<T> {}
// SAFETY: as above — shared access only ever reads.
unsafe impl<T: StorePod> Sync for PackedStore<T> {}

impl<T: StorePod> PackedStore<T> {
    /// Owns `v`'s elements in a fresh 64-byte-aligned buffer.
    pub fn from_vec(v: Vec<T>) -> Self {
        PackedStore {
            repr: Repr::Owned(AlignedBuf::from_slice(&v)),
        }
    }

    /// Borrows `bytes` (reinterpreted as `[T]`) for as long as `owner`
    /// lives. Returns `None` — never a misaligned store — when the
    /// range does not start on a [`STORE_ALIGN`] boundary or is not a
    /// whole number of elements.
    ///
    /// # Safety
    ///
    /// `bytes` must point into memory kept alive and unmodified for as
    /// long as `owner` (or any clone of the returned store) exists; the
    /// byte content must be valid little-endian `T` values. The caller
    /// is asserting a lifetime the borrow checker cannot see — this is
    /// the single unsafe gate the zero-copy artifact path goes through.
    pub unsafe fn borrowed(bytes: &[u8], owner: Arc<dyn Any + Send + Sync>) -> Option<Self> {
        let size = std::mem::size_of::<T>();
        if !(bytes.as_ptr() as usize).is_multiple_of(STORE_ALIGN)
            || !bytes.len().is_multiple_of(size)
        {
            return None;
        }
        let len = bytes.len() / size;
        let ptr = if len == 0 {
            dangling_aligned::<T>()
        } else {
            // SAFETY: a slice pointer is non-null.
            unsafe { NonNull::new_unchecked(bytes.as_ptr() as *mut T) }
        };
        Some(PackedStore {
            repr: Repr::Borrowed {
                ptr,
                len,
                _owner: owner,
            },
        })
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(buf) => buf.as_slice(),
            // SAFETY: the borrowed constructor's contract guarantees
            // `ptr..ptr+len` stays valid while `_owner` is held.
            Repr::Borrowed { ptr, len, .. } => unsafe {
                std::slice::from_raw_parts(ptr.as_ptr(), *len)
            },
        }
    }

    /// Base pointer of the storage; always [`STORE_ALIGN`]-aligned.
    pub fn as_ptr(&self) -> *const T {
        match &self.repr {
            Repr::Owned(buf) => buf.ptr.as_ptr(),
            Repr::Borrowed { ptr, .. } => ptr.as_ptr(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Owned(buf) => buf.len,
            Repr::Borrowed { len, .. } => *len,
        }
    }

    /// Whether the store holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the elements are borrowed from an external owner
    /// (e.g. a mapped artifact) rather than owned by this store.
    pub fn is_borrowed(&self) -> bool {
        matches!(self.repr, Repr::Borrowed { .. })
    }
}

impl<T: StorePod> std::ops::Deref for PackedStore<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: StorePod> Clone for PackedStore<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Owned(buf) => PackedStore {
                repr: Repr::Owned(AlignedBuf::from_slice(buf.as_slice())),
            },
            Repr::Borrowed { ptr, len, _owner } => PackedStore {
                repr: Repr::Borrowed {
                    ptr: *ptr,
                    len: *len,
                    _owner: Arc::clone(_owner),
                },
            },
        }
    }
}

impl<T: StorePod + PartialEq> PartialEq for PackedStore<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: StorePod + std::fmt::Debug> std::fmt::Debug for PackedStore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = if self.is_borrowed() {
            "Borrowed"
        } else {
            "Owned"
        };
        write!(f, "PackedStore::{tag}(")?;
        std::fmt::Debug::fmt(self.as_slice(), f)?;
        write!(f, ")")
    }
}

impl<T: StorePod> Default for PackedStore<T> {
    fn default() -> Self {
        PackedStore::from_vec(Vec::new())
    }
}

impl<T: StorePod> From<Vec<T>> for PackedStore<T> {
    fn from(v: Vec<T>) -> Self {
        PackedStore::from_vec(v)
    }
}

/// The byte-stream flavour of [`PackedStore`] used for packed wire
/// codes ([`crate::pack::PackedTensor`]).
pub type TensorBytes = PackedStore<u8>;

/// A well-aligned non-null placeholder for zero-length stores:
/// [`STORE_ALIGN`] is a valid alignment for every `StorePod` width.
fn dangling_aligned<T>() -> NonNull<T> {
    // SAFETY: STORE_ALIGN is non-zero.
    unsafe { NonNull::new_unchecked(STORE_ALIGN as *mut T) }
}

/// An owned, immutable, 64-byte-aligned element buffer. Never grows;
/// exactly sized at construction.
struct AlignedBuf<T> {
    ptr: NonNull<T>,
    len: usize,
}

impl<T: StorePod> AlignedBuf<T> {
    fn from_slice(src: &[T]) -> Self {
        let len = src.len();
        if len == 0 {
            return AlignedBuf {
                ptr: dangling_aligned::<T>(),
                len: 0,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0).
        let raw = unsafe { std::alloc::alloc(layout) } as *mut T;
        let Some(ptr) = NonNull::new(raw) else {
            std::alloc::handle_alloc_error(layout);
        };
        // SAFETY: freshly allocated for `len` elements, `src` is a
        // valid source of the same length, regions cannot overlap.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), ptr.as_ptr(), len) };
        AlignedBuf { ptr, len }
    }

    fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr` is valid for `len` initialized elements for the
        // life of the buffer (or a well-aligned dangling pointer when
        // `len == 0`, which `from_raw_parts` permits).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    fn layout(len: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(len * std::mem::size_of::<T>(), STORE_ALIGN)
            .expect("store size overflows layout")
    }
}

impl<T> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        if self.len != 0 {
            let layout = std::alloc::Layout::from_size_align(
                self.len * std::mem::size_of::<T>(),
                STORE_ALIGN,
            )
            .expect("layout was valid at allocation");
            // SAFETY: allocated in `from_slice` with this exact layout.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr() as *mut u8, layout) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_stores_are_64_byte_aligned() {
        for len in [0usize, 1, 7, 64, 1000] {
            let s: PackedStore<i8> = PackedStore::from_vec(vec![3i8; len]);
            assert_eq!(s.as_ptr() as usize % STORE_ALIGN, 0, "len={len}");
            assert_eq!(s.len(), len);
            assert!(!s.is_borrowed());
            assert_eq!(&*s, vec![3i8; len].as_slice());
        }
        let wide: PackedStore<i16> = PackedStore::from_vec(vec![-300i16; 9]);
        assert_eq!(wide.as_ptr() as usize % STORE_ALIGN, 0);
        assert_eq!(wide[8], -300);
    }

    #[test]
    fn owned_clone_copies_and_compares_by_content() {
        let a: PackedStore<i16> = PackedStore::from_vec(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a.as_ptr(), b.as_ptr(), "owned clone must not alias");
        let c: PackedStore<i16> = vec![1, 2, 4].into();
        assert_ne!(a, c);
    }

    #[test]
    fn borrowed_shares_owner_and_outlives_the_original_handle() {
        // A 64-aligned owned store stands in for a file mapping.
        let bytes: Vec<u8> = (0..128u8).collect();
        let owner = Arc::new(PackedStore::<u8>::from_vec(bytes.clone()));
        let view = unsafe {
            PackedStore::<i16>::borrowed(owner.as_slice(), owner.clone()).expect("aligned")
        };
        assert!(view.is_borrowed());
        assert_eq!(view.len(), 64);
        assert_eq!(view[0], i16::from_le_bytes([0, 1]));
        // Dropping the original Arc handle must not invalidate the view
        // or its clones: they hold their own owner refs.
        let clone = view.clone();
        drop(owner);
        assert_eq!(clone.as_ptr(), view.as_ptr(), "borrowed clone aliases");
        assert_eq!(view[63], i16::from_le_bytes([126, 127]));
        assert_eq!(clone, view);
    }

    #[test]
    fn borrowed_rejects_misaligned_and_ragged_ranges() {
        let owner = Arc::new(PackedStore::<u8>::from_vec(vec![0u8; 64]));
        // Offset 1 breaks the 64-byte base alignment.
        let misaligned =
            unsafe { PackedStore::<i8>::borrowed(&owner.as_slice()[1..], owner.clone()) };
        assert!(misaligned.is_none());
        // 63 bytes is not a whole number of i16 elements.
        let ragged =
            unsafe { PackedStore::<i16>::borrowed(&owner.as_slice()[..63], owner.clone()) };
        assert!(ragged.is_none());
        // An empty aligned range is fine.
        let empty = unsafe {
            PackedStore::<i16>::borrowed(&owner.as_slice()[..0], owner.clone()).expect("empty ok")
        };
        assert!(empty.is_empty());
        assert_eq!(empty.as_ptr() as usize % STORE_ALIGN, 0);
    }

    #[test]
    fn borrowed_equals_owned_with_same_content() {
        let owner = Arc::new(PackedStore::<u8>::from_vec((0..64).collect()));
        let view = unsafe { PackedStore::<u8>::borrowed(owner.as_slice(), owner.clone()).unwrap() };
        let owned = PackedStore::<u8>::from_vec((0..64).collect());
        assert_eq!(view, owned);
        assert!(format!("{view:?}").starts_with("PackedStore::Borrowed("));
        assert!(format!("{owned:?}").starts_with("PackedStore::Owned("));
    }

    #[test]
    fn stores_move_across_threads() {
        let owner = Arc::new(PackedStore::<u8>::from_vec(vec![9u8; 64]));
        let view = unsafe { PackedStore::<u8>::borrowed(owner.as_slice(), owner.clone()).unwrap() };
        let handle = std::thread::spawn(move || view.iter().map(|&b| b as usize).sum::<usize>());
        assert_eq!(handle.join().unwrap(), 9 * 64);
    }
}
