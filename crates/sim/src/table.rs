//! Zero-initialised, fixed-length metadata tables.
//!
//! The caches' set rows and the coherence directory (about 14 MiB on the
//! paper machine) are probed at hash-randomised indices, so two host effects
//! dominate their cost: page-table walks on every probe, and the work of
//! writing an initial pattern into memory the run may never touch. [`ZeroTable`] avoids
//! both. Its element types are ones whose all-zero bytes are a valid (empty)
//! value, so a table needs no initialisation pass: on Linux, tables of 64 KiB
//! or more come straight from the kernel's zero pages and are only backed on
//! first touch, whatever memory the allocator has recycled, and tables of
//! 2 MiB or more are also aligned to and advised for transparent huge pages,
//! so one TLB entry covers 2 MiB of metadata instead of 4 KiB.
//!
//! Huge pages are a hint. With THP set to `never`, or when the kernel has no
//! free huge page, the table silently uses 4 KiB pages and only runs slower;
//! its contents never depend on the page size.

use std::alloc::{self, Layout};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Element types for which a value with every byte zero is valid.
///
/// # Safety
///
/// Implementors must be plain data: every field an integer (or another
/// `Zeroable`), so an all-zero bit pattern is a valid value, and no drop
/// glue (the `Copy` bound guarantees that).
pub(crate) unsafe trait Zeroable: Copy + 'static {}

// SAFETY: an all-zero `u64` is the valid value 0.
unsafe impl Zeroable for u64 {}

/// Bytes in a host cache line. Every table starts on a line boundary.
pub(crate) const HOST_LINE: usize = 64;

/// One host cache line of bytes, the element of a table of whole lines.
pub(crate) type HostLine = [u8; HOST_LINE];

// SAFETY: all-zero bytes are valid bytes.
unsafe impl Zeroable for HostLine {}

/// Tables of at least this many bytes get a mapping of their own, so they
/// start as untouched zero pages. Smaller ones come from `alloc_zeroed`,
/// which may have to clear recycled heap memory.
const MAPPED: usize = 64 << 10;

/// Mapped tables of at least this many bytes are aligned to and advised for
/// 2 MiB transparent huge pages.
const HUGE_PAGE: usize = 2 << 20;

/// Whether this target gives large tables a mapping of their own, so tests
/// can check both paths.
#[cfg(test)]
pub(crate) const MAPS_LARGE_TABLES: bool = mapping::SUPPORTED;

/// A heap table of `len` `T`s that starts all-zero, with a fixed length.
/// Dereferences to `[T]`; `Clone` makes a deep copy.
pub(crate) struct ZeroTable<T: Zeroable> {
    ptr: NonNull<T>,
    len: usize,
    /// How the memory was obtained, so `Drop` can return it the same way.
    backing: Backing,
}

enum Backing {
    /// `alloc_zeroed` with this layout.
    Heap(Layout),
    /// A private anonymous mapping starting at `base` of `len` bytes, which
    /// contains the table (2 MiB-aligned if it is at least `HUGE_PAGE`).
    Mapped { base: *mut u8, len: usize },
}

impl<T: Zeroable> ZeroTable<T> {
    /// A table of `len` all-zero elements.
    ///
    /// The table starts on a host cache line, so a table of [`HostLine`]s
    /// keeps each element within one line.
    ///
    /// # Panics
    ///
    /// Panics if the table would be empty or its size in bytes overflows
    /// `isize`; aborts like `Vec` if the host is out of memory.
    pub(crate) fn new(len: usize) -> Self {
        let layout = Layout::array::<T>(len)
            .and_then(|l| l.align_to(HOST_LINE))
            .expect("table size overflows isize");
        assert!(layout.size() > 0, "a table needs at least one byte");
        if layout.size() >= MAPPED {
            if let Some((ptr, base, map_len)) = mapping::map(layout) {
                return Self {
                    ptr: ptr.cast(),
                    len,
                    backing: Backing::Mapped { base, len: map_len },
                };
            }
        }
        // SAFETY: `layout` has a nonzero size (checked above).
        let raw = unsafe { alloc::alloc_zeroed(layout) };
        let ptr =
            NonNull::new(raw.cast::<T>()).unwrap_or_else(|| alloc::handle_alloc_error(layout));
        Self {
            ptr,
            len,
            backing: Backing::Heap(layout),
        }
    }

    /// Whether the table lives in a mapping of its own (tables of 64 KiB or
    /// more on Linux).
    #[cfg(test)]
    pub(crate) fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped { .. })
    }
}

impl<T: Zeroable> Deref for ZeroTable<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` is aligned for `T` and points to `len` initialised
        // elements (all-zero is valid for `T: Zeroable`) that this table
        // owns until `Drop`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> DerefMut for ZeroTable<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> Clone for ZeroTable<T> {
    fn clone(&self) -> Self {
        let mut copy = Self::new(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl<T: Zeroable + fmt::Debug> fmt::Debug for ZeroTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: Zeroable> Drop for ZeroTable<T> {
    fn drop(&mut self) {
        match self.backing {
            // SAFETY: `ptr` came from `alloc_zeroed(layout)` and is freed
            // only here.
            Backing::Heap(layout) => unsafe { alloc::dealloc(self.ptr.as_ptr().cast(), layout) },
            Backing::Mapped { base, len } => mapping::unmap(base, len),
        }
    }
}

// SAFETY: a `ZeroTable` owns its elements exclusively, like a `Vec<T>`: the
// raw pointers (`ptr`, and `base` of a mapping) are never shared with another
// table, so moving the table to another thread moves sole ownership of `T`s.
unsafe impl<T: Zeroable + Send> Send for ZeroTable<T> {}
// SAFETY: `&ZeroTable<T>` only hands out `&[T]`, so sharing it across threads
// is sharing `&T`, which `T: Sync` permits.
unsafe impl<T: Zeroable + Sync> Sync for ZeroTable<T> {}

/// The Linux mapping path, against the libc that std already links. The
/// constants are the x86-64/AArch64 values, hence the architecture gate.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod mapping {
    use std::alloc::Layout;
    use std::ffi::{c_int, c_long, c_void};
    use std::ptr::NonNull;

    use super::HUGE_PAGE;

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MADV_HUGEPAGE: c_int = 14;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    #[cfg(test)]
    pub(super) const SUPPORTED: bool = true;

    /// Maps zero-filled memory for `layout`; a table of at least
    /// `HUGE_PAGE` starts on a 2 MiB boundary and is advised for huge pages.
    /// Returns the table pointer and the whole mapping (`base`, `len`) to
    /// unmap later, or `None` if the kernel refused the mapping.
    pub(super) fn map(layout: Layout) -> Option<(NonNull<u8>, *mut u8, usize)> {
        debug_assert!(layout.align() <= 4096, "mappings are page-aligned");
        let huge = layout.size() >= HUGE_PAGE;
        // Round a huge table up to whole huge pages, so its last partial
        // page can be huge too, plus one huge page of slack to slide its
        // start onto a 2 MiB boundary. The slack is never touched, so it
        // costs address space only.
        let span = layout.size().div_ceil(HUGE_PAGE) * HUGE_PAGE;
        let len = if huge {
            span + HUGE_PAGE
        } else {
            layout.size()
        };
        // SAFETY: a fresh private anonymous mapping aliases no Rust object;
        // the kernel zero-fills it on first touch.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return None;
        }
        let base = base.cast::<u8>();
        if !huge {
            return NonNull::new(base).map(|ptr| (ptr, base, len));
        }
        let offset = (base as usize).next_multiple_of(HUGE_PAGE) - base as usize;
        let start = base.wrapping_add(offset);
        // SAFETY: `start..start + span` lies inside the mapping, since
        // `offset < HUGE_PAGE` and `len = span + HUGE_PAGE`. The advice is a
        // hint: if THP is disabled the call fails and the table keeps 4 KiB
        // pages, so its result is deliberately ignored.
        unsafe { madvise(start.cast(), span, MADV_HUGEPAGE) };
        NonNull::new(start).map(|ptr| (ptr, base, len))
    }

    /// Unmaps a mapping made by [`map`].
    pub(super) fn unmap(base: *mut u8, len: usize) {
        // SAFETY: `base`/`len` are exactly one mapping from `map`, unmapped
        // once, by the table that owns it. A failure cannot leave memory
        // unsafe (at worst the range stays mapped), so it is ignored rather
        // than panicking in `Drop`.
        unsafe { munmap(base.cast(), len) };
    }
}

/// Other targets: every table comes from `alloc_zeroed`.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod mapping {
    use std::alloc::Layout;
    use std::ptr::NonNull;

    #[cfg(test)]
    pub(super) const SUPPORTED: bool = false;

    pub(super) fn map(_: Layout) -> Option<(NonNull<u8>, *mut u8, usize)> {
        None
    }

    pub(super) fn unmap(_: *mut u8, _: usize) {
        unreachable!("no table is mapped on this target")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_zero_on_both_paths() {
        let small = ZeroTable::<u64>::new(1000);
        assert!(!small.is_mapped());
        assert!(small.iter().all(|&x| x == 0));
        // 160 KiB: mapped, not huge.
        let mid = ZeroTable::<u64>::new(20 << 10);
        assert_eq!(mid.is_mapped(), MAPS_LARGE_TABLES);
        assert!(mid.iter().all(|&x| x == 0));
        // 3 MiB: past the mapping threshold and not a whole number of huge
        // pages.
        let big = ZeroTable::<u64>::new((3 << 20) / 8);
        assert_eq!(big.is_mapped(), MAPS_LARGE_TABLES);
        assert_eq!(big.len(), (3 << 20) / 8);
        assert!(big.iter().all(|&x| x == 0));
        if big.is_mapped() {
            assert_eq!(
                big.as_ptr() as usize % HUGE_PAGE,
                0,
                "table starts on a huge page"
            );
        }
    }

    #[test]
    fn clone_is_deep_on_both_paths() {
        for len in [16, MAPPED / 8, HUGE_PAGE / 8] {
            let mut a = ZeroTable::<u64>::new(len);
            a[0] = 1;
            a[len - 1] = 2;
            let mut b = a.clone();
            assert_eq!(&a[..], &b[..]);
            assert_ne!(a.as_ptr(), b.as_ptr());
            b[0] = 3;
            assert_eq!(a[0], 1, "writes to the clone leave the original alone");
            drop(a);
            assert_eq!(
                (b[0], b[len - 1]),
                (3, 2),
                "the clone outlives the original"
            );
        }
    }

    /// The process's virtual size in KiB, where procfs has it.
    fn vm_size_kib() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find_map(|l| l.strip_prefix("VmSize:"))?;
        line.trim().trim_end_matches("kB").trim().parse().ok()
    }

    #[test]
    fn every_path_drops_cleanly() {
        // Allocate and free repeatedly on each path: a double free would
        // crash, and a leaked mapping would add 12 MiB of address space per
        // round (768 MiB in all), far beyond what concurrent tests allocate.
        let before = vm_size_kib();
        for _ in 0..64 {
            for len in [
                1,
                4096,
                MAPPED / 8 + 1,
                HUGE_PAGE / 8,
                5 * HUGE_PAGE / 8 + 3,
            ] {
                let mut t = ZeroTable::<u64>::new(len);
                t[len - 1] = u64::MAX;
                assert_eq!(t.len(), len);
            }
        }
        if let (Some(before), Some(after)) = (before, vm_size_kib()) {
            assert!(
                after < before + 256 * 1024,
                "VmSize grew {before} -> {after} KiB"
            );
        }
    }

    #[test]
    fn tables_move_across_threads() {
        let mut t = ZeroTable::<u64>::new(HUGE_PAGE / 8);
        t[7] = 7;
        let shared = std::thread::scope(|s| s.spawn(|| t[7]).join().expect("reader thread"));
        assert_eq!(shared, 7);
        let moved = std::thread::spawn(move || t[7])
            .join()
            .expect("owner thread");
        assert_eq!(moved, 7);
    }
}
