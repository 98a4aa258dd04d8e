//! Rotating-priority arithmetic shared by both crossbars.
//!
//! Each bank keeps a pointer into the ring of core ids; among a bank's
//! requesters, the one at the smallest distance at or after the pointer
//! wins, and the pointer moves just past the winner. Every value involved
//! is below the ring size, so the wrap-around needs a compare, not a
//! division.

/// The bank pointer reduced onto a ring of `ncores` ids. Pointers are
/// stored below the ring size of the cycle that set them; the ring only
/// shrinks when a wider-core request set preceded a narrower one, so the
/// division is off the hot path.
#[inline]
pub(crate) fn ring_pointer(rr: usize, ncores: usize) -> usize {
    if rr < ncores {
        rr
    } else {
        rr % ncores
    }
}

/// Distance of `core` from `ptr` going forward around the ring
/// (`(core - ptr) mod ncores`); both must be below `ncores`.
#[inline]
pub(crate) fn ring_distance(core: usize, ptr: usize, ncores: usize) -> usize {
    if core >= ptr {
        core - ptr
    } else {
        core + ncores - ptr
    }
}

/// The pointer after `winner` was served (`(winner + 1) mod ncores`);
/// `winner` must be below `ncores`.
#[inline]
pub(crate) fn ring_next(winner: usize, ncores: usize) -> usize {
    if winner + 1 == ncores {
        0
    } else {
        winner + 1
    }
}
