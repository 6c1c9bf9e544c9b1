//! Shared, copy-on-write model planes.
//!
//! The `N x K` membership plane is the model's memory (paper §III-A), so
//! it is held once: the live sampler state, a [`crate::Checkpoint`] of it
//! and a serving snapshot built from that checkpoint all hold the same
//! [`Plane`]. A clone is a reference-count bump; the first write through
//! [`Plane::make_mut`] while another handle is alive copies the plane
//! into a fresh allocation, and a write to a plane nobody shares happens
//! in place, allocating nothing.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A flat `f32`/`f64` model plane behind an [`Arc`]. `Clone` shares it;
/// [`Plane::deep_clone`] copies it.
///
/// A plane built by [`Plane::zeroed`] (and every copy-on-write copy)
/// starts on a 64-byte boundary, so a `K = 16` or `K = 64` `f32` row
/// spans whole cache lines instead of straddling one more. The buffer is
/// over-allocated by one line and viewed from its first aligned
/// element; the offset comes from the address, so this stays safe code.
/// A plane taken over from a `Vec` (`Plane::from(vec)`) keeps that
/// allocation as it is, aligned or not.
#[derive(Clone)]
pub struct Plane<T> {
    buf: Arc<Vec<T>>,
    off: usize,
    len: usize,
}

impl<T: Copy + Default> Plane<T> {
    /// Elements per 64-byte cache line.
    const LINE: usize = {
        let size = std::mem::size_of::<T>();
        assert!(size > 0 && 64 % size == 0 && std::mem::align_of::<T>() == size);
        64 / size
    };

    /// A plane of `len` default values whose first element sits on a
    /// 64-byte boundary.
    pub fn zeroed(len: usize) -> Self {
        let buf = vec![T::default(); len + Self::LINE - 1];
        // The element type is aligned to its size, which divides 64, so
        // the distance to the next line is a whole number of elements
        // below `LINE`.
        let size = std::mem::size_of::<T>();
        let off = (64 - buf.as_ptr() as usize % 64) % 64 / size;
        Self {
            buf: Arc::new(buf),
            off,
            len,
        }
    }

    /// A copy of this plane in a fresh, line-aligned allocation that
    /// shares nothing with `self`.
    pub fn deep_clone(&self) -> Self {
        let mut plane = Self::zeroed(self.len);
        plane.make_mut().copy_from_slice(self);
        plane
    }

    /// Mutable access to the elements. If another handle shares the
    /// plane, it is first copied into a fresh aligned allocation that
    /// `self` then owns alone — the other handles keep the old values.
    /// A plane nobody shares (or an empty one) is borrowed in place and
    /// nothing is allocated.
    pub fn make_mut(&mut self) -> &mut [T] {
        if self.len == 0 {
            return &mut [];
        }
        if Arc::get_mut(&mut self.buf).is_none() {
            *self = self.deep_clone();
        }
        let (off, len) = (self.off, self.len);
        let buf = Arc::get_mut(&mut self.buf).expect("a plane is unique after its copy");
        &mut buf[off..off + len]
    }
}

impl<T> Plane<T> {
    /// Elements the underlying allocation holds, alignment slack
    /// included.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

impl<T> From<Vec<T>> for Plane<T> {
    /// Take `v`'s allocation over as a plane, without copying it.
    fn from(v: Vec<T>) -> Self {
        let len = v.len();
        Self {
            buf: Arc::new(v),
            off: 0,
            len,
        }
    }
}

impl<T> Deref for Plane<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl<T: PartialEq> PartialEq for Plane<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for Plane<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(len: usize) -> Plane<f32> {
        let mut p = Plane::zeroed(len);
        for (i, x) in p.make_mut().iter_mut().enumerate() {
            *x = i as f32;
        }
        p
    }

    #[test]
    fn zeroed_planes_start_on_a_cache_line() {
        for len in [1, 15, 16, 17, 1000] {
            assert_eq!(Plane::<f32>::zeroed(len).as_ptr() as usize % 64, 0);
            assert_eq!(Plane::<f64>::zeroed(len).as_ptr() as usize % 64, 0);
            assert_eq!(Plane::<f32>::zeroed(len).len(), len);
        }
    }

    /// A write to a shared plane copies it into a fresh aligned buffer
    /// and leaves the other handle's values alone; a write to a unique
    /// plane stays in place.
    #[test]
    fn a_write_copies_only_a_shared_plane() {
        let mut live = ramp(37);
        let at = live.as_ptr();
        live.make_mut()[0] = -1.0;
        assert_eq!(live.as_ptr(), at, "a unique plane is written in place");

        let held = live.clone();
        assert_eq!(held.as_ptr(), at, "a clone shares the allocation");
        live.make_mut()[1] = -2.0;
        assert_eq!(held.as_ptr(), at);
        assert_ne!(live.as_ptr(), at, "a write to a shared plane copies it");
        assert_eq!(live.as_ptr() as usize % 64, 0);
        assert_eq!(held[..3], [-1.0, 1.0, 2.0]);
        assert_eq!(live[..3], [-1.0, -2.0, 2.0]);
        assert_eq!(held[3..], live[3..]);

        let moved = live.as_ptr();
        drop(held);
        live.make_mut()[2] = -3.0;
        assert_eq!(live.as_ptr(), moved, "unique again once the clone is gone");
    }

    #[test]
    fn a_vec_is_taken_over_and_deep_clone_shares_nothing() {
        let v = vec![1.0f64, 2.0, 3.0];
        let at = v.as_ptr();
        let p = Plane::from(v);
        assert_eq!(p.as_ptr(), at);
        assert_eq!(p.capacity(), 3);
        let c = p.deep_clone();
        assert_ne!(c.as_ptr(), p.as_ptr());
        assert_eq!(c, p);
        assert_eq!(c.as_ptr() as usize % 64, 0);
        let mut empty = Plane::<f64>::from(Vec::new());
        let other = empty.clone();
        assert!(empty.make_mut().is_empty());
        assert_eq!(
            empty.as_ptr(),
            other.as_ptr(),
            "an empty plane is never copied"
        );
    }
}
