//! A software prefetch hint.
//!
//! The pool driver knows which `pi` rows and adjacency lists the next
//! vertex will read long before it reads them; [`prefetch`] lets it say
//! so without naming `core::arch` outside this crate.

/// Bytes per cache line the hint steps by.
const LINE: usize = 64;

/// Ask the CPU to pull every 64-byte line `data` covers into L2
/// (`_MM_HINT_T1`) without waiting for it. A hint only: it reads nothing
/// into the program, changes no result and is a no-op off x86_64.
#[inline]
pub fn prefetch<T>(data: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T1};
        let start = data.as_ptr().cast::<i8>();
        let end = start.wrapping_add(core::mem::size_of_val(data));
        // Step from the start of the line holding the first byte, so a
        // slice that begins mid-line still gets its last line.
        let mut line = start.wrapping_sub(start as usize % LINE);
        while line < end {
            // SAFETY: a prefetch is a hint that never faults, whatever the
            // address; every address here lies in a line `data` touches,
            // and SSE (which provides `prefetcht1`) is the x86_64 baseline.
            unsafe { _mm_prefetch::<_MM_HINT_T1>(line) };
            line = line.wrapping_add(LINE);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_accepts_any_slice() {
        let v: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        prefetch(&v);
        prefetch(&v[3..517]);
        prefetch::<u32>(&[]);
        assert_eq!(v[999], 999.0);
    }
}
