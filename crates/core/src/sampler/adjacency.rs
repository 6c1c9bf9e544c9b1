//! The mini-batch's adjacency, staged once per step: what the paper's
//! master scatters with the batch ("the mini-batch plus the touched
//! adjacency rows of E", §III). On an out-of-core graph the driver's
//! staging fan-out decodes every batch vertex's list into one flat
//! buffer, and `update_phi` marks its links against it; the resident
//! backend borrows its CSR rows instead and leaves this empty.

use mmsb_ooc::{GraphBackend, OocGraph};

/// Every batch vertex's neighbor list, flat: batch vertex `i`'s list is
/// `ids[offsets[i]..offsets[i + 1]]`.
#[derive(Default)]
pub(crate) struct BatchAdjacency {
    offsets: Vec<usize>,
    ids: Vec<u32>,
}

impl BatchAdjacency {
    /// Room for any batch of up to `max_vertices` vertices of `graph`:
    /// an offset each, and ids for the `max_vertices` largest degrees.
    /// The ids are reserved, not written, so only the prefix the batches
    /// reach becomes resident. Empty on a resident graph.
    pub fn for_batches(graph: &GraphBackend, max_vertices: usize) -> Self {
        match graph {
            GraphBackend::Resident(_) => Self::default(),
            GraphBackend::OutOfCore(file) => Self {
                offsets: Vec::with_capacity(max_vertices + 1),
                ids: Vec::with_capacity(largest_degrees(file, max_vertices)),
            },
        }
    }

    /// Lay out one list per entry of `degrees`, in order, and size the
    /// ids to hold them.
    pub fn layout(&mut self, degrees: impl Iterator<Item = u32>) {
        self.offsets.clear();
        self.offsets.push(0);
        let mut end = 0;
        for d in degrees {
            end += d as usize;
            self.offsets.push(end);
        }
        self.ids.resize(end, 0);
    }

    /// The offsets (one more than the batch has vertices) and the ids
    /// to write the lists into.
    pub fn parts(&mut self) -> (&[usize], &mut [u32]) {
        (&self.offsets, &mut self.ids)
    }

    /// Batch vertex `i`'s list, as the last staging wrote it.
    pub fn list(&self, i: usize) -> &[u32] {
        &self.ids[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// The sum of the `count` largest degrees of `file`, read off a degree
/// histogram.
fn largest_degrees(file: &OocGraph, count: usize) -> usize {
    let mut histogram = vec![0usize; file.max_degree() as usize + 1];
    for v in 0..file.num_vertices() {
        histogram[file.degree(v) as usize] += 1;
    }
    let mut left = count;
    let mut sum = 0;
    for (degree, &vertices) in histogram.iter().enumerate().rev() {
        let take = vertices.min(left);
        sum += take * degree;
        left -= take;
        if left == 0 {
            break;
        }
    }
    sum
}
