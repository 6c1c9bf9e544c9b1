//! Extracting overlapping communities from the inferred memberships.

use crate::ModelState;
use mmsb_graph::VertexId;

/// An overlapping community assignment: for each community, its members.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Communities {
    /// `members[k]` lists the vertices assigned to community `k` (sorted).
    pub members: Vec<Vec<VertexId>>,
}

impl Communities {
    /// Whether `threshold` can extract communities: it must lie in
    /// `[0, 1)`.
    pub fn check_threshold(threshold: f32) -> Result<(), String> {
        if (0.0..1.0).contains(&threshold) {
            Ok(())
        } else {
            Err(format!("threshold {threshold} outside [0, 1)"))
        }
    }

    /// Threshold-extract communities: vertex `a` belongs to community `k`
    /// iff `pi_a[k] > threshold`. The conventional threshold for a
    /// `K`-community model is a multiple of the uniform mass `1/K`.
    ///
    /// # Panics
    /// Panics if [`Communities::check_threshold`] refuses `threshold`.
    pub fn from_state(state: &ModelState, threshold: f32) -> Self {
        if let Err(e) = Self::check_threshold(threshold) {
            panic!("{e}");
        }
        let mut members = vec![Vec::new(); state.k()];
        for a in 0..state.n() {
            for (c, &p) in state.pi_row(a).iter().enumerate() {
                if p > threshold {
                    members[c].push(VertexId(a));
                }
            }
        }
        Self { members }
    }

    /// Number of communities (including empty ones).
    pub fn num_communities(&self) -> usize {
        self.members.len()
    }

    /// Number of non-empty communities.
    pub fn num_nonempty(&self) -> usize {
        self.members.iter().filter(|m| !m.is_empty()).count()
    }

    /// Per-vertex membership lists.
    pub fn memberships(&self, num_vertices: u32) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); num_vertices as usize];
        for (c, members) in self.members.iter().enumerate() {
            for &v in members {
                out[v.index()].push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsb_rand::Xoshiro256PlusPlus;

    fn state_with_rows(rows: &[[f64; 3]]) -> ModelState {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut s = ModelState::init(rows.len() as u32, 3, 0.5, (1.0, 1.0), &mut rng).unwrap();
        for (a, row) in rows.iter().enumerate() {
            s.set_phi_row(a as u32, row);
        }
        s
    }

    #[test]
    fn threshold_extraction() {
        // pi rows: [0.8, 0.1, 0.1], [0.45, 0.45, 0.1], [0.05, 0.05, 0.9]
        let s = state_with_rows(&[[8.0, 1.0, 1.0], [4.5, 4.5, 1.0], [0.5, 0.5, 9.0]]);
        let c = Communities::from_state(&s, 1.0 / 3.0);
        assert_eq!(c.members[0], vec![VertexId(0), VertexId(1)]);
        assert_eq!(c.members[1], vec![VertexId(1)]);
        assert_eq!(c.members[2], vec![VertexId(2)]);
        assert_eq!(c.num_communities(), 3);
        assert_eq!(c.num_nonempty(), 3);
    }

    #[test]
    fn overlap_is_captured() {
        let s = state_with_rows(&[[5.0, 5.0, 0.1]]);
        let c = Communities::from_state(&s, 0.3);
        let m = c.memberships(1);
        assert_eq!(m[0], vec![0, 1], "vertex should sit in two communities");
    }

    #[test]
    fn high_threshold_empties_communities() {
        let s = state_with_rows(&[[1.0, 1.0, 1.0]]);
        let c = Communities::from_state(&s, 0.9);
        assert_eq!(c.num_nonempty(), 0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        let s = state_with_rows(&[[1.0, 1.0, 1.0]]);
        Communities::from_state(&s, 1.5);
    }
}
