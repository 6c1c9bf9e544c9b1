//! Mini-batch sampling of vertex pairs (`E_n`).
//!
//! Two strategies are provided:
//!
//! * [`Strategy::RandomPair`] — sample `size` distinct pairs uniformly from
//!   the full pair universe `E* = V x V` (minus held-out pairs). The
//!   gradient scale is `h = |E*| / |E_n|`.
//! * [`Strategy::StratifiedNode`] — the *stratified random node sampling*
//!   of Li, Ahn & Welling (the variant the paper's implementation uses):
//!   pick a vertex `u` uniformly; with probability 1/2 the mini-batch is
//!   `u`'s link set, otherwise it is one of `m` predefined partitions of
//!   `u`'s non-link pairs. A link appears in the batch with probability
//!   `(2/N) * (1/2) = 1/N` (either endpoint can anchor it), so the
//!   unbiased gradient scale is `h = N`; a non-link appears with
//!   probability `1/(N m)`, giving `h = N * m`.
//!   This strategy has much lower gradient variance on sparse graphs
//!   because links — the informative observations — are sampled often.

use crate::{access::GraphAccess, heldout::HeldOut, Edge, VertexId};
use mmsb_rand::{Rng, RngCore};

/// Mini-batch sampling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Uniform sampling of `size` pairs from `V x V`.
    RandomPair {
        /// Number of pairs per mini-batch.
        size: usize,
    },
    /// Stratified random node sampling with `partitions` non-link strata,
    /// drawing `anchors` independent strata per mini-batch. Each stratum
    /// carries its own weight; averaging `anchors` independent estimators
    /// divides the gradient variance by `anchors` (the paper's mini-batches
    /// span thousands of vertices, i.e. many strata).
    StratifiedNode {
        /// Number of partitions `m` of each vertex's non-link pairs.
        partitions: usize,
        /// Number of anchor vertices (strata) per mini-batch.
        anchors: usize,
    },
}

/// Which strata a mini-batch was assembled from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchKind {
    /// Uniform pair sample.
    RandomPairs,
    /// A union of per-anchor strata; one entry per anchor.
    Strata(Vec<Stratum>),
}

/// One stratum of a stratified mini-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stratum {
    /// The link set of the anchor vertex.
    LinkSet {
        /// The anchor vertex whose links form the stratum.
        anchor: VertexId,
    },
    /// One non-link partition of the anchor vertex.
    NonLinkSet {
        /// The anchor vertex.
        anchor: VertexId,
        /// The selected partition index in `[0, m)`.
        partition: usize,
    },
}

/// A sampled mini-batch of vertex pairs with observations and gradient
/// scale.
#[derive(Debug, Clone)]
pub struct MiniBatch {
    /// The sampled pairs together with the observation `y_ab`.
    pub pairs: Vec<(Edge, bool)>,
    /// Per-pair gradient weight: the stratum scale `h` divided by the
    /// number of averaged strata. The global-parameter gradient estimator
    /// is `sum_p weight_p * g_p` (reduces to Eq. 3's `h(E_n) * sum g` for
    /// a single stratum).
    pub weights: Vec<f64>,
    /// Provenance of the batch.
    pub kind: BatchKind,
}

impl MiniBatch {
    /// The distinct vertices touched by this mini-batch — the `M` vertices
    /// the master scatters across workers.
    pub fn vertices(&self) -> Vec<VertexId> {
        let mut vs = Vec::new();
        self.vertices_into(&mut vs);
        vs
    }

    /// Like [`MiniBatch::vertices`], but reusing `out` — no allocation once
    /// its capacity covers `2 * pairs.len()`.
    pub fn vertices_into(&self, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend(self.pairs.iter().flat_map(|&(e, _)| [e.lo(), e.hi()]));
        out.sort_unstable();
        out.dedup();
    }

    /// Number of pairs in the batch.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the batch is empty (possible for isolated vertices in the
    /// link stratum).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The average stratum scale — informational; the estimator itself
    /// uses the per-pair [`MiniBatch::weights`].
    pub fn mean_weight(&self) -> f64 {
        if self.weights.is_empty() {
            0.0
        } else {
            self.weights.iter().sum::<f64>() / self.weights.len() as f64
        }
    }
}

/// Mini-batch sampler bound to a strategy.
#[derive(Debug, Clone, Copy)]
pub struct MinibatchSampler {
    strategy: Strategy,
}

impl MinibatchSampler {
    /// Create a sampler with the given strategy.
    ///
    /// # Panics
    /// Panics on a zero `size` / `partitions` parameter.
    pub fn new(strategy: Strategy) -> Self {
        match strategy {
            Strategy::RandomPair { size } => assert!(size > 0, "mini-batch size must be > 0"),
            Strategy::StratifiedNode { partitions, anchors } => {
                assert!(partitions > 0, "partition count must be > 0");
                assert!(anchors > 0, "anchor count must be > 0");
            }
        }
        Self { strategy }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Draw one mini-batch from the *training* graph (any [`GraphAccess`]
    /// backend — resident calls pass `&Graph`, out-of-core ones a block-
    /// cached reader). Held-out pairs are excluded when `heldout` is
    /// provided.
    pub fn sample<G: GraphAccess, R: RngCore>(
        &self,
        graph: G,
        heldout: Option<&HeldOut>,
        rng: &mut R,
    ) -> MiniBatch {
        let mut out = MiniBatch {
            pairs: Vec::new(),
            weights: Vec::new(),
            kind: BatchKind::RandomPairs,
        };
        self.sample_into(graph, heldout, rng, &mut out);
        out
    }

    /// Like [`MinibatchSampler::sample`], but reusing the vectors inside
    /// `out`. The RNG draw sequence is identical to `sample`, so either
    /// entry point continues the same chain. For the stratified strategy
    /// this performs no heap allocation once `out`'s capacities cover the
    /// largest stratum (the random-pair strategy keeps a per-call
    /// dedup set).
    pub fn sample_into<G: GraphAccess, R: RngCore>(
        &self,
        graph: G,
        heldout: Option<&HeldOut>,
        rng: &mut R,
        out: &mut MiniBatch,
    ) {
        out.pairs.clear();
        out.weights.clear();
        match self.strategy {
            Strategy::RandomPair { size } => {
                self.sample_random_pairs_into(graph, heldout, size, rng, out);
            }
            Strategy::StratifiedNode { partitions, anchors } => {
                self.sample_stratified_into(graph, heldout, partitions, anchors, rng, out);
            }
        }
    }

    fn sample_random_pairs_into<G: GraphAccess, R: RngCore>(
        &self,
        mut graph: G,
        heldout: Option<&HeldOut>,
        size: usize,
        rng: &mut R,
        out: &mut MiniBatch,
    ) {
        let n = graph.num_vertices() as u64;
        assert!(n >= 2, "graph must have at least 2 vertices");
        let mut seen = crate::FxHashSet::default();
        let pairs = &mut out.pairs;
        let max_pairs = graph.num_pairs() as usize;
        let want = size.min(max_pairs);
        while pairs.len() < want {
            let a = VertexId(rng.below(n) as u32);
            let b = VertexId(rng.below(n) as u32);
            if a == b {
                continue;
            }
            let e = Edge::new(a, b);
            if heldout.is_some_and(|h| h.contains(e)) || !seen.insert(e.pack()) {
                continue;
            }
            let y = graph.has_edge(a, b);
            pairs.push((e, y));
        }
        let scale = graph.num_pairs() as f64 / pairs.len().max(1) as f64;
        out.weights.resize(pairs.len(), scale);
        out.kind = BatchKind::RandomPairs;
    }

    fn sample_stratified_into<G: GraphAccess, R: RngCore>(
        &self,
        mut graph: G,
        heldout: Option<&HeldOut>,
        m: usize,
        anchors: usize,
        rng: &mut R,
        out: &mut MiniBatch,
    ) {
        let n = graph.num_vertices();
        assert!(n >= 2, "graph must have at least 2 vertices");
        // Reuse the strata vector across draws when the caller passes the
        // same batch back in.
        if !matches!(out.kind, BatchKind::Strata(_)) {
            out.kind = BatchKind::Strata(Vec::with_capacity(anchors));
        }
        let MiniBatch {
            pairs,
            weights,
            kind,
        } = out;
        let BatchKind::Strata(strata) = kind else {
            unreachable!("kind was just set to Strata");
        };
        strata.clear();
        let averaging = anchors as f64;
        for _ in 0..anchors {
            let anchor = VertexId(rng.below(n as u64) as u32);
            if rng.coin() {
                // Link stratum: all of anchor's (training) edges.
                let stratum_pairs = graph
                    .neighbors(anchor)
                    .iter()
                    .map(|&b| (Edge::new(anchor, VertexId(b)), true))
                    .filter(|&(e, _)| !heldout.is_some_and(|h| h.contains(e)));
                let before = pairs.len();
                pairs.extend(stratum_pairs);
                weights.extend(std::iter::repeat_n(
                    n as f64 / averaging,
                    pairs.len() - before,
                ));
                strata.push(Stratum::LinkSet { anchor });
            } else {
                // Non-link stratum: partition `p` holds the candidates
                // `b != anchor` with `b % m == p` that are not training
                // edges.
                // Stepping through the residue class directly keeps this
                // O(N/m) — the master draws mini-batches on the critical
                // path (unless pipelined), so an O(N) scan would dominate
                // small-K configurations. The anchor's own list answers
                // every edge test (adjacency is symmetric): one list
                // read per stratum, where `has_edge` would open a
                // different vertex's list per candidate — on an
                // out-of-core backend, a random block each.
                let p = rng.below_usize(m);
                let anchor_list = graph.neighbors(anchor);
                let stratum_pairs = (p as u32..n)
                    .step_by(m)
                    .filter(|&b| b != anchor.0 && anchor_list.binary_search(&b).is_err())
                    .map(|b| Edge::new(anchor, VertexId(b)))
                    .filter(|&e| !heldout.is_some_and(|h| h.contains(e)))
                    .map(|e| (e, false));
                let before = pairs.len();
                pairs.extend(stratum_pairs);
                weights.extend(std::iter::repeat_n(
                    n as f64 * m as f64 / averaging,
                    pairs.len() - before,
                ));
                strata.push(Stratum::NonLinkSet {
                    anchor,
                    partition: p,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::planted::{generate_planted, PlantedConfig};
    use crate::Graph;
    use mmsb_rand::Xoshiro256PlusPlus;

    fn graph() -> Graph {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        generate_planted(
            &PlantedConfig {
                num_vertices: 200,
                num_communities: 4,
                mean_community_size: 60.0,
                memberships_per_vertex: 1.3,
                internal_degree: 10.0,
                background_degree: 1.0,
            },
            &mut rng,
        )
        .graph
    }

    #[test]
    fn random_pairs_size_weights_and_labels() {
        let g = graph();
        let s = MinibatchSampler::new(Strategy::RandomPair { size: 64 });
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let mb = s.sample(&g, None, &mut rng);
        assert_eq!(mb.len(), 64);
        assert_eq!(mb.kind, BatchKind::RandomPairs);
        assert_eq!(mb.weights.len(), 64);
        let expected = g.num_pairs() as f64 / 64.0;
        assert!(mb.weights.iter().all(|&w| (w - expected).abs() < 1e-9));
        for &(e, y) in &mb.pairs {
            assert_eq!(y, g.has_edge(e.lo(), e.hi()));
        }
        let set: std::collections::HashSet<u64> = mb.pairs.iter().map(|(e, _)| e.pack()).collect();
        assert_eq!(set.len(), 64);
    }

    #[test]
    fn single_anchor_link_stratum_is_anchor_neighborhood() {
        let g = graph();
        let s = MinibatchSampler::new(Strategy::StratifiedNode {
            partitions: 10,
            anchors: 1,
        });
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        loop {
            let mb = s.sample(&g, None, &mut rng);
            let BatchKind::Strata(ref strata) = mb.kind else {
                panic!("expected strata")
            };
            if let Stratum::LinkSet { anchor } = strata[0] {
                assert_eq!(mb.len() as u32, g.degree(anchor));
                assert!(mb.pairs.iter().all(|&(_, y)| y));
                let n = g.num_vertices() as f64;
                assert!(mb.weights.iter().all(|&w| (w - n).abs() < 1e-9));
                break;
            }
        }
    }

    #[test]
    fn single_anchor_nonlink_stratum_has_no_edges_and_right_partition() {
        let g = graph();
        let m = 8;
        let s = MinibatchSampler::new(Strategy::StratifiedNode {
            partitions: m,
            anchors: 1,
        });
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        loop {
            let mb = s.sample(&g, None, &mut rng);
            let BatchKind::Strata(ref strata) = mb.kind else {
                panic!("expected strata")
            };
            if let Stratum::NonLinkSet { anchor, partition } = strata[0] {
                assert!(!mb.pairs.iter().any(|&(_, y)| y));
                for &(e, _) in &mb.pairs {
                    let other = e.other(anchor);
                    assert_eq!(other.0 as usize % m, partition);
                    assert!(!g.has_edge(e.lo(), e.hi()));
                }
                let expected = g.num_vertices() as f64 * m as f64;
                assert!(mb.weights.iter().all(|&w| (w - expected).abs() < 1e-9));
                break;
            }
        }
    }

    #[test]
    fn multi_anchor_batches_divide_weights() {
        let g = graph();
        let anchors = 8;
        let s = MinibatchSampler::new(Strategy::StratifiedNode {
            partitions: 4,
            anchors,
        });
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mb = s.sample(&g, None, &mut rng);
        let BatchKind::Strata(ref strata) = mb.kind else {
            panic!("expected strata")
        };
        assert_eq!(strata.len(), anchors);
        assert_eq!(mb.weights.len(), mb.pairs.len());
        // Weights are the single-stratum scales divided by the anchor count.
        let n = g.num_vertices() as f64;
        for &w in &mb.weights {
            let link_w = n / anchors as f64;
            let nonlink_w = n * 4.0 / anchors as f64;
            assert!(
                (w - link_w).abs() < 1e-9 || (w - nonlink_w).abs() < 1e-9,
                "unexpected weight {w}"
            );
        }
    }

    #[test]
    fn excludes_heldout() {
        let g = graph();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let (train, h) = crate::heldout::HeldOut::split(&g, 100, &mut rng);
        for strat in [
            Strategy::RandomPair { size: 128 },
            Strategy::StratifiedNode {
                partitions: 4,
                anchors: 4,
            },
        ] {
            let s = MinibatchSampler::new(strat);
            for _ in 0..50 {
                let mb = s.sample(&train, Some(&h), &mut rng);
                for &(e, _) in &mb.pairs {
                    assert!(!h.contains(e), "{strat:?} sampled held-out pair");
                }
            }
        }
    }

    #[test]
    fn vertices_are_distinct_and_cover_pairs() {
        let g = graph();
        let s = MinibatchSampler::new(Strategy::RandomPair { size: 32 });
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let mb = s.sample(&g, None, &mut rng);
        let vs = mb.vertices();
        let set: std::collections::HashSet<_> = vs.iter().collect();
        assert_eq!(set.len(), vs.len());
        for &(e, _) in &mb.pairs {
            assert!(vs.contains(&e.lo()) && vs.contains(&e.hi()));
        }
    }

    #[test]
    fn stratified_weighted_mass_is_unbiased() {
        // Unbiasedness of the stratified estimator: each unordered pair is
        // reachable through both endpoints, each with probability
        // (1/N)(1/2)(1/m or 1), so P(pair in a stratum) = 1/N for links and
        // 1/(N m) for non-links; weighting by h and averaging over anchors
        // makes every pair count once: E[sum_p weight_p] = |E*|.
        let g = graph();
        let s = MinibatchSampler::new(Strategy::StratifiedNode {
            partitions: 8,
            anchors: 4,
        });
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let draws = 3000;
        let mean_weighted: f64 = (0..draws)
            .map(|_| {
                let mb = s.sample(&g, None, &mut rng);
                mb.weights.iter().sum::<f64>()
            })
            .sum::<f64>()
            / draws as f64;
        let total = g.num_pairs() as f64;
        let rel = (mean_weighted - total).abs() / total;
        assert!(rel < 0.05, "weighted pair mass off by {rel:.3}");
    }

    #[test]
    fn mean_weight_is_defined() {
        let g = graph();
        let s = MinibatchSampler::new(Strategy::RandomPair { size: 16 });
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        let mb = s.sample(&g, None, &mut rng);
        assert!(mb.mean_weight() > 0.0);
        let empty = MiniBatch {
            pairs: vec![],
            weights: vec![],
            kind: BatchKind::RandomPairs,
        };
        assert_eq!(empty.mean_weight(), 0.0);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "size must be > 0")]
    fn zero_size_panics() {
        MinibatchSampler::new(Strategy::RandomPair { size: 0 });
    }

    #[test]
    #[should_panic(expected = "anchor count")]
    fn zero_anchors_panics() {
        MinibatchSampler::new(Strategy::StratifiedNode {
            partitions: 4,
            anchors: 0,
        });
    }
}
