//! Every call the benchmark makes into the program, and nothing else.
//!
//! The rest of the benchmark sees only the functions and opaque wrappers
//! below, so the program surface the benchmark pins is this file's `use`
//! list (README.md, "Pinned surface"). A change to one of those signatures
//! is answered here and nowhere else. The program is driven only through the
//! `mmsb` facade, over real files and real localhost sockets, the way
//! `mmsb convert | train | simulate | serve` drive it.
//!
//! Functions named `*_calls` make `reps` back-to-back calls of one program
//! function so that the probes can time the loop and divide.

use mmsb::core::{
    Backend, Checkpoint, DistributedConfig, DistributedSampler, ParallelSampler, SamplerConfig,
};
use mmsb::dkv::{DkvStore, Partition, ShardedStore};
use mmsb::graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb::graph::generate::stream::{for_each_edge, StreamConfig};
pub use mmsb::graph::heldout::HeldOut;
use mmsb::graph::io::load_edge_list;
use mmsb::graph::minibatch::{MinibatchSampler, Strategy};
use mmsb::graph::neighbor::NeighborSampler;
pub use mmsb::graph::Graph;
use mmsb::graph::{FxHashSet, GraphAccess, VertexId};
use mmsb::netsim::Phase;
use mmsb::obs::{self, ObsConfig, ObsLevel};
use mmsb::ooc::{convert_edge_list, BuildOptions, GraphBackend, OocReader};
pub use mmsb::ooc::{BlockCache, OocGraph};
use mmsb::pool::ThreadPool;
use mmsb::rand::dist::Normal;
use mmsb::rand::{Rng, RngCore, SplitMix64, Xoshiro256PlusPlus};
use mmsb::serve::{http, loadgen, ModelSnapshot, ServeConfig, ServeHandle};
use mmsb_simd::{self as simd, PhiScratch};
use std::hint::black_box;
use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;

fn rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(seed)
}

/// Cores the host gives this process; every thread count derives from it.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Name of the SIMD backend the program resolves on this host. Chains are
/// bitwise repeatable per backend, so every result records it.
pub fn simd_backend() -> &'static str {
    Backend::detect().name()
}

/// The seeded stream behind every choice the benchmark makes itself:
/// derived seeds, query ids, probe targets.
pub struct Mix(SplitMix64);

impl Mix {
    pub fn new(seed: u64) -> Self {
        Mix(SplitMix64::new(seed))
    }

    pub fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.0.below(bound)
    }
}

// ------------------------------------------------------------------ inputs

/// Shape of a streamed community-structured edge list.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    pub vertices: u32,
    pub communities: u32,
    pub emitted_edges: u64,
}

/// Write the generator's edge stream as a SNAP text edge list (`a\tb` per
/// line, duplicates included: deduplication is the program's job).
pub fn write_stream_edge_list(shape: StreamShape, seed: u64, path: &Path) -> std::io::Result<()> {
    let config = StreamConfig {
        num_vertices: shape.vertices,
        num_communities: shape.communities,
        target_edges: shape.emitted_edges,
        intra_fraction: 0.9,
        seed,
    };
    let mut out = std::io::BufWriter::with_capacity(1 << 20, std::fs::File::create(path)?);
    let mut result = Ok(());
    for_each_edge(&config, |a, b| {
        if result.is_ok() {
            result = writeln!(out, "{a}\t{b}");
        }
    });
    result?;
    out.flush()
}

/// A planted overlapping-community graph with `k` communities, mean degree
/// about 12 and 1.2 memberships per vertex (the CLI generator's defaults).
pub fn planted_graph(vertices: u32, k: usize, seed: u64) -> Graph {
    let overlap = 1.2;
    let config = PlantedConfig {
        num_vertices: vertices,
        num_communities: k,
        mean_community_size: (vertices as f64 * overlap / k as f64).max(4.0),
        memberships_per_vertex: overlap,
        internal_degree: 0.8 * 12.0 / overlap,
        background_degree: 0.2 * 12.0,
    };
    generate_planted(&config, &mut rng(seed)).graph
}

// ------------------------------------------------------------------- graph

pub fn load_graph(path: &Path) -> Result<Graph, String> {
    load_edge_list(path)
        .map(|l| l.graph)
        .map_err(|e| e.to_string())
}

/// Training graph (the held-out links removed) and the held-out set of
/// `links` links plus as many non-links.
pub fn heldout_split(graph: &Graph, links: usize, seed: u64) -> (Graph, HeldOut) {
    HeldOut::split(graph, links, &mut rng(seed))
}

/// Held-out pairs sampled by access through a block-cached reader; the
/// links stay in the on-disk adjacency.
pub fn heldout_observed(file: &OocGraph, links: usize, cache_blocks: usize, seed: u64) -> HeldOut {
    let mut cache = BlockCache::for_graph(file, cache_blocks, seed ^ 0x0C);
    HeldOut::sample_observed(OocReader::new(file, &mut cache), links, &mut rng(seed))
}

/// The held-out pairs as `(lo, hi, linked)`.
pub fn heldout_pairs(heldout: &HeldOut) -> Vec<(u32, u32, bool)> {
    heldout
        .pairs()
        .iter()
        .map(|&(e, y)| (e.lo().0, e.hi().0, y))
        .collect()
}

// --------------------------------------------------------------------- ooc

pub struct Converted {
    pub edges: u64,
    pub file_bytes: u64,
}

/// `mmsb convert`: text edge list to the compressed on-disk graph, spilling
/// sort runs under `temp_dir`.
pub fn convert(
    input: &Path,
    output: &Path,
    block_size: u32,
    temp_dir: &Path,
) -> Result<Converted, String> {
    let opts = BuildOptions {
        block_size,
        temp_dir: Some(temp_dir.to_path_buf()),
        ..BuildOptions::default()
    };
    let (stats, _ids) = convert_edge_list(input, output, opts).map_err(|e| e.to_string())?;
    Ok(Converted {
        edges: stats.num_edges,
        file_bytes: stats.file_bytes,
    })
}

/// Open an on-disk graph and verify every block's CRC, as `mmsb train
/// --graph-format ooc` does at start-up.
pub fn open_verified(path: &Path) -> Result<OocGraph, String> {
    let file = OocGraph::open(path).map_err(|e| e.to_string())?;
    file.verify_blocks().map_err(|e| e.to_string())?;
    Ok(file)
}

pub fn ooc_blocks(file: &OocGraph) -> u32 {
    file.header().num_blocks
}

pub fn ooc_vertices(file: &OocGraph) -> u32 {
    file.num_vertices()
}

/// A block cache for the probes, separate from the samplers' own.
pub fn new_cache(file: &OocGraph, blocks: usize, seed: u64) -> BlockCache {
    BlockCache::for_graph(file, blocks, seed)
}

/// One `has_edge` probe per pair through `cache`. With `cold`, the cache is
/// emptied before each probe, so each one reads and decodes a block.
pub fn has_edge_calls(
    file: &OocGraph,
    cache: &mut BlockCache,
    pairs: &[(u32, u32)],
    cold: bool,
) -> usize {
    let mut found = 0;
    for &(a, b) in pairs {
        if cold {
            cache.clear();
        }
        found += usize::from(OocReader::new(file, cache).has_edge(VertexId(a), VertexId(b)));
    }
    black_box(found)
}

/// One `neighbors` decode per vertex through `cache`.
pub fn neighbors_calls(file: &OocGraph, cache: &mut BlockCache, vertices: &[u32]) -> usize {
    let mut reader = OocReader::new(file, cache);
    let mut total = 0;
    for &v in vertices {
        total += black_box(reader.neighbors(VertexId(v))).len();
    }
    total
}

/// One positioned block read plus CRC check per listed block.
pub fn block_read_calls(file: &OocGraph, blocks: &[u32]) -> Result<(), String> {
    let mut buf = vec![0u8; file.header().block_size as usize];
    for &b in blocks {
        file.read_block_into(b, &mut buf)
            .map_err(|e| e.to_string())?;
        black_box(&buf);
    }
    Ok(())
}

// ---------------------------------------------------------------- training

/// Where a sampler reads adjacency from.
pub enum Source {
    Resident(Graph),
    OutOfCore(OocGraph),
}

impl Source {
    fn backend(self) -> GraphBackend {
        match self {
            Source::Resident(g) => GraphBackend::Resident(g),
            Source::OutOfCore(f) => GraphBackend::OutOfCore(f),
        }
    }
}

/// The samplers' own RNG seed: a fixed setting of every workload, like K,
/// not an input. At the few hundred iterations a run affords, the held-out
/// perplexity follows the chain's random numbers (5-12 % between chain
/// seeds on one graph) and hardly the graph (0.2 % between graphs under one
/// chain seed), so a chain seed drawn from `--seed` would bury
/// `final_perplexity` in noise that no input causes.
pub const CHAIN_SEED: u64 = 0x5EED_C4A1;

/// The sampler settings a workload fixes; everything else is the program's
/// default.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    pub k: usize,
    pub partitions: usize,
    pub anchors: usize,
    /// Block-cache capacity per worker (out-of-core only).
    pub cache_blocks: usize,
    pub seed: u64,
}

impl TrainConfig {
    fn strategy(&self) -> Strategy {
        Strategy::StratifiedNode {
            partitions: self.partitions,
            anchors: self.anchors,
        }
    }

    fn sampler_config(&self) -> SamplerConfig {
        SamplerConfig::new(self.k)
            .with_seed(self.seed)
            .with_minibatch(self.strategy())
            .with_graph_cache_blocks(self.cache_blocks)
    }
}

/// The Table III rows the cluster simulation reports, as per-layer metric
/// name and phase, in report order.
pub const NETSIM_ROWS: [(&str, Phase); 9] = [
    ("netsim.draw_minibatch_ms", Phase::DrawMinibatch),
    ("netsim.deploy_minibatch_ms", Phase::DeployMinibatch),
    ("netsim.sample_neighbors_ms", Phase::SampleNeighbors),
    ("netsim.load_pi_ms", Phase::LoadPi),
    ("netsim.update_phi_ms", Phase::UpdatePhi),
    ("netsim.update_pi_ms", Phase::UpdatePi),
    ("netsim.update_beta_theta_ms", Phase::UpdateBetaTheta),
    ("netsim.barrier_ms", Phase::Barrier),
    ("netsim.prefetch_ms", Phase::Prefetch),
];

enum Driver {
    Parallel(Box<ParallelSampler>),
    Cluster(Box<DistributedSampler>),
}

/// A constructed sampler: `mmsb train --driver parallel` or `mmsb simulate`.
pub struct Trainer(Driver);

impl Trainer {
    /// The pool-parallel sampler over either graph backend.
    pub fn parallel(
        source: Source,
        heldout: HeldOut,
        config: &TrainConfig,
        threads: usize,
    ) -> Result<Self, String> {
        ParallelSampler::with_backend_threads(
            source.backend(),
            heldout,
            config.sampler_config(),
            threads,
        )
        .map(|s| Trainer(Driver::Parallel(Box::new(s))))
        .map_err(|e| e.to_string())
    }

    /// The master-worker sampler on a simulated DAS5 cluster of `workers`
    /// ranks, with double-buffered pi loads.
    pub fn cluster(
        graph: Graph,
        heldout: HeldOut,
        config: &TrainConfig,
        workers: usize,
    ) -> Result<Self, String> {
        DistributedSampler::with_backend(
            GraphBackend::Resident(graph),
            heldout,
            config.sampler_config(),
            DistributedConfig::das5(workers),
        )
        .map(|s| Trainer(Driver::Cluster(Box::new(s))))
        .map_err(|e| e.to_string())
    }

    #[inline]
    pub fn step(&mut self) {
        match &mut self.0 {
            Driver::Parallel(s) => s.step(),
            Driver::Cluster(s) => s.step(),
        }
    }

    /// Held-out perplexity, averaged over every sample evaluated so far.
    pub fn perplexity(&mut self) -> f64 {
        match &mut self.0 {
            Driver::Parallel(s) => s.evaluate_perplexity(),
            Driver::Cluster(s) => s.evaluate_perplexity(),
        }
    }

    /// `Checkpoint::save` of the current chain state; returns the file size.
    pub fn save_checkpoint(&self, path: &Path) -> Result<u64, String> {
        let ckpt = match &self.0 {
            Driver::Parallel(s) => s.checkpoint(),
            Driver::Cluster(s) => s.checkpoint(),
        };
        ckpt.save(path).map_err(|e| e.to_string())?;
        std::fs::metadata(path)
            .map(|m| m.len())
            .map_err(|e| e.to_string())
    }

    /// Modelled cluster time so far, in seconds (0 off the cluster).
    pub fn virtual_time(&self) -> f64 {
        match &self.0 {
            Driver::Parallel(_) => 0.0,
            Driver::Cluster(s) => s.virtual_time(),
        }
    }

    /// Accumulated modelled seconds per [`NETSIM_ROWS`] row (zeros off the
    /// cluster).
    pub fn netsim_seconds(&self) -> [f64; NETSIM_ROWS.len()] {
        let mut out = [0.0; NETSIM_ROWS.len()];
        if let Driver::Cluster(s) = &self.0 {
            let report = s.report();
            for (slot, (_, phase)) in out.iter_mut().zip(NETSIM_ROWS) {
                *slot = report.phases.total(phase);
            }
        }
        out
    }
}

// ------------------------------------------------------------- checkpoints

/// A loaded checkpoint (`Checkpoint::load`: read, CRC, decode).
pub struct Model(Checkpoint);

pub fn load_checkpoint(path: &Path) -> Result<Model, String> {
    Checkpoint::load(path).map(Model).map_err(|e| e.to_string())
}

impl Model {
    /// Whether the loaded checkpoint serialises back to exactly `bytes`.
    pub fn serialises_to(&self, bytes: &[u8]) -> bool {
        self.0.to_bytes() == bytes
    }
}

// ----------------------------------------------------------------- serving

/// A running `mmsb serve`: `workers` worker threads on an ephemeral
/// localhost port, every limit at the program's default.
pub struct Server(ServeHandle);

impl Server {
    pub fn start(model: &Path, workers: usize) -> Result<Self, String> {
        let config = ServeConfig {
            threads: workers,
            ..ServeConfig::default()
        };
        ServeHandle::start(model, &config)
            .map(Server)
            .map_err(|e| e.to_string())
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    pub fn generation(&self) -> usize {
        self.0.generation()
    }

    /// Drain and join the workers.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

pub fn get_request(path: &str) -> Vec<u8> {
    loadgen::get_request(path)
}

pub fn post_request(path: &str) -> Vec<u8> {
    loadgen::post_request(path)
}

/// `(status, total length)` of the response at the front of `buf`, once it
/// is complete.
#[inline]
pub fn parse_response(buf: &[u8]) -> Option<(u16, usize)> {
    http::parse_response(buf)
}

/// The immutable serving layout of a model, built as the server builds it.
pub struct Snapshot(ModelSnapshot);

impl Snapshot {
    pub fn build(model: &Model) -> Result<Self, String> {
        let defaults = ServeConfig::default();
        ModelSnapshot::from_checkpoint(&model.0, defaults.delta, defaults.backend)
            .map(Snapshot)
            .map_err(|e| e.to_string())
    }

    pub fn vertices(&self) -> usize {
        self.0.n()
    }

    /// The `k` heaviest communities of `v` with their weights.
    pub fn top_k(&self, v: usize, k: usize) -> Vec<(u32, f64)> {
        self.0.communities_by_weight(v)[..k.min(self.0.k())]
            .iter()
            .map(|&c| (c, self.0.weight(v, c as usize)))
            .collect()
    }

    #[inline]
    pub fn edge_likelihood(&self, a: usize, b: usize) -> f64 {
        self.0.edge_likelihood(a, b)
    }

    /// One top-5 membership lookup per vertex, without a socket.
    pub fn top_k_calls(&self, vertices: &[u32]) -> f64 {
        let mut acc = 0.0;
        for &v in vertices {
            for &c in &self.0.communities_by_weight(v as usize)[..5.min(self.0.k())] {
                acc += self.0.weight(v as usize, c as usize);
            }
        }
        black_box(acc)
    }

    /// One Eq. 7 edge likelihood per pair, without a socket.
    pub fn edge_likelihood_calls(&self, pairs: &[(u32, u32)]) -> f64 {
        let mut acc = 0.0;
        for &(a, b) in pairs {
            acc += self.0.edge_likelihood(a as usize, b as usize);
        }
        black_box(acc)
    }
}

/// One `parse_request` per request; returns how many parsed completely.
pub fn parse_request_calls(requests: &[Vec<u8>]) -> usize {
    requests
        .iter()
        .filter(|r| {
            matches!(
                http::parse_request(black_box(r)),
                http::Parsed::Complete { .. }
            )
        })
        .count()
}

// ------------------------------------------------------------------ probes

/// `reps` mini-batch draws with the workload's strategy through its own
/// graph backend (out-of-core: through a cache of the workload's size).
pub fn minibatch_calls(
    source: &Source,
    heldout: &HeldOut,
    config: &TrainConfig,
    reps: usize,
) -> usize {
    let sampler = MinibatchSampler::new(config.strategy());
    let mut rng = rng(config.seed ^ 0xB47C);
    let mut pairs = 0;
    match source {
        Source::Resident(graph) => {
            let mut batch = sampler.sample(graph, Some(heldout), &mut rng);
            for _ in 0..reps {
                sampler.sample_into(graph, Some(heldout), &mut rng, &mut batch);
                pairs += batch.len();
            }
        }
        Source::OutOfCore(file) => {
            let mut cache = BlockCache::for_graph(file, config.cache_blocks, config.seed ^ 0xCAC4E);
            let mut batch =
                sampler.sample(OocReader::new(file, &mut cache), Some(heldout), &mut rng);
            for _ in 0..reps {
                sampler.sample_into(
                    OocReader::new(file, &mut cache),
                    Some(heldout),
                    &mut rng,
                    &mut batch,
                );
                pairs += batch.len();
            }
        }
    }
    black_box(pairs)
}

/// One neighbour-set draw (`|V_n|` = the program default) per vertex.
pub fn neighbor_sample_calls(
    num_vertices: u32,
    heldout: &HeldOut,
    config: &TrainConfig,
    vertices: &[u32],
) -> usize {
    let sampler = NeighborSampler::new(num_vertices, config.sampler_config().neighbor_sample);
    let mut rng = rng(config.seed ^ 0x7E16);
    let mut out = Vec::new();
    let mut seen = FxHashSet::default();
    let mut total = 0;
    for &v in vertices {
        sampler.sample_into(VertexId(v), Some(heldout), &mut rng, &mut out, &mut seen);
        total += out.len();
    }
    black_box(total)
}

/// Seeded inputs for the kernel probes: one `phi` row, `beta`, and 32
/// neighbour `pi` rows of `k` communities.
pub struct KernelInputs {
    backend: Backend,
    k: usize,
    phi: Vec<f64>,
    beta: Vec<f64>,
    rows: Vec<f32>,
    linked: Vec<bool>,
    pi_a: Vec<f64>,
    pib_a: Vec<f64>,
    pi_b: Vec<f64>,
    scratch: PhiScratch,
    out: Vec<f64>,
    noise_u: Vec<f64>,
    noise_s: Vec<f64>,
    noise: Vec<f64>,
    rng: Xoshiro256PlusPlus,
}

impl KernelInputs {
    pub const NEIGHBOURS: usize = 32;

    pub fn new(k: usize, seed: u64) -> Self {
        let mut rng = rng(seed);
        let mut unit = |n: usize| -> Vec<f64> { (0..n).map(|_| 0.05 + rng.next_f64()).collect() };
        let phi = unit(k);
        let beta: Vec<f64> = unit(k).iter().map(|b| b / 1.1).collect();
        let normalise = |row: Vec<f64>| -> Vec<f64> {
            let s: f64 = row.iter().sum();
            row.iter().map(|x| x / s).collect()
        };
        let pi_a = normalise(unit(k));
        let pi_b = normalise(unit(k));
        let pib_a = pi_a.iter().zip(&beta).map(|(p, b)| p * b).collect();
        let mut rows = Vec::with_capacity(Self::NEIGHBOURS * k);
        for _ in 0..Self::NEIGHBOURS {
            rows.extend(normalise(unit(k)).iter().map(|&x| x as f32));
        }
        let linked = (0..Self::NEIGHBOURS).map(|i| i % 4 == 0).collect();
        Self {
            backend: Backend::detect(),
            k,
            phi,
            beta,
            rows,
            linked,
            pi_a,
            pib_a,
            pi_b,
            scratch: PhiScratch::new(k),
            out: vec![0.0; k],
            noise_u: vec![0.0; k],
            noise_s: vec![0.0; k],
            noise: vec![0.0; k],
            rng,
        }
    }

    /// `reps` fused phi-gradient passes over the 32 neighbour rows.
    pub fn phi_gradient_calls(&mut self, reps: usize) {
        for _ in 0..reps {
            simd::phi_gradient(
                self.backend,
                &self.phi,
                &self.beta,
                &self.rows,
                self.k,
                &self.linked,
                1e-5,
                &mut self.scratch,
                &mut self.out,
            );
            black_box(&self.out);
        }
    }

    /// `reps` noise-and-step passes as one vertex update makes them: `k`
    /// polar rejections, the vector finish, and the SGRLD step.
    pub fn noise_step_calls(&mut self, reps: usize) {
        for _ in 0..reps {
            for c in 0..self.k {
                let (u, s) = Normal::standard_accept(&mut self.rng);
                self.noise_u[c] = u;
                self.noise_s[c] = s;
            }
            simd::polar_normal(self.backend, &self.noise_u, &self.noise_s, &mut self.noise);
            self.out.copy_from_slice(&self.phi);
            simd::sgrld_step(
                self.backend,
                &self.phi,
                &self.noise,
                1.0 / self.k as f64,
                5e-4,
                100.0,
                0.03,
                1e-24,
                &mut self.out,
            );
            black_box(&self.out);
        }
    }

    /// `reps` fused edge-likelihood dot products.
    pub fn edge_dots_calls(&mut self, reps: usize) -> f64 {
        let mut acc = 0.0;
        for _ in 0..reps {
            let (same, linked) =
                simd::edge_dots(self.backend, black_box(&self.pi_a), &self.pib_a, &self.pi_b);
            acc += same + linked;
        }
        black_box(acc)
    }

    /// `reps` accepted polar-method draws (the rejection half only).
    pub fn normal_calls(&mut self, reps: usize) -> f64 {
        let mut acc = 0.0;
        for _ in 0..reps {
            let (u, s) = Normal::standard_accept(&mut self.rng);
            acc += u + s;
        }
        black_box(acc)
    }
}

/// `reps` empty fork-joins of 64 chunks on a pool of `threads` threads.
pub fn forkjoin_calls(threads: usize, reps: usize) {
    let pool = ThreadPool::new(threads);
    let mut contexts = vec![0u64; threads];
    for _ in 0..reps {
        pool.run_with(&mut contexts, 64, |ctx, chunk| *ctx += chunk as u64);
    }
    black_box(&contexts);
}

/// `reps` batched reads of 512 seeded keys from a store of `num_keys` rows
/// of `k + 1` floats sharded over 8 ranks, as the cluster simulation's.
pub fn dkv_read_calls(num_keys: u32, k: usize, seed: u64, reps: usize) -> Result<(), String> {
    let store = ShardedStore::new(Partition::new(num_keys, 8), k + 1);
    let mut rng = rng(seed);
    let keys: Vec<u32> = (0..512)
        .map(|_| rng.below(num_keys as u64) as u32)
        .collect();
    let mut out = vec![0.0f32; keys.len() * (k + 1)];
    for _ in 0..reps {
        store
            .read_batch(&keys, &mut out)
            .map_err(|e| e.to_string())?;
        black_box(&out);
    }
    Ok(())
}

// --------------------------------------------------------------------- obs

/// Switch the program's own observability between `Off` and `Metrics`. The
/// first call allocates the program's metric slots and span rings (~117 MiB
/// resident), so untraced runs, which report peak RSS, never call this.
pub fn obs_metrics(on: bool) {
    obs::init(ObsConfig::at(if on {
        ObsLevel::Metrics
    } else {
        ObsLevel::Off
    }));
}

/// The program's `metrics.json` snapshot, or `None` before `obs_metrics`.
pub fn obs_metrics_json(threads: usize) -> Option<String> {
    obs::get().map(|o| obs::export::metrics_json(&o.metrics, None, threads))
}
