//! A *really concurrent* distributed driver: OS-thread workers, message
//! passing, shared one-sided state.
//!
//! The lockstep [`crate::DistributedSampler`] executes ranks serially so
//! per-rank compute can be measured cleanly; this driver runs the same
//! master–worker protocol with genuine concurrency, exactly the way the
//! paper's MPI processes do:
//!
//! * the master draws mini-batches and **scatters** each worker's vertex
//!   share *with the adjacency rows* (workers never hold the full edge
//!   set, paper §III-A) plus the current `beta`/`theta`, all through
//!   `mmsb-comm` messages,
//! * workers perform `update_phi` against the shared [`ShardedStore`]
//!   (shared memory standing in for RDMA: one-sided access, no remote
//!   CPU),
//! * stages are separated by real barriers; the `theta` gradient is
//!   combined with a real reduce; on evaluation iterations the master
//!   sends the updated `beta` back and the held-out probabilities are
//!   gathered.
//!
//! The chain it produces is **bit-identical** to the lockstep driver —
//! both are built from the same worker-side kernels and the same
//! `(seed, iteration, vertex)` randomness — which the integration tests
//! assert. Use this driver for functional/concurrency validation; use the
//! lockstep driver when you need cluster timing.

use super::stage::{theta_gradient, PhiParams};
use super::worker::{share, PhiWorker};
use super::Engine;
use crate::config::{SamplerConfig, StateLayout};
use crate::perplexity::link_probability;
use crate::{CoreError, ModelState};
use mmsb_comm::message::{MessageReader, MessageWriter};
use mmsb_comm::{collectives, Endpoint, LocalCluster};
use mmsb_dkv::pipeline::{ChunkReader, PipelineMode, ReaderScratch};
use mmsb_dkv::{DkvStore, Partition, ShardedStore};
use mmsb_graph::access::mark_links;
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::neighbor::NeighborSampler;
use mmsb_graph::{Graph, VertexId};
use mmsb_netsim::NetworkModel;
use std::sync::{Arc, RwLock};

/// Mini-batch vertices per load/compute chunk in the worker threads —
/// the granularity at which a double-buffered reader overlaps store
/// reads with `update_phi` compute.
const CHUNK_VERTICES: usize = 16;

/// Result of a threaded training run.
#[derive(Debug)]
pub struct ThreadedOutcome {
    /// Final model state (pi synchronized back from the store; theta and
    /// beta from the master).
    pub state: ModelState,
    /// `(iteration, averaged perplexity)` at each evaluation point.
    pub perplexity_trace: Vec<(u64, f64)>,
    /// The final chain state as a restorable, servable
    /// [`crate::Checkpoint`] (the PR 4 format v1 artifact), captured after
    /// the pi sync-back.
    pub checkpoint: crate::Checkpoint,
}

/// One-shot threaded training run.
///
/// Spawns `workers` OS threads plus uses the calling thread as the
/// master; runs `iterations` iterations, evaluating held-out perplexity
/// every `perplexity_every` iterations (0 = never). `pipeline` selects
/// how each worker loads `pi`: [`PipelineMode::Single`] reads
/// synchronously; [`PipelineMode::Double`] overlaps the next chunk's
/// store read with the current chunk's compute on a per-worker
/// background thread — same chunks, same delivery order, bitwise-equal
/// chain.
pub fn train_threaded(
    graph: Graph,
    heldout: HeldOut,
    config: SamplerConfig,
    workers: usize,
    iterations: u64,
    perplexity_every: u64,
    pipeline: PipelineMode,
) -> Result<ThreadedOutcome, CoreError> {
    if workers == 0 {
        return Err(CoreError::InvalidConfig {
            reason: "threaded sampler needs at least one worker".into(),
        });
    }
    if config.layout != StateLayout::PiSumPhi {
        return Err(CoreError::InvalidConfig {
            reason: "threaded sampler requires the PiSumPhi layout".into(),
        });
    }
    let mut engine = Engine::with_backend(graph.into(), heldout, config)?;
    let n = engine.graph.num_vertices();
    let k = engine.config.k;

    // Populate the shared store from the initial state.
    let store = {
        let mut s = ShardedStore::new(Partition::new(n, workers), k + 1);
        let mut row = vec![0.0f32; k + 1];
        for a in 0..n {
            engine.state.encode_dkv_row(a, &mut row);
            s.write_batch(&[a], &row)?;
        }
        Arc::new(RwLock::new(s))
    };

    let mut endpoints = LocalCluster::spawn(workers + 1);
    let master_ep = endpoints.remove(0);
    let heldout_shared = Arc::new(engine.heldout.clone());

    // ---------------- worker threads ----------------
    let mut handles = Vec::with_capacity(workers);
    for ep in endpoints {
        let store = Arc::clone(&store);
        let heldout = Arc::clone(&heldout_shared);
        let cfg = engine.config.clone();
        handles.push(std::thread::spawn(move || {
            worker_loop(ep, store, heldout, cfg, n, workers, iterations, pipeline)
        }));
    }

    // ---------------- master loop ----------------
    let mut trace = Vec::new();
    let mut probs = Vec::with_capacity(engine.heldout.len());
    // The master's contribution to the theta reduce.
    let zeros = vec![0.0f64; 2 * k];
    for t in 0..iterations {
        engine.refresh_minibatch();
        let nv = engine.mb_vertices.len();
        let n_pairs = engine.mb.pairs.len();
        let do_perplexity = perplexity_every > 0 && (t + 1) % perplexity_every == 0;

        // Scatter shares: vertex ids + adjacency rows + pair share +
        // weights + the current global parameters.
        for w in 0..workers {
            let mut msg = MessageWriter::new();
            msg.put_f64_slice(engine.state.beta());
            msg.put_f64_slice(engine.state.theta());
            let ids: Vec<u32> = engine.mb_vertices[share(nv, workers, w)]
                .iter()
                .map(|v| v.0)
                .collect();
            msg.put_u32_slice(&ids);
            for &v in &ids {
                msg.put_u32_slice(engine.neighbors_master(VertexId(v)));
            }
            let ps = share(n_pairs, workers, w);
            let pair_words: Vec<u32> = engine.mb.pairs[ps.clone()]
                .iter()
                .flat_map(|&(e, y)| [e.lo().0, e.hi().0, u32::from(y)])
                .collect();
            msg.put_u32_slice(&pair_words);
            msg.put_f64_slice(&engine.mb.weights[ps]);
            msg.put_u32(u32::from(do_perplexity));
            master_ep
                .send(w + 1, msg.finish())
                .map_err(comm_error)?;
        }

        // Same barrier schedule as the workers.
        master_ep.barrier(); // after update_phi
        master_ep.barrier(); // after pi write-back

        // Reduce theta gradients (master contributes zeros).
        let grad = collectives::reduce_sum_f64(&master_ep, 0, &zeros)
            .map_err(comm_error)?
            .expect("master is the reduce root");
        engine.apply_theta_update(&grad);

        if do_perplexity {
            // Broadcast the fresh beta: held-out probabilities are those
            // of the state *after* the whole iteration, as in every other
            // driver.
            for w in 0..workers {
                let mut msg = MessageWriter::with_capacity(8 + k * 8);
                msg.put_f64_slice(engine.state.beta());
                master_ep.send(w + 1, msg.finish()).map_err(comm_error)?;
            }
            let gathered = collectives::gather_bytes(&master_ep, 0, Vec::new())
                .map_err(comm_error)?
                .expect("master is the gather root");
            probs.clear();
            for payload in gathered.into_iter().skip(1) {
                let mut r = MessageReader::new(&payload);
                probs.extend(r.get_f64_slice().map_err(comm_error)?);
                r.finish().map_err(comm_error)?;
            }
            let perplexity = engine.record_perplexity_sample(&probs);
            trace.push((t + 1, perplexity));
        }
        engine.bump_iteration();
    }

    for h in handles {
        h.join().expect("worker thread panicked")?;
    }

    // Sync pi back from the store into the master's state.
    let store = store.read().expect("store lock poisoned");
    let mut row = vec![0.0f32; k + 1];
    for a in 0..n {
        store.read_batch(&[a], &mut row)?;
        engine.state.apply_dkv_row(a, &row);
    }
    let checkpoint = crate::Checkpoint::capture(&engine);
    Ok(ThreadedOutcome {
        state: engine.state,
        perplexity_trace: trace,
        checkpoint,
    })
}

fn comm_error(e: mmsb_comm::CommError) -> CoreError {
    CoreError::InvalidConfig {
        reason: format!("communicator failure: {e}"),
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    ep: Endpoint,
    store: Arc<RwLock<ShardedStore>>,
    heldout: Arc<HeldOut>,
    config: SamplerConfig,
    n: u32,
    workers: usize,
    iterations: u64,
    pipeline: PipelineMode,
) -> Result<(), CoreError> {
    let k = config.k;
    let row_len = k + 1;
    let w = ep.rank() - 1; // worker index (0-based)
    let neighbor_sampler = NeighborSampler::new(n, config.neighbor_sample);

    // Chunked-load machinery, persistent across iterations: the reader
    // (in Double mode its background thread lives as long as this
    // worker), its scratch (row ping-pong buffers, timing vectors) and
    // the key/segment staging. The cost model fed to the reader only
    // prices the modeled makespan, which this driver ignores (it runs on
    // real wall-clock); any model works.
    let net = NetworkModel::fdr_infiniband();
    let mut scratch = ReaderScratch::new();
    let mut reader = ChunkReader::new(CHUNK_VERTICES, pipeline);
    let mut keys_buf: Vec<u32> = Vec::new();
    let mut seg_lens: Vec<usize> = Vec::new();
    let mut worker = PhiWorker::new(k);
    let mut updates: Vec<f64> = Vec::new();
    let mut probs: Vec<f64> = Vec::new();

    for t in 0..iterations {
        // ---- receive this iteration's share ----
        let payload = ep.recv(0).map_err(comm_error)?;
        let mut r = MessageReader::new(&payload);
        let beta = r.get_f64_slice().map_err(comm_error)?;
        let theta = r.get_f64_slice().map_err(comm_error)?;
        let keys = r.get_u32_slice().map_err(comm_error)?;
        let ids: Vec<VertexId> = keys.iter().copied().map(VertexId).collect();
        let adjacency: Vec<Vec<u32>> = (0..ids.len())
            .map(|_| r.get_u32_slice())
            .collect::<Result<_, _>>()
            .map_err(comm_error)?;
        let pair_words = r.get_u32_slice().map_err(comm_error)?;
        let weights = r.get_f64_slice().map_err(comm_error)?;
        let do_perplexity = r.get_u32().map_err(comm_error)? != 0;
        r.finish().map_err(comm_error)?;

        let params = PhiParams {
            backend: config.backend(),
            n,
            alpha: config.alpha,
            delta: config.delta,
            eps: config.step.at(t),
        };

        // ---- update_phi: one-sided chunked reads, local compute ----
        // Neighbor sets are sampled up front (each vertex owns its RNG
        // stream, so sampling order is immaterial); the rows for a whole
        // vertex chunk are then loaded in one batched read, in Double
        // mode prefetched a chunk ahead of the compute.
        worker.sample(&ids, &neighbor_sampler, &heldout, config.seed, t);
        worker.stage_keys(CHUNK_VERTICES, &mut keys_buf, &mut seg_lens);
        updates.clear();
        updates.resize(ids.len() * k, 0.0);
        {
            let store = store.read().expect("store lock poisoned");
            let on_chunk = |_start: usize, _keys: &[u32], rows: &[f32]| {
                worker.on_chunk(
                    &params,
                    &beta,
                    rows,
                    |i, _, set, linked| mark_links(&adjacency[i], set, linked),
                    &mut updates,
                );
            };
            reader.run_segments(
                &store,
                w,
                &keys_buf,
                &seg_lens,
                &net,
                &mut scratch,
                on_chunk,
            )?;
        }
        ep.barrier(); // memory-consistency barrier before update_pi

        // ---- update_pi: write fresh rows through the store ----
        {
            worker.rows.resize(keys.len() * row_len, 0.0);
            for (phi, out) in updates
                .chunks_exact(k)
                .zip(worker.rows.chunks_exact_mut(row_len))
            {
                let sum: f64 = phi.iter().sum();
                for (o, &x) in out.iter_mut().zip(phi) {
                    *o = (x / sum) as f32;
                }
                out[k] = sum as f32;
            }
            let mut store = store.write().expect("store lock poisoned");
            store.write_batch(&keys, &worker.rows)?;
        }
        ep.barrier(); // fresh pi everywhere before update_beta

        // ---- update_beta_theta: local gradient, global reduce ----
        // One batched read of the pair share's endpoint rows, then the
        // same begin/accumulate/finish sequence as every other driver.
        {
            let store = store.read().expect("store lock poisoned");
            let PhiWorker {
                keys,
                rows,
                grad,
                scratch,
                ..
            } = &mut worker;
            keys.clear();
            keys.extend(pair_words.chunks_exact(3).flat_map(|p| [p[0], p[1]]));
            rows.resize(keys.len() * row_len, 0.0);
            store.read_batch(keys, rows)?;
            let pairs = pair_words
                .chunks_exact(3)
                .zip(&weights)
                .zip(rows.chunks_exact(2 * row_len))
                .map(|((p, &w), rows)| (&rows[..k], &rows[row_len..row_len + k], p[2] != 0, w));
            theta_gradient(
                params.backend,
                &beta,
                &theta,
                config.delta,
                pairs,
                scratch,
                grad,
            );
        }
        collectives::reduce_sum_f64(&ep, 0, &worker.grad).map_err(comm_error)?;

        // ---- perplexity (gathered at the master) ----
        if do_perplexity {
            let payload = ep.recv(0).map_err(comm_error)?;
            let mut r = MessageReader::new(&payload);
            let beta = r.get_f64_slice().map_err(comm_error)?;
            r.finish().map_err(comm_error)?;
            // One batched read of the share's endpoint rows, like the
            // theta stage.
            let share = heldout.partition(w, workers);
            let PhiWorker { keys, rows, .. } = &mut worker;
            keys.clear();
            keys.extend(share.iter().flat_map(|&(e, _)| [e.lo().0, e.hi().0]));
            rows.resize(keys.len() * row_len, 0.0);
            store
                .read()
                .expect("store lock poisoned")
                .read_batch(keys, rows)?;
            probs.clear();
            probs.extend(share.iter().zip(rows.chunks_exact(2 * row_len)).map(
                |(&(_, y), rows)| {
                    link_probability(
                        &rows[..k],
                        &rows[row_len..row_len + k],
                        &beta,
                        config.delta,
                        y,
                    )
                },
            ));
            let mut msg = MessageWriter::with_capacity(8 + probs.len() * 8);
            msg.put_f64_slice(&probs);
            collectives::gather_bytes(&ep, 0, msg.finish()).map_err(comm_error)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistributedConfig, DistributedSampler};
    use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
    use mmsb_rand::Xoshiro256PlusPlus;

    fn setup(seed: u64) -> (Graph, HeldOut) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let generated = generate_planted(
            &PlantedConfig {
                num_vertices: 150,
                num_communities: 3,
                mean_community_size: 55.0,
                memberships_per_vertex: 1.1,
                internal_degree: 8.0,
                background_degree: 0.5,
            },
            &mut rng,
        );
        HeldOut::split(&generated.graph, 50, &mut rng)
    }

    fn config() -> SamplerConfig {
        SamplerConfig::new(3)
            .with_seed(21)
            .with_minibatch(mmsb_graph::minibatch::Strategy::StratifiedNode {
                partitions: 8,
                anchors: 4,
            })
    }

    #[test]
    fn matches_lockstep_driver_bitwise() {
        let (g, h) = setup(1);
        let mut lockstep =
            DistributedSampler::new(g.clone(), h.clone(), config(), DistributedConfig::das5(3))
                .unwrap();
        // Held-out perplexity every second iteration on both sides: the
        // posterior-averaged traces must agree bit for bit too.
        let mut lockstep_trace = Vec::new();
        for t in 1..=8u64 {
            lockstep.step();
            if t % 2 == 0 {
                lockstep_trace.push((t, lockstep.evaluate_perplexity()));
            }
        }
        let threaded = train_threaded(g, h, config(), 3, 8, 2, PipelineMode::Double).unwrap();
        let bits = |trace: &[(u64, f64)]| -> Vec<(u64, u64)> {
            trace.iter().map(|&(t, p)| (t, p.to_bits())).collect()
        };
        assert_eq!(lockstep_trace.len(), 4);
        assert_eq!(
            bits(&lockstep_trace),
            bits(&threaded.perplexity_trace),
            "perplexity traces diverged: {lockstep_trace:?} vs {:?}",
            threaded.perplexity_trace
        );
        for a in 0..threaded.state.n() {
            assert_eq!(
                lockstep.state().pi_row(a),
                threaded.state.pi_row(a),
                "pi diverged at vertex {a}"
            );
        }
        assert_eq!(
            lockstep.state().theta(),
            threaded.state.theta(),
            "theta diverged"
        );
    }

    #[test]
    fn worker_count_does_not_change_threaded_numerics() {
        let (g, h) = setup(2);
        let a = train_threaded(g.clone(), h.clone(), config(), 2, 6, 0, PipelineMode::Single).unwrap();
        let b = train_threaded(g, h, config(), 5, 6, 0, PipelineMode::Double).unwrap();
        for v in 0..a.state.n() {
            assert_eq!(a.state.pi_row(v), b.state.pi_row(v), "vertex {v}");
        }
        // Theta matches up to the association order of the distributed
        // reduction (the per-worker partial sums differ with the count).
        for (x, y) in a.state.theta().iter().zip(b.state.theta()) {
            assert!(
                (x - y).abs() / x.abs().max(1e-12) < 1e-9,
                "theta diverged beyond reduction tolerance: {x} vs {y}"
            );
        }
    }

    #[test]
    fn perplexity_trace_is_recorded_and_finite() {
        let (g, h) = setup(3);
        let out = train_threaded(g, h, config(), 3, 9, 3, PipelineMode::Double).unwrap();
        assert_eq!(out.perplexity_trace.len(), 3);
        assert_eq!(out.perplexity_trace[0].0, 3);
        assert_eq!(out.perplexity_trace[2].0, 9);
        for (_, p) in out.perplexity_trace {
            assert!(p.is_finite() && p > 1.0);
        }
    }

    #[test]
    fn rejects_bad_configs() {
        let (g, h) = setup(4);
        assert!(train_threaded(g.clone(), h.clone(), config(), 0, 1, 0, PipelineMode::Single).is_err());
        let full = config().with_layout(StateLayout::FullPhi);
        assert!(train_threaded(g, h, full, 2, 1, 0, PipelineMode::Single).is_err());
    }
}
