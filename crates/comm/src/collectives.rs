//! Collective operations layered over point-to-point messages.
//!
//! Both collectives are *root-centric* (the root exchanges with each
//! peer directly). That is the simplest correct dataflow; the latency an
//! MPI library's tree algorithms would achieve is what `mmsb-netsim`
//! models for the simulated cluster, so there is no reason to complicate
//! the functional layer. They must be called by **every** rank of the
//! cluster with consistent arguments, like their MPI counterparts. A
//! rank that died first surfaces at the root as
//! [`CommError::Disconnected`] naming it; the other contributors learn
//! of the failure at their next `recv` from the root.

use crate::message::{MessageReader, MessageWriter};
use crate::{CommError, Endpoint};
use mmsb_obs::id as obs_id;

/// Per-collective instrumentation: bumps the collective counter at open
/// and records the wall time (histogram + span) when dropped, so every
/// return path of a collective is covered.
struct CollectiveObs {
    sw: Option<mmsb_obs::clock::Stopwatch>,
    _span: mmsb_obs::Span,
}

impl CollectiveObs {
    fn open() -> Self {
        mmsb_obs::counter_add(obs_id::C_COMM_COLLECTIVES, 1);
        Self {
            sw: mmsb_obs::metrics_on().then(mmsb_obs::clock::Stopwatch::start),
            _span: mmsb_obs::span(obs_id::S_COMM_COLLECTIVE),
        }
    }
}

impl Drop for CollectiveObs {
    fn drop(&mut self) {
        if let Some(sw) = self.sw {
            mmsb_obs::hist_record_ns(obs_id::H_COMM_COLLECTIVE_NS, sw.elapsed_ns());
        }
    }
}

/// Reduce element-wise sums of `f64` vectors to `root`. Non-root ranks
/// return `None`.
pub fn reduce_sum_f64(
    ep: &Endpoint,
    root: usize,
    data: &[f64],
) -> Result<Option<Vec<f64>>, CommError> {
    let _obs = CollectiveObs::open();
    if ep.rank() == root {
        let mut acc = data.to_vec();
        for r in 0..ep.size() {
            if r == root {
                continue;
            }
            let bytes = ep.recv(r)?;
            let mut reader = MessageReader::new(&bytes);
            let contrib = reader.get_f64_slice()?;
            reader.finish()?;
            if contrib.len() != acc.len() {
                return Err(CommError::Malformed {
                    reason: format!(
                        "reduce length mismatch: root has {}, rank {r} sent {}",
                        acc.len(),
                        contrib.len()
                    ),
                });
            }
            for (a, c) in acc.iter_mut().zip(&contrib) {
                *a += c;
            }
        }
        Ok(Some(acc))
    } else {
        let mut w = MessageWriter::with_capacity(8 + data.len() * 8);
        w.put_f64_slice(data);
        ep.send(root, w.finish())?;
        Ok(None)
    }
}

/// Gather per-rank byte payloads at `root`; the root returns all payloads
/// indexed by rank, others return `None`.
pub fn gather_bytes(
    ep: &Endpoint,
    root: usize,
    data: Vec<u8>,
) -> Result<Option<Vec<Vec<u8>>>, CommError> {
    let _obs = CollectiveObs::open();
    if ep.rank() == root {
        let mut all: Vec<Vec<u8>> = vec![Vec::new(); ep.size()];
        all[root] = data;
        for (r, slot) in all.iter_mut().enumerate() {
            if r != root {
                *slot = ep.recv(r)?;
            }
        }
        Ok(Some(all))
    } else {
        ep.send(root, data)?;
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalCluster;
    use std::thread;

    /// Run `f` on every rank of a fresh cluster and collect results by rank.
    fn run_spmd<T: Send + 'static>(
        ranks: usize,
        f: impl Fn(&Endpoint) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let f = std::sync::Arc::new(f);
        let handles: Vec<_> = LocalCluster::spawn(ranks)
            .into_iter()
            .map(|ep| {
                let f = std::sync::Arc::clone(&f);
                thread::spawn(move || f(&ep))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn reduce_sums_elementwise() {
        let results = run_spmd(5, |ep| {
            let mine = vec![ep.rank() as f64, 1.0];
            reduce_sum_f64(ep, 0, &mine).unwrap()
        });
        assert_eq!(results[0], Some(vec![0.0 + 1.0 + 2.0 + 3.0 + 4.0, 5.0]));
        for r in &results[1..] {
            assert!(r.is_none());
        }
    }

    #[test]
    fn gather_collects_by_rank() {
        let results = run_spmd(4, |ep| {
            gather_bytes(ep, 2, vec![ep.rank() as u8; 2]).unwrap()
        });
        let at_root = results[2].as_ref().unwrap();
        for (rank, payload) in at_root.iter().enumerate() {
            assert_eq!(payload, &vec![rank as u8; 2]);
        }
        assert!(results[0].is_none());
    }

    #[test]
    fn reduce_length_mismatch_is_detected() {
        let results = run_spmd(2, |ep| {
            let mine = vec![0.0; 2 + ep.rank()]; // rank 1 sends longer vector
            reduce_sum_f64(ep, 0, &mine)
        });
        assert!(matches!(
            &results[0],
            Err(CommError::Malformed { .. })
        ));
    }

    #[test]
    fn single_rank_collectives_degenerate() {
        let results = run_spmd(1, |ep| {
            let r = reduce_sum_f64(ep, 0, &[2.0]).unwrap().unwrap();
            let g = gather_bytes(ep, 0, vec![4]).unwrap().unwrap();
            (r, g)
        });
        let (r, g) = &results[0];
        assert_eq!(r, &vec![2.0]);
        assert_eq!(g, &vec![vec![4]]);
    }
}
