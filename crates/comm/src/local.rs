//! Threaded in-process communicator.
//!
//! [`LocalCluster::spawn`] wires up `R` endpoints with a full mesh of
//! unbounded channels plus a shared barrier — the transport
//! `train_threaded` runs on. Each endpoint is `Send` and is meant to be
//! moved into its rank's thread.

use crate::CommError;
use mmsb_obs::id as obs_id;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// How often a blocked `recv` re-checks peer liveness.
const LIVENESS_POLL: Duration = Duration::from_millis(1);

/// One rank's handle to the cluster.
pub struct Endpoint {
    rank: usize,
    size: usize,
    /// `senders[to]` transmits to rank `to` (index `rank` sends to self —
    /// allowed, and used by root-centric collectives for uniformity). The
    /// source rank is stamped on each payload at send time.
    senders: Vec<Sender<(usize, Vec<u8>)>>,
    receiver: Receiver<(usize, Vec<u8>)>,
    barrier: Arc<Barrier>,
    /// Out-of-order messages parked until a matching `recv` asks for them.
    pending: std::cell::RefCell<Vec<(usize, Vec<u8>)>>,
    /// `alive[r]` is cleared when rank `r`'s endpoint drops. Because every
    /// endpoint holds sender clones for the whole mesh, a dead peer's
    /// channel never disconnects on its own — this registry is how a
    /// blocked `recv` learns its peer is gone instead of hanging forever.
    alive: Arc<Vec<AtomicBool>>,
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.alive[self.rank].store(false, Ordering::Release);
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish()
    }
}

/// Factory for connected endpoint sets.
pub struct LocalCluster;

impl LocalCluster {
    /// Create `ranks` fully connected endpoints.
    ///
    /// # Panics
    /// Panics if `ranks == 0`.
    pub fn spawn(ranks: usize) -> Vec<Endpoint> {
        assert!(ranks > 0, "cluster needs at least one rank");
        // Per-destination channel carrying (source, payload).
        let mut senders_by_dest: Vec<Sender<(usize, Vec<u8>)>> = Vec::with_capacity(ranks);
        let mut receivers: Vec<Receiver<(usize, Vec<u8>)>> = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let (tx, rx) = channel();
            senders_by_dest.push(tx);
            receivers.push(rx);
        }
        let barrier = Arc::new(Barrier::new(ranks));
        let alive: Arc<Vec<AtomicBool>> =
            Arc::new((0..ranks).map(|_| AtomicBool::new(true)).collect());
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Endpoint {
                rank,
                size: ranks,
                senders: senders_by_dest.clone(),
                receiver,
                barrier: Arc::clone(&barrier),
                pending: std::cell::RefCell::new(Vec::new()),
                alive: Arc::clone(&alive),
            })
            .collect()
    }
}

impl Endpoint {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Cluster size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `payload` to rank `to`.
    pub fn send(&self, to: usize, payload: Vec<u8>) -> Result<(), CommError> {
        let sender = self
            .senders
            .get(to)
            .ok_or(CommError::RankOutOfRange {
                rank: to,
                size: self.size,
            })?;
        sender
            .send((self.rank, payload))
            .map_err(|_| CommError::Disconnected { peer: to })?;
        mmsb_obs::counter_add(obs_id::C_COMM_SENDS, 1);
        Ok(())
    }

    /// Receive the next message *from rank `from`*, blocking. Messages from
    /// other ranks that arrive first are buffered for later matching
    /// `recv` calls (MPI source-matching semantics).
    ///
    /// A wait on a dead peer fails with [`CommError::Disconnected`] once
    /// everything the peer sent before dying has been consumed — it never
    /// hangs.
    pub fn recv(&self, from: usize) -> Result<Vec<u8>, CommError> {
        if from >= self.size {
            return Err(CommError::RankOutOfRange {
                rank: from,
                size: self.size,
            });
        }
        // Check the park buffer first. `remove` (not `swap_remove`):
        // per-source FIFO order must survive parking, otherwise a fast
        // sender's later message can overtake its earlier one.
        {
            let mut pending = self.pending.borrow_mut();
            if let Some(i) = pending.iter().position(|(src, _)| *src == from) {
                mmsb_obs::counter_add(obs_id::C_COMM_RECVS, 1);
                return Ok(pending.remove(i).1);
            }
        }
        loop {
            match self.receiver.recv_timeout(LIVENESS_POLL) {
                Ok((src, payload)) => {
                    if src == from {
                        mmsb_obs::counter_add(obs_id::C_COMM_RECVS, 1);
                        return Ok(payload);
                    }
                    self.pending.borrow_mut().push((src, payload));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { peer: from });
                }
                Err(RecvTimeoutError::Timeout) => {
                    if !self.alive[from].load(Ordering::Acquire) {
                        // The peer died — but it may have delivered the
                        // message between our poll and the liveness read,
                        // so drain the channel before giving up.
                        while let Ok((src, payload)) = self.receiver.try_recv() {
                            if src == from {
                                mmsb_obs::counter_add(obs_id::C_COMM_RECVS, 1);
                                return Ok(payload);
                            }
                            self.pending.borrow_mut().push((src, payload));
                        }
                        return Err(CommError::Disconnected { peer: from });
                    }
                }
            }
        }
    }

    /// Block until every rank has entered the barrier.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_roundtrip() {
        let mut eps = LocalCluster::spawn(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t = thread::spawn(move || {
            a.send(1, vec![42, 43]).unwrap();
            a.recv(1).unwrap()
        });
        let got = b.recv(0).unwrap();
        assert_eq!(got, vec![42, 43]);
        b.send(0, vec![7]).unwrap();
        assert_eq!(t.join().unwrap(), vec![7]);
    }

    #[test]
    fn source_matching_buffers_out_of_order() {
        let mut eps = LocalCluster::spawn(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let ta = thread::spawn(move || a.send(2, vec![0xA]).unwrap());
        let tb = thread::spawn(move || b.send(2, vec![0xB]).unwrap());
        ta.join().unwrap();
        tb.join().unwrap();
        // Ask for rank 1's message first even if rank 0's arrived earlier.
        assert_eq!(c.recv(1).unwrap(), vec![0xB]);
        assert_eq!(c.recv(0).unwrap(), vec![0xA]);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let eps = LocalCluster::spawn(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    ep.barrier();
                    // After the barrier everyone must observe all 4 arrivals.
                    counter.load(Ordering::SeqCst)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 4);
        }
    }

    #[test]
    fn send_to_bad_rank_errors() {
        let eps = LocalCluster::spawn(2);
        assert!(matches!(
            eps[0].send(5, vec![]),
            Err(CommError::RankOutOfRange { rank: 5, size: 2 })
        ));
        assert!(matches!(
            eps[0].recv(9),
            Err(CommError::RankOutOfRange { rank: 9, .. })
        ));
    }

    #[test]
    fn self_send_works() {
        let eps = LocalCluster::spawn(1);
        eps[0].send(0, vec![1, 2, 3]).unwrap();
        assert_eq!(eps[0].recv(0).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn per_source_fifo_survives_parking() {
        // Regression: with >= 3 messages from one source parked behind a
        // message from another source, swap_remove-based buffering used to
        // invert the order of the same-source messages.
        let mut eps = LocalCluster::spawn(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let ta = thread::spawn(move || {
            for i in 0..5u8 {
                a.send(2, vec![i]).unwrap();
            }
        });
        let tb = thread::spawn(move || b.send(2, vec![0xBB]).unwrap());
        ta.join().unwrap();
        tb.join().unwrap();
        // Park everything by asking for rank 1 first.
        assert_eq!(c.recv(1).unwrap(), vec![0xBB]);
        for i in 0..5u8 {
            assert_eq!(c.recv(0).unwrap(), vec![i], "message {i} out of order");
        }
    }
}
