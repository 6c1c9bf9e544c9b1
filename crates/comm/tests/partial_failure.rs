//! Partial-failure behavior of the communicator: a rank dying
//! mid-collective must surface `CommError::Disconnected { peer }` with
//! the *correct* peer on every survivor — never a hang. The root learns
//! of a dead contributor inside the collective; the other contributors
//! (who only send) learn of it the way `train_threaded`'s workers do, at
//! their next `recv` from the root that gave up.

use mmsb_comm::{collectives, CommError, LocalCluster};
use std::thread;
use std::time::Duration;

#[test]
fn dead_contributor_fails_allreduce_on_all_survivors() {
    let eps = LocalCluster::spawn(4);
    let dead_rank = 2usize;
    let handles: Vec<_> = eps
        .into_iter()
        .map(|ep| {
            thread::spawn(move || {
                if ep.rank() == dead_rank {
                    // Dies before contributing; dropping the endpoint is
                    // the simulated crash.
                    return None;
                }
                let reduced = collectives::reduce_sum_f64(&ep, 0, &[ep.rank() as f64]);
                if ep.rank() == 0 {
                    // The root gives up (and drops its endpoint) instead
                    // of distributing a result.
                    return Some(reduced.map(|_| ()));
                }
                // Contributors sent their share; the result they wait for
                // never comes because the root is gone.
                assert_eq!(reduced, Ok(None));
                Some(ep.recv(0).map(|_| ()))
            })
        })
        .collect();
    for (rank, h) in handles.into_iter().enumerate() {
        let result = h.join().unwrap();
        match rank {
            r if r == dead_rank => assert!(result.is_none()),
            0 => assert_eq!(
                result.unwrap(),
                Err(CommError::Disconnected { peer: dead_rank }),
                "the root must name the dead contributor"
            ),
            _ => assert_eq!(
                result.unwrap(),
                Err(CommError::Disconnected { peer: 0 }),
                "survivor rank {rank} must see the root give up"
            ),
        }
    }
}

#[test]
fn contributor_dying_after_sending_still_aborts_cleanly() {
    // The dead rank's contribution *arrives* at the root, but the rank is
    // gone by the time the root asks for it: everything a peer sent
    // before dying must still be consumed, so the gather completes.
    let eps = LocalCluster::spawn(3);
    let handles: Vec<_> = eps
        .into_iter()
        .map(|ep| {
            thread::spawn(move || {
                if ep.rank() == 0 {
                    // Give rank 1 time to send and die so the root's recv
                    // really faces a dead source.
                    thread::sleep(Duration::from_millis(50));
                }
                collectives::gather_bytes(&ep, 0, vec![ep.rank() as u8])
                // Rank 1's endpoint drops here, right after its send.
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(results[0], Ok(Some(vec![vec![0], vec![1], vec![2]])));
    assert_eq!(results[1], Ok(None));
    assert_eq!(results[2], Ok(None));
}

#[test]
fn dead_root_fails_scatter_on_all_survivors() {
    // `train_threaded` scatters each iteration's shares as one `send` per
    // worker; a worker waiting for its share from a dead master must get
    // `Disconnected`, not block forever.
    let eps = LocalCluster::spawn(3);
    let handles: Vec<_> = eps
        .into_iter()
        .map(|ep| {
            thread::spawn(move || {
                if ep.rank() == 0 {
                    return None; // the root dies before scattering
                }
                Some(ep.recv(0))
            })
        })
        .collect();
    for (rank, h) in handles.into_iter().enumerate() {
        let result = h.join().unwrap();
        if rank == 0 {
            assert!(result.is_none());
        } else {
            assert_eq!(
                result.unwrap(),
                Err(CommError::Disconnected { peer: 0 }),
                "survivor rank {rank} must name the dead root"
            );
        }
    }
}
