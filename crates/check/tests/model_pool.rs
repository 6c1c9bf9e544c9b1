//! Model checking of the fork-join `ThreadPoolIn` protocol — the same
//! generic source production runs — including the pattern the theta
//! binary-tree reduction uses: workers write per-chunk partials, the
//! caller combines them after `run` returns, relying solely on the
//! pool's epoch/done-condvar edges for ordering.

use std::sync::Arc;

use mmsb_check::model::{explore, Config, ModelSync, RaceCell};
use mmsb_pool::{tree_combine_f64, ThreadPoolIn};

type Pool = ThreadPoolIn<ModelSync>;

fn cfg() -> Config {
    Config {
        preemption_bound: 2,
        max_executions: 20_000,
        max_steps: 50_000,
        ..Config::default()
    }
}

/// Two threads, disjoint per-chunk outputs, caller reads after `run`:
/// the pool's done protocol must order every chunk write before the
/// caller's reads, in every interleaving.
#[test]
fn run_orders_chunk_writes_before_caller_reads() {
    let report = explore(&cfg(), || {
        let pool = Pool::new(2);
        let outs = [
            Arc::new(RaceCell::new("chunk0", 0u64)),
            Arc::new(RaceCell::new("chunk1", 0u64)),
        ];
        pool.run(2, |_worker, chunk| {
            outs[chunk].set(chunk as u64 + 10);
        });
        assert_eq!(outs[0].get(), 10);
        assert_eq!(outs[1].get(), 11);
    });
    report.assert_ok();
}

/// The theta-reduction shape: per-worker partials produced under the
/// pool, then combined by the caller with the same binary tree
/// production uses (`tree_combine_f64`). The combine step reads what
/// the helpers wrote — valid iff the pool's join edges hold.
#[test]
fn theta_tree_reduction_over_pool_partials_is_clean() {
    let report = explore(&cfg(), || {
        let pool = Pool::new(2);
        let partials = [
            Arc::new(RaceCell::new("partial0", 0.0f64)),
            Arc::new(RaceCell::new("partial1", 0.0f64)),
        ];
        pool.run(2, |_worker, chunk| {
            partials[chunk].set((chunk as f64 + 1.0) * 0.5);
        });
        // Caller-side tree combine over the model-tracked partials.
        let mut buf = [partials[0].get(), partials[1].get()];
        tree_combine_f64(&mut buf, 1, 2);
        assert_eq!(buf[0], 1.5);
    });
    report.assert_ok();
}

/// Back-to-back jobs on one pool: the epoch protocol must not let a
/// helper re-run a stale job or miss a new one (which would show up as
/// a deadlock or a wrong value here). Each job has two chunks: a
/// one-chunk job runs on the caller and publishes nothing.
#[test]
fn consecutive_jobs_reuse_the_pool_cleanly() {
    let report = explore(&cfg(), || {
        let pool = Pool::new(2);
        let cells = [
            Arc::new(RaceCell::new("acc0", 0u64)),
            Arc::new(RaceCell::new("acc1", 0u64)),
        ];
        for _ in 0..2 {
            let prev = [cells[0].get(), cells[1].get()];
            pool.run(2, |_worker, chunk| {
                cells[chunk].set(prev[chunk] + 1);
            });
        }
        assert_eq!(cells[0].get(), 2);
        assert_eq!(cells[1].get(), 2);
    });
    report.assert_ok();
}
