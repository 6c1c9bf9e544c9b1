//! Benches for the DKV store: the software path whose overhead shapes
//! the small-payload region of Figure 5. Runs on the in-tree timing
//! harness (`mmsb_bench::timing`).
//!
//! The two reader id families are the two modes of the one
//! `ChunkReader`: `chunked_reader/*` is a `PipelineMode::Single` pass
//! (the same synchronous execution those ids always timed — the sync
//! reader's Double mode only changed the *modeled* makespan),
//! `prefetching_reader/*` a real double-buffered `PipelineMode::Double`
//! pass.

use mmsb::dkv::pipeline::{schedule, ChunkReader, ReaderScratch};
use mmsb::dkv::{DkvStore, LocalStore, Partition, ShardedStore};
use mmsb::prelude::*;
use mmsb_bench::timing::{black_box, Suite};

fn bench_read_batch(suite: &mut Suite) {
    for row_len in [65usize, 257, 1025] {
        // K + 1 rows for K in {64, 256, 1024}.
        let keys: Vec<u32> = (0..256).collect();
        let mut sharded = ShardedStore::new(Partition::new(1024, 64), row_len);
        let vals = vec![1.0f32; keys.len() * row_len];
        sharded.write_batch(&keys, &vals).unwrap();
        let mut buf = vec![0.0f32; keys.len() * row_len];
        suite.bench(&format!("dkv_read_batch/sharded_256keys/{row_len}"), || {
            sharded.read_batch(black_box(&keys), &mut buf).unwrap();
            black_box(&buf);
        });
        let mut local = LocalStore::new(1024, row_len);
        local.write_batch(&keys, &vals).unwrap();
        suite.bench(&format!("dkv_read_batch/local_256keys/{row_len}"), || {
            local.read_batch(black_box(&keys), &mut buf).unwrap();
            black_box(&buf);
        });
    }
}

fn bench_write_batch(suite: &mut Suite) {
    let row_len = 65;
    let keys: Vec<u32> = (0..256).collect();
    let vals = vec![2.0f32; keys.len() * row_len];
    let mut store = ShardedStore::new(Partition::new(1024, 64), row_len);
    suite.bench("dkv_write_batch/sharded_256keys_k64", || {
        store.write_batch(black_box(&keys), black_box(&vals)).unwrap()
    });
}

fn bench_pipeline_schedule(suite: &mut Suite) {
    let loads: Vec<f64> = (0..1000).map(|i| (i % 7) as f64 * 0.1).collect();
    let computes: Vec<f64> = (0..1000).map(|i| (i % 5) as f64 * 0.1).collect();
    suite.bench("pipeline_schedule_1000_chunks", || {
        black_box(schedule(
            black_box(&loads),
            black_box(&computes),
            PipelineMode::Double,
        ))
    });
}

fn bench_chunked_reader(suite: &mut Suite) {
    let net = NetworkModel::fdr_infiniband();
    let row_len = 65;
    let mut store = ShardedStore::new(Partition::new(4096, 64), row_len);
    let keys: Vec<u32> = (0..1024).collect();
    let vals = vec![1.0f32; keys.len() * row_len];
    store.write_batch(&keys, &vals).unwrap();
    let mut scratch = ReaderScratch::new();
    for (id, mode) in [
        ("chunked_reader", PipelineMode::Single),
        ("prefetching_reader", PipelineMode::Double),
    ] {
        for chunk in [16usize, 128] {
            let mut reader = ChunkReader::new(chunk, mode);
            suite.bench(&format!("{id}/{chunk}"), || {
                let mut acc = 0.0f64;
                reader
                    .run(&store, 0, &keys, &net, &mut scratch, |_, _, rows| {
                        acc += rows[0] as f64;
                    })
                    .unwrap();
                black_box(acc);
            });
        }
    }
}

fn main() {
    let mut suite = Suite::from_args("dkv");
    bench_read_batch(&mut suite);
    bench_write_batch(&mut suite);
    bench_pipeline_schedule(&mut suite);
    bench_chunked_reader(&mut suite);
    suite.finish();
}
