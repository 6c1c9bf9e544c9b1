//! Figure 5 reproduction: DKV store read bandwidth vs the qperf ceiling.
//!
//! Paper setup: maximum read bandwidth between one server and one client
//! for payloads 256 B – 1 MB, against qperf's RDMA read/write bandwidth.
//! The DKV store falls short below ~4 KB (per-request software overhead),
//! tracks qperf closely between 8 KB and 512 KB, and dips slightly at the
//! top (values spread over a larger memory area than qperf's fixed
//! buffer).
//!
//! Ours: the same sweep against the modeled FDR fabric, priced exactly
//! as the simulator charges a DKV read: [`CostModel::read_cost`] of one
//! batch of [`BATCH`] remote rows of the payload — a round trip of
//! latency for the batch, plus per-request posting or transfer, whichever
//! is larger. qperf keeps enough requests outstanding to hide the round
//! trip, which is the small-payload gap. No clock is read: the table is
//! the same on every run.

use mmsb::dkv::{CostModel, Partition};
use mmsb::prelude::*;
use mmsb_bench::{HarnessArgs, TableWriter};

/// Rows per read batch: the requests posted back-to-back behind one round
/// trip.
const BATCH: u32 = 64;

/// Modeled bandwidth (bytes/s) of rank 0 reading one batch of [`BATCH`]
/// rows of `payload` bytes, all owned by rank 1.
fn dkv_read_bandwidth(net: NetworkModel, payload: usize) -> f64 {
    let cost = CostModel::new(Partition::new(2 * BATCH, 2), payload / 4, net);
    let keys: Vec<u32> = (0..BATCH).map(|i| 2 * i + 1).collect();
    (BATCH as usize * payload) as f64 / cost.read_cost(0, &keys)
}

fn main() {
    let args = HarnessArgs::parse();
    let net = NetworkModel::fdr_infiniband();
    println!(
        "Figure 5 — DKV read bandwidth vs qperf (GB/s); DKV priced by \
         CostModel::read_cost, {BATCH} remote rows per batch\n"
    );

    let mut table = TableWriter::new(
        &["payload (B)", "dkv read", "qperf read", "qperf write"],
        args.csv.clone(),
    );

    let mut payload = 256usize;
    while payload <= (1 << 20) {
        table.row(&[
            payload.to_string(),
            format!("{:.2}", dkv_read_bandwidth(net, payload) / 1e9),
            format!("{:.2}", net.qperf_read_bandwidth(payload) / 1e9),
            format!("{:.2}", net.qperf_write_bandwidth(payload) / 1e9),
        ]);
        payload *= 2;
    }
    table.finish();
    println!(
        "\nexpected shape (paper): qperf read and write are nearly identical; the \
         DKV line falls short for payloads below ~4 KB (per-request software \
         overhead) and converges to the qperf ceiling from 8 KB upwards."
    );
}
