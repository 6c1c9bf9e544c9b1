//! `deadline_ms` bounds each response, not each `write`: a peer that
//! reads a few bytes at a time lets every `write` make some progress,
//! and must still lose the connection once the response's budget is
//! spent.

use mmsb_obs::clock::Stopwatch;
use mmsb_serve::{loadgen, ServeConfig, ServeHandle};
use std::cell::Cell;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;

mod common;
use common::{tmp_model, train_checkpoint, wait_until};

const DEADLINE_MS: u64 = 300;
const SLACK_MS: u64 = 200;

#[test]
fn a_trickling_reader_is_closed_at_the_response_deadline() {
    let model_path = tmp_model("write-deadline");
    train_checkpoint(29, 6).save(&model_path).unwrap();
    let handle = ServeHandle::start(
        &model_path,
        &ServeConfig {
            threads: 1,
            deadline_ms: DEADLINE_MS,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // The client keeps offering pipelined full community listings and
    // drains 64 bytes every 20 ms. The worker answers each batch it
    // reads in one response write; within a few batches the answers
    // fill both socket buffers, and from then on a write progresses
    // only as fast as the client drains. The clock starts at the first
    // byte, just before that write began.
    let mut client = TcpStream::connect(handle.addr()).unwrap();
    client.set_nonblocking(true).unwrap();
    let batch = loadgen::get_request("/v1/community/0?min_weight=0").repeat(1024);
    let mut sent = 0;
    let mut first_byte: Option<Stopwatch> = None;
    let mut last_read = Stopwatch::start();
    let mut chunk = [0u8; 64];
    let drained = Cell::new(0usize);
    wait_until(
        "the server has closed the trickling connection",
        || (handle.conns_open(), drained.get()),
        || {
            // Once the server has closed, writes and reads fail: the
            // connection state below is what the test waits on.
            if let Ok(n) = client.write(&batch[sent % batch.len()..]) {
                sent += n;
            }
            if last_read.elapsed_ns() >= 20_000_000 {
                last_read = Stopwatch::start();
                if let Ok(n) = client.read(&mut chunk) {
                    drained.set(drained.get() + n);
                }
                if drained.get() > 0 && first_byte.is_none() {
                    first_byte = Some(Stopwatch::start());
                }
            }
            first_byte.is_some() && handle.conns_open() == 0
        },
    );
    let writing_ms = first_byte.map_or(0, |sw| sw.elapsed_ns() / 1_000_000);
    assert!(
        writing_ms <= DEADLINE_MS + SLACK_MS,
        "closed {writing_ms} ms after the response write began (deadline {DEADLINE_MS} ms)"
    );
    drop(client);
    handle.shutdown();
    std::fs::remove_file(&model_path).ok();
}
