//! Drain against a wedged worker: when the budget expires the
//! straggler is force-closed and accounted exactly once.
//!
//! One `#[test]` function: the test waits on the obs request counter,
//! which is process-global, so it must own all traffic.

use mmsb_obs::clock::Stopwatch;
use mmsb_obs::id as obs_id;
use mmsb_obs::{ObsConfig, ObsLevel};
use mmsb_serve::{loadgen, ServeConfig, ServeHandle};
use std::io::Write as _;
use std::net::TcpStream;

mod common;
use common::{tmp_model, train_checkpoint, wait_until};

#[test]
fn expired_drain_budget_force_closes_and_counts_aborts() {
    let metrics = &mmsb_obs::init(ObsConfig::at(ObsLevel::Metrics)).metrics;
    let model_path = tmp_model("force");
    train_checkpoint(23, 6).save(&model_path).unwrap();
    let handle = ServeHandle::start(
        &model_path,
        &ServeConfig {
            threads: 1,
            // How long the wedged worker stays parked in its write:
            // long enough for the test to see it (100 ms) and for the
            // drain budget (50 ms) to expire meanwhile, short enough
            // that the drain's join, which waits out a few of these,
            // returns soon after.
            deadline_ms: 500,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // A client that pipelines full community listings and never reads
    // a byte: its receive buffer and the server's send buffer fill,
    // and the worker parks in a response write until its deadline.
    //
    // Every poll first offers the server more requests (accepted, or
    // refused because a full queue of them is already waiting), and
    // the worker counts each request as it answers it. So once the
    // count has stood still for 100 ms with the connection open, the
    // worker has had input all along and answered none: it is parked.
    let mut client = TcpStream::connect(handle.addr()).unwrap();
    client.set_nonblocking(true).unwrap();
    let batch = loadgen::get_request("/v1/community/0?min_weight=0").repeat(1024);
    let mut sent = 0;
    let answered = || metrics.counter_total(obs_id::C_SERVE_REQUESTS);
    let sw = Stopwatch::start();
    let (mut seen, mut since_ns) = (0, 0);
    wait_until(
        "the never-read client has wedged the worker",
        || (answered(), handle.overload_stats(), handle.conns_open()),
        || {
            match client.write(&batch[sent % batch.len()..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("server dropped the client after {sent} bytes: {e}"),
            }
            let (now, now_ns) = (answered(), sw.elapsed_ns());
            if now != seen || handle.conns_open() != 1 {
                (seen, since_ns) = (now, now_ns);
            }
            seen > 0 && now_ns - since_ns >= 100_000_000
        },
    );

    // The 50ms budget expires while the worker is still stuck.
    let report = handle.drain(50);
    assert!(report.forced, "budget must have expired: {report:?}");
    assert_eq!(
        report.completed + report.aborted,
        1,
        "the one connection must be accounted exactly once: {report:?}"
    );
    drop(client);
    std::fs::remove_file(&model_path).ok();
}
