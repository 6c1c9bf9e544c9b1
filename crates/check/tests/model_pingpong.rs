//! Model checking of the `ChunkReader` ping-pong handoff under
//! `PipelineMode::Double` (mmsb-dkv `pipeline.rs`), distilled onto the sync layer: a
//! `BackgroundWorkerIn` fills the *back* buffer while the main thread
//! consumes the *front* one, then the buffers swap roles after `join`.
//!
//! The buffers are tracked `RaceCell`s, so the checker verifies the
//! exact property the real pipeline relies on: the publish/join edges
//! of the worker protocol are the ONLY thing ordering the background
//! fill against the caller's reads — and they are sufficient in every
//! interleaving. The companion negative test shows the checker bites:
//! touching the in-flight buffer from the caller is reported as a race.

#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::Arc;

use mmsb_check::model::{explore, Config, ModelSync, RaceCell, ViolationKind};
use mmsb_pool::BackgroundWorkerIn;

type Worker = BackgroundWorkerIn<ModelSync>;

fn cfg() -> Config {
    Config {
        preemption_bound: 2,
        max_executions: 20_000,
        ..Config::default()
    }
}

/// The double-buffer protocol, as the pipeline runs it: prime the front
/// buffer, then per iteration (1) kick off the back-buffer load,
/// (2) compute on the front buffer, (3) join, (4) swap.
#[test]
fn ping_pong_handoff_is_race_free() {
    let report = explore(&cfg(), || {
        let worker = Worker::new("prefetch");
        let bufs = [
            Arc::new(RaceCell::new("buf0", 0u64)),
            Arc::new(RaceCell::new("buf1", 0u64)),
        ];
        bufs[0].set(100); // prime the first front buffer synchronously
        let mut front = 0usize;
        let mut consumed = Vec::new();
        for it in 0..2u64 {
            let back = 1 - front;
            let fill = Arc::clone(&bufs[back]);
            let mut slot = Some(move || fill.set(101 + it));
            // SAFETY: `slot` outlives the `join` below; the caller only
            // touches the *front* buffer while the task is in flight.
            unsafe { worker.spawn(&mut slot) };
            consumed.push(bufs[front].get()); // overlapped compute
            worker.join();
            drop(slot);
            front = back;
        }
        consumed.push(bufs[front].get());
        assert_eq!(consumed, vec![100, 101, 102]);
    });
    report.assert_ok();
    assert!(report.complete, "ping-pong should be fully explorable");
}

/// Negative control: reading the buffer that is still being filled is
/// exactly the bug the ping-pong discipline exists to prevent, and the
/// checker must catch it in some interleaving.
#[test]
fn reading_the_in_flight_buffer_is_a_race() {
    let report = explore(&cfg(), || {
        let worker = Worker::new("prefetch-bad");
        let buf = Arc::new(RaceCell::new("back", 0u64));
        let fill = Arc::clone(&buf);
        let mut slot = Some(move || fill.set(1));
        // SAFETY: `slot` outlives the `join` below.
        unsafe { worker.spawn(&mut slot) };
        let _ = buf.get(); // BUG: back buffer read while load in flight
        worker.join();
        drop(slot);
    });
    let v = report
        .violation
        .expect("reading the in-flight buffer must race");
    assert_eq!(v.kind, ViolationKind::DataRace);
    assert!(v.message.contains("back"), "names the buffer: {}", v.message);
}

/// The pipeline's `WaitGuard` discipline: if the overlapped compute
/// step unwinds, the guard waits out the in-flight load before the
/// unwind continues, so the slot's borrow contract holds on the panic
/// path too. Modeled with an explicit wait in the unwind handler.
#[test]
fn panicking_compute_still_waits_out_the_load() {
    let report = explore(&cfg(), || {
        let worker = Worker::new("prefetch-guard");
        let buf = Arc::new(RaceCell::new("guarded", 0u64));
        let fill = Arc::clone(&buf);
        let mut slot = Some(move || fill.set(5));
        // SAFETY: `slot` outlives the `wait` in the handler below (the
        // guard discipline this test models), and the caller never
        // touches the in-flight buffer.
        unsafe { worker.spawn(&mut slot) };
        let compute: Result<(), u32> = Err(17); // stand-in for the unwinding compute
        if compute.is_err() {
            // WaitGuard drop path: the load must complete before the
            // caller's frames (owning `slot` and the buffer) unwind.
            let payload = worker.wait();
            assert!(payload.is_none(), "load itself did not panic");
        }
        drop(slot);
        assert_eq!(buf.get(), 5);
    });
    report.assert_ok();
    assert!(report.complete);
}
