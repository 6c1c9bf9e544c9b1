//! Panic-path model tests, isolated in their own test binary (= their
//! own process) because the explored bodies panic intentionally in
//! every execution: a quiet panic hook keeps thousands of expected
//! panics from flooding the output. Violations in these tests would
//! still surface through the returned `Report`, not through the hook.

use std::sync::Arc;

use mmsb_check::model::{explore, Config, ModelSync, RaceCell, ViolationKind};

fn quiet_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

/// Pool chunk panic: `run` must re-throw after all workers drain and
/// the pool must stay usable — in every interleaving.
#[test]
fn pool_chunk_panic_drains_and_pool_survives() {
    quiet_panics();
    let report = explore(
        &Config {
            preemption_bound: 2,
            max_executions: 10_000,
            max_steps: 50_000,
            ..Config::default()
        },
        || {
            let pool = mmsb_pool::ThreadPoolIn::<ModelSync>::new(2);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(2, |_worker, chunk| {
                    if chunk == 1 {
                        panic!("chunk boom");
                    }
                });
            }));
            assert!(caught.is_err(), "chunk panic must re-throw from run");
            // The pool must remain usable after a panicked job.
            let cell = Arc::new(RaceCell::new("after-chunk-boom", 0u64));
            pool.run(1, |_worker, _chunk| cell.set(1));
            assert_eq!(cell.get(), 1);
        },
    );
    report.assert_ok();
}

/// A panic that escapes a model thread (nothing catches it) is itself a
/// reported violation, not a hang or a silent pass.
#[test]
fn escaped_thread_panic_is_reported() {
    quiet_panics();
    let cfg = Config {
        preemption_bound: 2,
        max_executions: 20_000,
        ..Config::default()
    };
    let report = explore(&cfg, || {
        let h = mmsb_check::model::spawn("doomed", || panic!("escaped"));
        mmsb_check::model::join(h);
    });
    let v = report.violation.expect("escaped panic must be reported");
    assert_eq!(v.kind, ViolationKind::ThreadPanic);
    assert!(
        v.message.contains("escaped"),
        "payload in message: {}",
        v.message
    );
}
