//! Basic sanity of the explorer itself: interleavings are actually
//! explored, clean protocols report clean, and an obvious unsynchronized
//! pair is caught.

use std::sync::Arc;

use mmsb_check::model::{self, explore, Config, ModelSync, RaceCell, ViolationKind};
use mmsb_pool::sync::SyncBackend;

#[test]
fn counter_under_mutex_is_clean_and_multiply_explored() {
    let report = explore(&Config::default(), || {
        let m = Arc::new(ModelSync::mutex(0u64));
        let m2 = Arc::clone(&m);
        let h = model::spawn("adder", move || {
            *ModelSync::lock(&m2) += 1;
        });
        *ModelSync::lock(&m) += 1;
        model::join(h);
        assert_eq!(*ModelSync::lock(&m), 2);
    });
    report.assert_ok();
    assert!(report.complete, "DFS should exhaust this tiny protocol");
    assert!(
        report.executions > 1,
        "two unordered lock acquisitions must yield multiple interleavings, got {}",
        report.executions
    );
}

#[test]
fn unsynchronized_writes_race() {
    let report = explore(&Config::default(), || {
        let c = Arc::new(RaceCell::new("shared", 0u64));
        let c2 = Arc::clone(&c);
        let h = model::spawn("writer", move || {
            c2.set(1);
        });
        c.set(2);
        model::join(h);
    });
    let v = report.violation.expect("unsynchronized writes must race");
    assert_eq!(v.kind, ViolationKind::DataRace);
    assert!(
        v.message.contains("shared"),
        "message names the cell: {}",
        v.message
    );
}

#[test]
fn mutex_protected_cell_is_clean() {
    let report = explore(&Config::default(), || {
        let m = Arc::new(ModelSync::mutex(()));
        let c = Arc::new(RaceCell::new("guarded", 0u64));
        let (m2, c2) = (Arc::clone(&m), Arc::clone(&c));
        let h = model::spawn("writer", move || {
            let _g = ModelSync::lock(&m2);
            c2.set(1);
        });
        {
            let _g = ModelSync::lock(&m);
            let v = c.get();
            c.set(v + 1);
        }
        model::join(h);
    });
    report.assert_ok();
    assert!(report.complete);
}

#[test]
fn classic_deadlock_is_caught() {
    let report = explore(&Config::default(), || {
        let a = Arc::new(ModelSync::mutex(()));
        let b = Arc::new(ModelSync::mutex(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let h = model::spawn("inverted", move || {
            let _gb = ModelSync::lock(&b2);
            let _ga = ModelSync::lock(&a2);
        });
        {
            let _ga = ModelSync::lock(&a);
            let _gb = ModelSync::lock(&b);
        }
        model::join(h);
    });
    let v = report
        .violation
        .expect("lock-order inversion must deadlock");
    assert_eq!(v.kind, ViolationKind::Deadlock);
}
