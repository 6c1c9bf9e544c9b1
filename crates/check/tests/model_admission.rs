//! Model checking of `mmsb-serve`'s admission / drain protocol — the
//! exact generic code production runs (`AdmissionIn`), instantiated on
//! the model backend so every interleaving of admit vs. release vs.
//! drain is explored, not just the ones a live-server test happens to
//! hit.
//!
//! The properties the overload layer stands on:
//!
//! * **slot conservation** — every admitted connection is released
//!   exactly once, under any interleaving of concurrent admits and
//!   releases (`admitted_total == released_total`, quiescent at join);
//! * **no lost connections at drain** — an admit racing `begin_drain`
//!   either refuses or is fully visible to the drainer; the drain's
//!   quiescence condition is reached in every interleaving;
//! * **the lifecycle is monotone** — `begin_drain` racing `force_close`
//!   never rolls a closed controller back to draining;
//! * **the checker actually catches bugs** — two seeded-bug negative
//!   controls (a leaked permit, a double decrement) must each produce a
//!   violation, so the green runs above mean something.

use std::sync::Arc;

use mmsb_check::model::{self, explore, Config, ModelSync};
use mmsb_serve::{AdmissionIn, ConnClose, Lifecycle};

type Adm = AdmissionIn<ModelSync>;

fn cfg() -> Config {
    Config {
        preemption_bound: 2,
        max_executions: 20_000,
        max_steps: 50_000,
        ..Config::default()
    }
}

/// Two threads admit and release concurrently: in every interleaving
/// the books balance and the controller is quiescent after both are
/// joined.
#[test]
fn concurrent_admits_conserve_slots() {
    let report = explore(&cfg(), || {
        let adm = Arc::new(Adm::new());
        let worker = {
            let adm = Arc::clone(&adm);
            model::spawn("worker", move || {
                if let Some(permit) = adm.try_admit() {
                    drop(permit);
                }
            })
        };
        if let Some(permit) = adm.try_admit() {
            permit.close(ConnClose::Normal);
        }
        model::join(worker);

        assert!(adm.quiescent(), "slots leaked: {adm:?}");
        let (admitted, released, shed_conns) = adm.totals();
        assert_eq!(admitted, released, "admit/release books must balance");
        assert_eq!(admitted, 2, "an accepting controller admits both");
        assert_eq!(shed_conns, 0);
    });
    report.assert_ok();
    assert!(report.complete, "protocol should be fully explorable");
    assert!(report.executions > 1, "admit/release must interleave");
}

/// One thread admits while another drains: however they interleave,
/// the admit is either refused (`Draining`) or its slot is visible to
/// the drainer until released — a connection is never admitted but
/// invisible, and the drain's quiescence condition is always reached.
#[test]
fn drain_racing_admit_never_loses_a_connection() {
    let report = explore(&cfg(), || {
        let adm = Arc::new(Adm::new());
        let drainer = {
            let adm = Arc::clone(&adm);
            model::spawn("drainer", move || {
                adm.begin_drain();
            })
        };
        let admitted = match adm.try_admit() {
            Some(permit) => {
                // Slot charged: the drainer must see it until closed.
                assert!(!adm.quiescent());
                permit.close(ConnClose::DrainCompleted);
                true
            }
            None => false,
        };
        model::join(drainer);

        // Drain termination: after the racing admit resolved, the
        // controller is quiescent and stays closed to new work.
        assert!(adm.quiescent(), "drain cannot terminate: {adm:?}");
        assert_eq!(adm.lifecycle(), Lifecycle::Draining);
        assert!(adm.try_admit().is_none());
        let (completed, aborted) = adm.drain_counts();
        assert_eq!(aborted, 0);
        assert_eq!(completed, usize::from(admitted));
        let (admitted_total, released_total, ..) = adm.totals();
        assert_eq!(admitted_total, released_total);
    });
    report.assert_ok();
    assert!(report.complete);
    assert!(report.executions > 1, "drain/admit must interleave");
}

/// Lifecycle is monotone under a drain/force-close race: `begin_drain`
/// can never roll a `Closed` controller back to `Draining`.
#[test]
fn lifecycle_is_monotone_under_races() {
    let report = explore(&cfg(), || {
        let adm = Arc::new(Adm::new());
        let closer = {
            let adm = Arc::clone(&adm);
            model::spawn("closer", move || {
                adm.force_close();
            })
        };
        adm.begin_drain();
        model::join(closer);
        assert_eq!(
            adm.lifecycle(),
            Lifecycle::Closed,
            "begin_drain rolled back a force_close"
        );
        assert!(adm.try_admit().is_none());
    });
    report.assert_ok();
    assert!(report.complete);
}

/// Negative control #1: a worker that leaks its permit (the seeded
/// missing-decrement bug) must be caught — the post-join quiescence
/// assertion fires in the model and surfaces as a violation. Without
/// this test, a checker that ignored panics would pass everything.
#[test]
fn seeded_leaked_permit_is_caught() {
    let report = explore(&cfg(), || {
        let adm = Arc::new(Adm::new());
        let leaker = {
            let adm = Arc::clone(&adm);
            model::spawn("leaker", move || {
                if let Some(permit) = adm.try_admit() {
                    // Seeded bug: the slot's decrement never happens.
                    std::mem::forget(permit);
                }
            })
        };
        model::join(leaker);
        assert!(adm.quiescent(), "leaked permit left a slot charged");
    });
    assert!(
        report.violation.is_some(),
        "the checker must catch the seeded permit leak"
    );
}

/// Negative control #2: a double decrement (releasing a slot that was
/// already released) underflows the usize slot count and must be
/// caught via the resulting panic/assertion, not silently wrap into
/// "billions of connections open".
#[test]
fn seeded_double_decrement_is_caught() {
    let report = explore(&cfg(), || {
        let adm = Arc::new(Adm::new());
        if let Some(permit) = adm.try_admit() {
            drop(permit); // legitimate release
        }
        // Seeded bug: a second release of the same slot.
        adm.raw_release_conn_for_tests();
        assert!(
            adm.conns() == 0,
            "double decrement wrapped the slot count: {}",
            adm.conns()
        );
    });
    assert!(
        report.violation.is_some(),
        "the checker must catch the seeded double decrement"
    );
}
