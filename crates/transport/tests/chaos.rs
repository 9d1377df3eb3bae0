//! The determinism contract of the chaos layer, from outside the crate.

use safereg_common::ids::ServerId;
use safereg_transport::chaos::{Direction, FaultPlan, FaultSpec};

#[test]
fn identical_seeds_reproduce_identical_schedules() {
    // A plan is a pure function of its seed, across every (server,
    // connection, direction) stream.
    let a = FaultPlan::new(0xDEAD_BEEF, FaultSpec::mild());
    let b = FaultPlan::new(0xDEAD_BEEF, FaultSpec::mild());
    for sid in 0..5u16 {
        for conn in 0..4u64 {
            for dir in [Direction::ClientToServer, Direction::ServerToClient] {
                assert_eq!(
                    a.fingerprint(ServerId(sid), conn, dir, 512),
                    b.fingerprint(ServerId(sid), conn, dir, 512)
                );
            }
        }
    }
    let c = FaultPlan::new(0xDEAD_BEF0, FaultSpec::mild());
    assert_ne!(
        a.fingerprint(ServerId(0), 0, Direction::ClientToServer, 512),
        c.fingerprint(ServerId(0), 0, Direction::ClientToServer, 512),
        "a different seed yields a different adversary"
    );
}
