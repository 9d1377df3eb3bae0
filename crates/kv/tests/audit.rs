//! Accountability integration tests: the audit log must never convict a
//! correct replica — no matter how badly the wire mangles its frames —
//! and the evidence it files against a real Byzantine replica must
//! survive a serialize → decode → re-verify round trip, exactly as a
//! third party holding only the deployment seed would check it.
//!
//! Both properties are judged through the per-log API
//! ([`AuditLog::convictions`], [`AuditLog::evidence`]), not the global
//! metric counters: integration tests share one process-wide registry,
//! so counter deltas from parallel tests would bleed into each other.

use std::time::Duration;

use safereg_common::codec::Wire;
use safereg_common::config::{BackoffPolicy, QuorumConfig, TransportConfig};
use safereg_common::ids::{ReaderId, ServerId, WriterId};
use safereg_core::behavior::ByzRole;
use safereg_kv::{Evidence, KvClient, KvMode, TcpKvCluster, Verdict};
use safereg_transport::chaos::{FaultPlan, FaultSpec};

/// Retries per logical operation; chaos faults individual frames, so a
/// handful of fresh attempts heals everything short of a partition.
const OP_RETRIES: usize = 8;

/// Transport policy matching the audit harness: short io timeout so
/// dropped frames cost little, one in-op retry to re-ask silent servers.
fn chaos_transport() -> TransportConfig {
    TransportConfig {
        connect_timeout: Duration::from_millis(250),
        io_timeout: Duration::from_millis(50),
        retry_budget: 1,
        backoff: BackoffPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            jitter_permille: 200,
        },
        ..TransportConfig::aggressive()
    }
}

/// A wire that drops, delays, corrupts and truncates frames — but no
/// replica lies. MAC failures and silence must stay suspicion, never
/// conviction.
fn lossy_spec() -> FaultSpec {
    FaultSpec {
        kill_permille: 0,
        truncate_permille: 10,
        corrupt_permille: 40,
        drop_permille: 25,
        delay_permille: 25,
        delay_micros: (50, 500),
        classes: None,
    }
}

/// Correct replicas under heavy wire chaos are never convicted, across
/// several fault schedules: corruption forges nothing (the HMAC link
/// fails closed into suspicion) and drops prove nothing.
#[test]
fn correct_replicas_never_convicted_under_chaos() {
    let q = QuorumConfig::minimal_bsr(1).unwrap();
    for seed in [21u64, 22, 23] {
        let cluster = TcpKvCluster::builder(KvMode::Replicated, b"audit-it-chaos")
            .quorum(q)
            .config(chaos_transport())
            .chaos(FaultPlan::new(seed, lossy_spec()))
            .start()
            .unwrap();
        let audit = cluster.audit_log();
        audit.register_writers([WriterId(1)]);
        audit.expect_correct(q.servers());

        let mut transport = cluster.transport_with(chaos_transport());
        transport.set_audit(audit.clone());
        let mut client = KvClient::new(q, WriterId(1), ReaderId(1));
        client.set_policy(chaos_transport());

        for i in 0..16u32 {
            let key = format!("chaos-{}", i % 2);
            let value = format!("v{seed}:{i}");
            for attempt in 0..OP_RETRIES {
                match client.put(&mut transport, key.as_bytes(), value.clone().into_bytes()) {
                    Ok(_) => break,
                    Err(_) if attempt + 1 < OP_RETRIES => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => {}
                }
            }
            for attempt in 0..OP_RETRIES {
                match client.get(&mut transport, key.as_bytes()) {
                    Ok(_) => break,
                    Err(_) if attempt + 1 < OP_RETRIES => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => {}
                }
            }
        }

        assert!(
            audit.convictions().is_empty(),
            "seed {seed}: chaos alone convicted a correct replica: {:?}",
            audit.convictions()
        );
        for s in q.servers() {
            assert_ne!(
                audit.verdict(s),
                Verdict::Convicted(s),
                "seed {seed}: correct s{} convicted",
                s.0
            );
        }
        assert!(
            audit.reverify().is_empty(),
            "seed {seed}: a filed record failed offline re-verification"
        );
    }
}

/// Evidence filed against a live Fabricator survives the full offline
/// round trip: encode to wire bytes, decode as a third party, re-verify
/// from the deployment seed and writer set alone — and a tampered copy
/// accusing a correct replica verifies as nothing.
#[test]
fn evidence_survives_serialization_roundtrip() {
    let q = QuorumConfig::minimal_bsr(1).unwrap();
    let fabricator = ServerId(3);
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"audit-it-roundtrip")
        .quorum(q)
        .start()
        .unwrap();
    let audit = cluster.audit_log();
    audit.register_writers([WriterId(1)]);
    audit.expect_correct(q.servers().filter(|s| *s != fabricator));

    for g in cluster.map().shards_of_server(fabricator) {
        assert!(
            cluster.set_shard_role(fabricator, g, ByzRole::Fabricator, 0xFAB5EED),
            "fabricator must serve its placed shard"
        );
    }

    let mut transport = cluster.transport();
    transport.set_audit(audit.clone());
    let mut client = KvClient::new(q, WriterId(1), ReaderId(1));

    // The fabricator forges tags under an unregistered writer id, so one
    // read that happens to consult it is enough; loop until convicted.
    for i in 0..40u32 {
        let _ = client.put(&mut transport, b"rt-key", format!("v{i}").into_bytes());
        let _ = client.get(&mut transport, b"rt-key");
        if !audit.convictions().is_empty() {
            break;
        }
    }
    assert_eq!(
        audit
            .convictions()
            .iter()
            .map(|(s, _)| *s)
            .collect::<Vec<_>>(),
        vec![fabricator],
        "exactly the fabricator must be convicted"
    );

    let evidence = audit.evidence();
    assert!(!evidence.is_empty(), "conviction must have filed evidence");
    let writers = audit.registered_writers();
    for e in &evidence {
        let bytes = e.to_bytes();
        let decoded = Evidence::from_bytes(&bytes).expect("evidence decodes");
        assert_eq!(&decoded, e, "evidence must round-trip bit-exactly");
        for cut in 0..bytes.len() {
            assert!(
                Evidence::from_bytes(&bytes.slice(..cut)).is_err(),
                "a {cut}-byte prefix of evidence must not decode"
            );
        }
        assert!(
            decoded.verify(cluster.chain(), &writers),
            "decoded evidence must still convict s{}",
            decoded.accused.0
        );

        // Tampering: the same links cannot be re-aimed at a correct
        // replica — the chain MAC binds each link to its minter.
        let mut framed = decoded.clone();
        framed.accused = ServerId(0);
        assert!(
            !framed.verify(cluster.chain(), &writers),
            "re-aimed evidence must not verify"
        );
    }
    assert!(
        audit.reverify().is_empty(),
        "every filed record must re-verify offline"
    );
}
