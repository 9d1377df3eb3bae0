//! Property-based tests for Bracha reliable broadcast: agreement and
//! totality under random delivery orders, random initial receiver sets and
//! a silent Byzantine server.
//!
//! The suite enumerates every `(receiver set, silent server)`
//! combination — the discrete space is only 16 × 5 points — under
//! [`DetRng`]-chosen delivery orders.

use std::collections::BTreeMap;

use safereg_common::config::QuorumConfig;
use safereg_common::ids::{ClientId, ServerId, WriterId};
use safereg_common::msg::{BroadcastId, Envelope, Message, Payload};
use safereg_common::rng::DetRng;
use safereg_common::tag::Tag;
use safereg_common::value::Value;
use safereg_rb::bracha::Bracha;

/// Runs a full RB exchange with randomized delivery order.
/// Returns which servers delivered what.
fn run_randomized(
    cfg: QuorumConfig,
    initial_receivers: &[u16],
    silent: Option<u16>,
    order_seed: u64,
) -> BTreeMap<ServerId, (Tag, Payload)> {
    let mut rng = DetRng::seed_from(order_seed);
    let mut layers: BTreeMap<ServerId, Bracha> =
        cfg.servers().map(|s| (s, Bracha::new(s, cfg))).collect();
    let bid = BroadcastId {
        origin: ClientId::Writer(WriterId(0)),
        seq: 1,
    };
    let item = (
        Tag::new(1, WriterId(0)),
        Payload::Full(Value::from("rb payload")),
    );

    let mut queue: Vec<Envelope> = Vec::new();
    let mut delivered = BTreeMap::new();
    for r in initial_receivers {
        if Some(*r) == silent {
            continue; // a silent server swallows its broadcast receipt too
        }
        let step = layers
            .get_mut(&ServerId(*r))
            .unwrap()
            .on_broadcast(bid, item.0, item.1.clone());
        queue.extend(step.outgoing);
    }
    let mut guard = 0;
    while !queue.is_empty() {
        guard += 1;
        assert!(guard < 100_000, "runaway broadcast");
        let idx = rng.index(queue.len());
        let env = queue.swap_remove(idx);
        let src = env.src.as_server().unwrap();
        if Some(src.0) == silent {
            continue; // messages from the silent server are never sent
        }
        let dst = env.dst.as_server().unwrap();
        if Some(dst.0) == silent {
            continue; // and it ignores its inputs
        }
        if let Message::Peer(m) = &env.msg {
            let step = layers.get_mut(&dst).unwrap().on_peer(src, m);
            queue.extend(step.outgoing);
            if let Some((b, t, p)) = step.delivered {
                assert_eq!(b, bid);
                delivered.insert(dst, (t, p));
            }
        }
    }
    delivered
}

#[test]
fn agreement_and_totality_hold_under_any_order() {
    let mut rng = DetRng::seed_from(0xB2_AC4A);
    // Exhaust the discrete adversary choices; randomize only the order.
    for receiver_mask in 0u8..16 {
        for silent_pick in [None, Some(0u16), Some(1), Some(2), Some(3)] {
            for _ in 0..3 {
                let order = rng.next_u64();
                let cfg = QuorumConfig::minimal_rb(1).unwrap(); // n = 4, f = 1
                let receivers: Vec<u16> = (0..4u16)
                    .filter(|i| receiver_mask & (1 << i) != 0)
                    .collect();
                let delivered = run_randomized(cfg, &receivers, silent_pick, order);

                // Agreement: every deliverer delivered the same item.
                let mut items: Vec<&(Tag, Payload)> = delivered.values().collect();
                items.dedup();
                assert!(items.len() <= 1, "two different items delivered");

                // Totality (all-or-none): if any *correct* server delivered,
                // every correct server delivered.
                let correct: Vec<ServerId> =
                    cfg.servers().filter(|s| Some(s.0) != silent_pick).collect();
                let correct_deliverers =
                    correct.iter().filter(|s| delivered.contains_key(s)).count();
                assert!(
                    correct_deliverers == 0 || correct_deliverers == correct.len(),
                    "partial delivery: {}/{} correct servers",
                    correct_deliverers,
                    correct.len()
                );

                // Validity: if the writer's payload reached every correct
                // server and nobody is silent, everyone delivers.
                if silent_pick.is_none() && receivers.len() == 4 {
                    assert_eq!(delivered.len(), 4);
                }
            }
        }
    }
}
