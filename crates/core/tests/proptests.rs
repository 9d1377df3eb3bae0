//! Property-based tests for the protocol state machines.
//!
//! These drive operations directly against server nodes with randomized
//! response orderings, response subsets and interleavings — the degrees of
//! freedom the asynchronous network has — and assert the protocol-level
//! postconditions.
//!
//! The suite derives every degree of freedom from the deterministic
//! [`DetRng`] (reproducible from the seeds below, shrinking-free).

use safereg_common::config::QuorumConfig;
use safereg_common::ids::{ClientId, ReaderId, ServerId, WriterId};
use safereg_common::msg::{ClientToServer, Envelope, Message, OpId, Payload, ServerToClient};
use safereg_common::rng::DetRng;
use safereg_common::tag::Tag;
use safereg_common::value::Value;
use safereg_core::client::{BsrReader, BsrWriter};
use safereg_core::op::ClientOp;
use safereg_core::server::ServerNode;

/// Drives an op against the servers, delivering messages in an order
/// chosen by `order_seed`, with servers in `silent` never responding.
fn drive(op: &mut dyn ClientOp, servers: &mut [ServerNode], silent: &[usize], order_seed: u64) {
    let mut rng = DetRng::seed_from(order_seed);
    let mut queue: Vec<Envelope> = op.start();
    let mut guard = 0;
    while !queue.is_empty() {
        guard += 1;
        assert!(guard < 10_000, "runaway exchange");
        let idx = rng.index(queue.len());
        let env = queue.swap_remove(idx);
        match (&env.dst, &env.msg) {
            (dst, Message::ToServer(m)) => {
                let sid = dst.as_server().unwrap();
                if silent.contains(&(sid.0 as usize)) {
                    continue;
                }
                let from = env.src.as_client().unwrap();
                for resp in servers[sid.0 as usize].handle(from, m) {
                    queue.push(Envelope::to_client(sid, from, resp));
                }
            }
            (_, Message::ToClient(m)) => {
                let sid = env.src.as_server().unwrap();
                queue.extend(op.on_message(sid, m));
            }
            _ => unreachable!("core protocols exchange only client/server messages"),
        }
    }
}

fn cluster(cfg: QuorumConfig) -> Vec<ServerNode> {
    cfg.servers()
        .map(|sid| ServerNode::new_replicated(sid, cfg))
        .collect()
}

#[test]
fn write_completes_and_increments_under_any_order() {
    let mut rng = DetRng::seed_from(0x0B5E_0001);
    for _ in 0..64 {
        let order = rng.next_u64();
        let f = 1 + rng.index(2);
        let cfg = QuorumConfig::minimal_bsr(f).unwrap();
        let mut servers = cluster(cfg);
        let silent = [rng.index(cfg.n())];

        let mut writer = BsrWriter::new(WriterId(0), cfg);
        let mut op1 = writer.write(Value::from("first"));
        drive(&mut op1, &mut servers, &silent, order);
        let t1 = op1.output().expect("write 1 completes").tag();
        assert_eq!(t1, Tag::new(1, WriterId(0)));

        let mut op2 = writer.write(Value::from("second"));
        drive(&mut op2, &mut servers, &silent, order.wrapping_add(1));
        let t2 = op2.output().expect("write 2 completes").tag();
        assert_eq!(t2, Tag::new(2, WriterId(0)));
    }
}

#[test]
fn read_after_write_returns_it_under_any_order() {
    let mut rng = DetRng::seed_from(0x0B5E_0002);
    for _ in 0..64 {
        let order = rng.next_u64();
        let f = 1 + rng.index(2);
        let cfg = QuorumConfig::minimal_bsr(f).unwrap();
        let mut servers = cluster(cfg);
        // Different silent server per phase: the adversary may crash-stop
        // any single server, and reads must still find f + 1 witnesses.
        let silent_w = [rng.index(cfg.n())];
        let silent_r = [rng.index(cfg.n())];

        let mut writer = BsrWriter::new(WriterId(1), cfg);
        let mut w = writer.write(Value::from("durable"));
        drive(&mut w, &mut servers, &silent_w, order);
        assert!(w.output().is_some());

        let mut reader = BsrReader::new(ReaderId(0), cfg);
        let mut r = reader.read();
        drive(&mut r, &mut servers, &silent_r, order.wrapping_add(7));
        let out = r.output().expect("read completes");
        assert_eq!(out.read_value().unwrap().as_bytes(), b"durable");
        assert_eq!(out.tag(), Tag::new(1, WriterId(1)));
    }
}

#[test]
fn concurrent_writers_get_distinct_increasing_tags() {
    let mut rng = DetRng::seed_from(0x0B5E_0003);
    for _ in 0..64 {
        let order = rng.next_u64();
        let writer_count = 2 + rng.index(3);
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut servers = cluster(cfg);
        let mut tags = Vec::new();
        // Writers run one after another here (sequential interleaving is
        // one legal schedule); tags must strictly increase across writers.
        for w in 0..writer_count {
            let mut writer = BsrWriter::new(WriterId(w as u16), cfg);
            let mut op = writer.write(Value::from(format!("v{w}").into_bytes()));
            drive(&mut op, &mut servers, &[], order.wrapping_add(w as u64));
            tags.push(op.output().unwrap().tag());
        }
        for pair in tags.windows(2) {
            assert!(pair[1] > pair[0], "tags must grow: {tags:?}");
        }
    }
}

#[test]
fn server_log_is_monotone_in_max_tag() {
    let mut rng = DetRng::seed_from(0x0B5E_0004);
    for _ in 0..64 {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut server = ServerNode::new_replicated(ServerId(0), cfg);
        let mut max_seen = Tag::ZERO;
        let puts = 1 + rng.index(29);
        for i in 0..puts {
            let num = 1 + rng.range_u64(0..19);
            let writer = rng.index(4) as u16;
            let byte = rng.next_u64() as u8;
            let tag = Tag::new(num, WriterId(writer));
            server.handle(
                ClientId::Writer(WriterId(writer)),
                &ClientToServer::PutData {
                    op: OpId::new(WriterId(writer), i as u64),
                    tag,
                    payload: Payload::Full(Value::from(vec![byte])),
                },
            );
            max_seen = max_seen.max(tag);
            assert_eq!(server.max_tag(), max_seen);
        }
    }
}

#[test]
fn reader_never_returns_unwitnessed_data() {
    let mut rng = DetRng::seed_from(0x0B5E_0005);
    for _ in 0..64 {
        // Feed arbitrary (server, tag, value) responses; whatever the read
        // returns must either be the local pair or have had f + 1 distinct
        // servers vouching for the exact (tag, value).
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut reader = BsrReader::new(ReaderId(0), cfg);
        let mut op = reader.read();
        op.start();
        let id = op.op_id();
        // The op counts only the first response per server while the
        // operation is still running; mirror that exactly.
        let mut first: std::collections::BTreeMap<u16, (Tag, Vec<u8>)> =
            std::collections::BTreeMap::new();
        let responses = 4 + rng.index(8);
        for _ in 0..responses {
            let sid = rng.index(5) as u16;
            let num = rng.range_u64(0..4);
            let byte = rng.next_u64() as u8;
            let tag = Tag::new(num, WriterId(0));
            let value = vec![byte];
            if op.output().is_none() {
                first.entry(sid).or_insert_with(|| (tag, value.clone()));
            }
            op.on_message(
                ServerId(sid),
                &ServerToClient::DataResp {
                    op: id,
                    tag,
                    payload: Payload::Full(Value::from(value)),
                },
            );
        }
        if let Some(out) = op.output() {
            let v = out.read_value().unwrap();
            if !v.is_initial() {
                let key = (out.tag(), v.as_bytes().to_vec());
                let witnesses = first
                    .values()
                    .filter(|(t, val)| *t == key.0 && *val == key.1)
                    .count();
                assert!(
                    witnesses >= cfg.witness_threshold(),
                    "returned {key:?} with only {witnesses} witnesses"
                );
            }
        }
    }
}
