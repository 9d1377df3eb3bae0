//! The benchmark surface, pinned at compile time.
//!
//! `benchmark/` is a separate package that links against a fixed set of
//! public items (ROADMAP "R1"). This file names every one of them at its
//! exact signature, mostly as fn-pointer coercions, so renaming, re-typing
//! or deleting any of them fails the root `cargo test` instead of only the
//! benchmark's build. A dummy transport that defines only
//! [`KvTransport::exchange`] proves the trait gained no required method,
//! and one test drives a `KvClient` put/get through it.

// Spelling each signature out in full is the point of this file.
#![allow(clippy::type_complexity)]

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

use safereg_common::buf::Bytes;
use safereg_common::codec::{Wire, WireError};
use safereg_common::config::{QuorumConfig, TransportConfig};
use safereg_common::epoch::{ConfigStamp, EpochConfig};
use safereg_common::ids::{ClientId, NodeId, ReaderId, ServerId, WriterId};
use safereg_common::msg::{ClientToServer, CodedElement, Envelope, ServerToClient};
use safereg_common::shard::{ShardId, ShardMap, ShardMapError};
use safereg_common::tag::Tag;
use safereg_common::trace::TraceCtx;
use safereg_common::value::Value;
use safereg_crypto::chain::ChainLink;
use safereg_crypto::sha256::DIGEST_LEN;
use safereg_crypto::{AuthCodec, AuthError, HmacSha256, Key, KeyChain, Sha256};
use safereg_kv::{
    encode_request, ClusterBuilder, InMemKvCluster, KvClient, KvError, KvMode, KvServer,
    KvTransport, TcpKvCluster, TcpKvTransport, Unreachable,
};
use safereg_mds::stripe::{decode_elements, encode_value, ElementView};
use safereg_mds::{gf256, MdsError, ReedSolomon};
use safereg_obs::{names, Counter, Histogram, Registry};
use safereg_transport::chaos::{ChaosProxy, FaultPlan, FaultSpec};

/// A transport that defines only the one required method and hands each
/// message straight to an in-process replica.
struct Direct(BTreeMap<ServerId, KvServer>);

impl KvTransport for Direct {
    fn exchange(
        &mut self,
        from: ClientId,
        to: ServerId,
        shard: ShardId,
        key: &[u8],
        msg: &ClientToServer,
        _trace: TraceCtx,
    ) -> Result<Vec<ServerToClient>, Unreachable> {
        let server = self.0.get(&to).ok_or(Unreachable { server: to })?;
        Ok(server.handle(from, shard, key, msg))
    }
}

/// The bound the benchmark puts on the transports it drives.
fn op_transport<T: KvTransport + Send>() {}

#[test]
fn every_benchmark_item_keeps_its_signature() {
    // safereg_kv
    let _: fn(
        &mut Direct,
        ClientId,
        ServerId,
        ShardId,
        &[u8],
        &ClientToServer,
        TraceCtx,
    ) -> Result<Vec<ServerToClient>, Unreachable> = <Direct as KvTransport>::exchange;
    let _: fn(&mut Direct, &EpochConfig) = <Direct as KvTransport>::reconfigure;
    let _: fn(&mut Direct, ServerId) = <Direct as KvTransport>::suspect;
    op_transport::<TcpKvTransport>();
    op_transport::<InMemKvCluster>();
    let _: fn(ShardMap, WriterId, ReaderId) -> KvClient = KvClient::sharded;
    let _: fn(ShardMap, WriterId, ReaderId) -> KvClient = KvClient::sharded_coded;
    let _: fn(&mut KvClient, &mut Direct, &[u8], Value) -> Result<Tag, KvError> = KvClient::put;
    let _: fn(&mut KvClient, &mut Direct, &[u8]) -> Result<Value, KvError> = KvClient::get;
    let _: fn(KvMode, &[u8]) -> ClusterBuilder = TcpKvCluster::builder;
    let _: fn(&TcpKvCluster) -> &KeyChain = TcpKvCluster::chain;
    let _: fn(&TcpKvCluster) -> BTreeMap<ServerId, SocketAddr> = TcpKvCluster::addrs;
    let _: fn(ClusterBuilder, ShardMap) -> ClusterBuilder = ClusterBuilder::shards;
    let _: fn(ClusterBuilder) -> std::io::Result<TcpKvCluster> = ClusterBuilder::start;
    let _: fn(&BTreeMap<ServerId, SocketAddr>, KeyChain, TransportConfig) -> TcpKvTransport =
        TcpKvTransport::connect_with;
    let _: fn(ShardMap, KvMode) -> InMemKvCluster = InMemKvCluster::new_sharded;
    let _: fn(ServerId, QuorumConfig) -> KvServer = KvServer::new;
    let _: fn(&KvServer, ClientId, ShardId, &[u8], &ClientToServer) -> Vec<ServerToClient> =
        KvServer::handle;
    let _: fn(&KvServer, &[u8], &ServerToClient) -> Option<ChainLink> = KvServer::attest;
    let _: fn(&KvServer, &KeyChain) = KvServer::enable_audit;
    let _: fn(
        &KeyChain,
        ConfigStamp,
        ClientId,
        ServerId,
        ShardId,
        &[u8],
        &ClientToServer,
    ) -> Vec<u8> = encode_request;
    let _ = Unreachable {
        server: ServerId(0),
    };
    let _ = [KvMode::Replicated, KvMode::Coded];

    // safereg_crypto
    let _: fn(&[u8]) -> KeyChain = KeyChain::from_master_seed;
    let _: fn(&KeyChain, NodeId, NodeId) -> Key = KeyChain::pair_key;
    let _: fn(Key) -> AuthCodec = AuthCodec::new;
    let _: fn(&AuthCodec, &[u8]) -> Vec<u8> = AuthCodec::seal;
    let _: for<'a> fn(&AuthCodec, &'a [u8]) -> Result<&'a [u8], AuthError> = AuthCodec::open;
    let _: fn(&AuthCodec, &[&[u8]]) -> [u8; DIGEST_LEN] = AuthCodec::mac_of_parts;
    let _: fn(&[u8], &[u8]) -> [u8; DIGEST_LEN] = HmacSha256::mac;
    let _: fn(&[u8]) -> [u8; DIGEST_LEN] = Sha256::digest;

    // safereg_mds
    let _: fn(u8, u8) -> u8 = gf256::mul;
    let _: fn(usize, usize) -> Result<ReedSolomon, MdsError> = ReedSolomon::new;
    let _: fn(&ReedSolomon, &[u8]) -> Vec<u8> = ReedSolomon::encode;
    let _: fn(&ReedSolomon, &[Option<u8>]) -> Result<Vec<u8>, MdsError> = ReedSolomon::decode;
    let _: fn(&ReedSolomon, &Value) -> Vec<CodedElement> = encode_value;
    let _: fn(&ReedSolomon, usize, &[ElementView<'_>]) -> Result<Value, MdsError> = decode_elements;
    fn view_of<'a>() -> fn(&'a CodedElement) -> ElementView<'a> {
        ElementView::of
    }
    let _ = view_of();

    // safereg_common
    let _: fn(QuorumConfig) -> ShardMap = ShardMap::single;
    let _: fn(u64, u16, Vec<ServerId>, QuorumConfig) -> Result<ShardMap, ShardMapError> =
        ShardMap::new;
    let _: fn(&ShardMap, &[u8]) -> ShardId = ShardMap::shard_of;
    let _: fn(ClientId, ServerId, ClientToServer) -> Envelope = Envelope::to_server;
    let _: fn(&Envelope) -> (Vec<u8>, Option<Bytes>) = Envelope::encode_parts;
    let _: fn(&Envelope) -> Bytes = <Envelope as Wire>::to_bytes;
    let _: fn(&Bytes) -> Result<Envelope, WireError> = <Envelope as Wire>::from_bytes;
    let _: fn(&EpochConfig) -> ConfigStamp = EpochConfig::stamp;
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let _: ConfigStamp = EpochConfig::genesis(cfg.servers()).stamp();
    let _: fn() -> u64 = safereg_common::codec::payload_bytes_copied;

    // safereg_transport::chaos
    let _: fn(ServerId, SocketAddr, FaultPlan) -> std::io::Result<ChaosProxy> = ChaosProxy::spawn;
    let _: fn(&ChaosProxy) -> SocketAddr = ChaosProxy::addr;
    let _: fn(u64, FaultSpec) -> FaultPlan = FaultPlan::new;
    let _: fn() -> FaultSpec = FaultSpec::calm;

    // safereg_obs
    let _: fn() -> &'static Registry = safereg_obs::global;
    let _: fn(&Registry, &str) -> Arc<Counter> = Registry::counter;
    let _: fn(&Registry, &str) -> Arc<Histogram> = Registry::histogram;
    let _: fn(u16, &str) -> String = names::shard_reads_counter;
    let _: [&str; 5] = [
        names::TRANSPORT_BATCH_FRAMES,
        names::KV_RECONNECTS,
        names::KV_EXCHANGE_UNREACHABLE,
        names::REACTOR_WAKEUPS,
        names::REACTOR_EVENTS,
    ];
}

#[test]
fn kv_client_runs_through_an_exchange_only_transport() {
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let mut transport = Direct(cfg.servers().map(|s| (s, KvServer::new(s, cfg))).collect());
    let mut client = KvClient::sharded(ShardMap::single(cfg), WriterId(0), ReaderId(0));
    client
        .put(&mut transport, b"key", Value::from("value"))
        .unwrap();
    assert_eq!(
        client.get(&mut transport, b"key").unwrap(),
        Value::from("value")
    );
}
