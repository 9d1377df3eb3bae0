//! Protocol message vocabulary.
//!
//! One shared message set serves every protocol in the workspace:
//!
//! * BSR (Fig. 1–3) uses [`ClientToServer::QueryTag`], [`ClientToServer::PutData`]
//!   with a [`Payload::Full`] value, and [`ClientToServer::QueryData`].
//! * BCSR (Fig. 4–6) uses the same messages with [`Payload::Coded`] elements.
//! * The regular-register variants (§III-C) add [`ClientToServer::QueryHistory`]
//!   (BSR-H: "send the entire history of writes") and
//!   [`ClientToServer::QueryValueAt`] (BSR-2P's second phase).
//! * The reliable-broadcast baseline adds the server-to-server
//!   [`PeerMessage`] set (Bracha init/echo/ready) plus reader subscription
//!   messages used by the relay technique of Kanjani et al.
//!
//! Every client operation carries an [`OpId`] that servers echo back, so a
//! client can discard stragglers from superseded operations — mandatory under
//! the asynchronous model where messages may be arbitrarily delayed.

use crate::buf::Bytes;
use crate::codec::{BytesReader, Wire, WireError};
use crate::epoch::EpochConfig;
use crate::ids::{ClientId, NodeId, ServerId};
use crate::tag::Tag;
use crate::value::Value;

/// Identifier of one client operation: the invoking client plus a
/// client-local sequence number.
///
/// At most one operation runs per client at a time (§II-A), so `(client,
/// seq)` uniquely names an operation across the whole execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId {
    /// The invoking client.
    pub client: ClientId,
    /// Client-local operation counter.
    pub seq: u64,
}

impl OpId {
    /// Creates an operation id.
    pub fn new(client: impl Into<ClientId>, seq: u64) -> Self {
        OpId {
            client: client.into(),
            seq,
        }
    }
}

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.client, self.seq)
    }
}

/// One coded element of an `[n, k]` MDS codeword (§IV-A).
///
/// Server `i` stores the element with `index == i`; `value_len` carries the
/// original (unpadded) value length so the decoder can strip the padding the
/// striping layer added.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CodedElement {
    /// Position of this element in the codeword (the server index).
    pub index: u16,
    /// Byte length of the original value before padding.
    pub value_len: u32,
    /// The coded bytes, `⌈value_len / k⌉` of them.
    pub data: Bytes,
}

/// What a write stores at a server: the full value (replication, BSR) or one
/// coded element (erasure coding, BCSR).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Payload {
    /// A complete copy of the value (BSR).
    Full(Value),
    /// One MDS coded element (BCSR).
    Coded(CodedElement),
}

impl Payload {
    /// Returns the full value if this payload is a replica copy.
    pub fn as_full(&self) -> Option<&Value> {
        match self {
            Payload::Full(v) => Some(v),
            Payload::Coded(_) => None,
        }
    }

    /// Returns the coded element if this payload is erasure-coded.
    pub fn as_coded(&self) -> Option<&CodedElement> {
        match self {
            Payload::Coded(c) => Some(c),
            Payload::Full(_) => None,
        }
    }

    /// Number of payload bytes stored/transferred (excluding framing).
    ///
    /// This is the quantity the storage-cost experiment (E4) sums: `1` unit
    /// for a replica versus `1/k` for a coded element.
    pub fn payload_bytes(&self) -> usize {
        match self {
            Payload::Full(v) => v.len(),
            Payload::Coded(c) => c.data.len(),
        }
    }
}

/// Messages from clients to servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientToServer {
    /// `QUERY-TAG` — first phase of a write (Fig. 1 line 2, Fig. 4 line 2).
    QueryTag {
        /// Operation this query belongs to.
        op: OpId,
    },
    /// `PUT-DATA` — second phase of a write (Fig. 1 line 7, Fig. 4 line 7).
    PutData {
        /// Operation this store belongs to.
        op: OpId,
        /// Tag created for this write.
        tag: Tag,
        /// Replica copy or coded element.
        payload: Payload,
    },
    /// `QUERY-DATA` — the one-shot read (Fig. 2 line 3, Fig. 5 line 2).
    QueryData {
        /// Operation this query belongs to.
        op: OpId,
    },
    /// History query used by BSR-H reads (§III-C, first bullet). The
    /// reader passes its local tag so servers can send only the *delta*
    /// (entries with strictly higher tags) — a bandwidth optimization that
    /// preserves the variant's freshness: anything at or below `above` is
    /// already covered by the reader's own monotone local pair.
    QueryHistory {
        /// Operation this query belongs to.
        op: OpId,
        /// Send only entries with tags strictly above this.
        above: Tag,
    },
    /// First phase of a BSR-2P read: "the sever sends a history of all the
    /// tags back to the reader" (§III-C, second bullet) — tags only, so the
    /// phase is cheap.
    QueryTagList {
        /// Operation this query belongs to.
        op: OpId,
    },
    /// Second phase of a BSR-2P read: fetch the value stored under `tag`
    /// (§III-C, second bullet).
    QueryValueAt {
        /// Operation this query belongs to.
        op: OpId,
        /// Tag selected in the first phase.
        tag: Tag,
    },
    /// Subscribing read used by the RB baseline: the server answers now and
    /// keeps pushing newer values until [`ClientToServer::ReadComplete`].
    QueryDataSub {
        /// Operation this subscription belongs to.
        op: OpId,
    },
    /// Ends an RB-baseline subscribing read.
    ReadComplete {
        /// The finished operation.
        op: OpId,
    },
}

impl ClientToServer {
    /// The operation id carried by the message.
    pub fn op(&self) -> OpId {
        match self {
            ClientToServer::QueryTag { op }
            | ClientToServer::PutData { op, .. }
            | ClientToServer::QueryData { op }
            | ClientToServer::QueryHistory { op, .. }
            | ClientToServer::QueryTagList { op }
            | ClientToServer::QueryValueAt { op, .. }
            | ClientToServer::QueryDataSub { op }
            | ClientToServer::ReadComplete { op } => *op,
        }
    }
}

/// Messages from servers to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerToClient {
    /// Reply to `QUERY-TAG`: the maximum tag in the server's list `L`
    /// (Fig. 3 line 3).
    TagResp {
        /// Operation being answered.
        op: OpId,
        /// `max{t : (t, *) ∈ L}`.
        tag: Tag,
    },
    /// Acknowledgement of `PUT-DATA` (Fig. 3 line 7).
    PutAck {
        /// Operation being answered.
        op: OpId,
        /// The tag that was stored (echoed for matching).
        tag: Tag,
    },
    /// Reply to `QUERY-DATA`: the pair with the highest local tag
    /// (Fig. 3 line 9, Fig. 6 line 9).
    DataResp {
        /// Operation being answered.
        op: OpId,
        /// Highest tag in `L`.
        tag: Tag,
        /// The payload stored under that tag.
        payload: Payload,
    },
    /// Reply to a history query: the server's entire list `L` (§III-C).
    HistoryResp {
        /// Operation being answered.
        op: OpId,
        /// All `(tag, payload)` pairs in `L`, ascending by tag.
        entries: Vec<(Tag, Payload)>,
    },
    /// Reply to `QueryTagList`: every tag in the server's list `L`,
    /// ascending (§III-C, second bullet, first phase).
    TagListResp {
        /// Operation being answered.
        op: OpId,
        /// All tags in `L`, ascending.
        tags: Vec<Tag>,
    },
    /// Reply to `QueryValueAt`: the payload stored under the requested tag,
    /// if the server has it.
    ValueAtResp {
        /// Operation being answered.
        op: OpId,
        /// The tag that was requested.
        tag: Tag,
        /// The stored payload, or `None` when the server has no entry for
        /// the tag.
        payload: Option<Payload>,
    },
    /// Redirect: the frame's [`crate::epoch::ConfigStamp`] did not match
    /// the server's current configuration. Carries the server's full view
    /// so the client can refresh its membership and re-issue the op. A
    /// client only *adopts* a redirected config once `f + 1` distinct
    /// servers vouch for the same `(epoch, digest)` — see `crate::epoch`.
    WrongEpoch {
        /// Operation being redirected.
        op: OpId,
        /// The server's current configuration.
        config: EpochConfig,
    },
}

impl ServerToClient {
    /// The operation id carried by the message.
    pub fn op(&self) -> OpId {
        match self {
            ServerToClient::TagResp { op, .. }
            | ServerToClient::PutAck { op, .. }
            | ServerToClient::DataResp { op, .. }
            | ServerToClient::HistoryResp { op, .. }
            | ServerToClient::TagListResp { op, .. }
            | ServerToClient::ValueAtResp { op, .. }
            | ServerToClient::WrongEpoch { op, .. } => *op,
        }
    }
}

/// Identifier of one reliable-broadcast instance.
///
/// The RB baseline runs one Bracha instance per write; `(origin, seq)` is the
/// writer's operation id and uniquely names the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BroadcastId {
    /// The client whose write is being broadcast.
    pub origin: ClientId,
    /// The origin's operation sequence number.
    pub seq: u64,
}

/// Server-to-server messages (used only by the reliable-broadcast baseline —
/// the paper's own protocols never exchange server-to-server messages, which
/// is exactly the restriction its lower bounds exploit; see Remark 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerMessage {
    /// Bracha `ECHO`: "I received the payload of this broadcast".
    RbEcho {
        /// Broadcast instance.
        bid: BroadcastId,
        /// Tag under broadcast.
        tag: Tag,
        /// Value under broadcast.
        payload: Payload,
    },
    /// Bracha `READY`: "enough servers echoed; I am about to deliver".
    RbReady {
        /// Broadcast instance.
        bid: BroadcastId,
        /// Tag under broadcast.
        tag: Tag,
        /// Value under broadcast.
        payload: Payload,
    },
}

/// Any message in the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client → server.
    ToServer(ClientToServer),
    /// Server → client.
    ToClient(ServerToClient),
    /// Server → server (RB baseline only).
    Peer(PeerMessage),
}

impl From<ClientToServer> for Message {
    fn from(m: ClientToServer) -> Self {
        Message::ToServer(m)
    }
}

impl From<ServerToClient> for Message {
    fn from(m: ServerToClient) -> Self {
        Message::ToClient(m)
    }
}

impl From<PeerMessage> for Message {
    fn from(m: PeerMessage) -> Self {
        Message::Peer(m)
    }
}

/// A message in flight between two processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending process.
    pub src: NodeId,
    /// Destination process.
    pub dst: NodeId,
    /// The message itself.
    pub msg: Message,
}

impl Envelope {
    /// Creates an envelope.
    pub fn new(src: impl Into<NodeId>, dst: impl Into<NodeId>, msg: impl Into<Message>) -> Self {
        Envelope {
            src: src.into(),
            dst: dst.into(),
            msg: msg.into(),
        }
    }

    /// Convenience constructor for a client → server envelope.
    pub fn to_server(client: ClientId, server: ServerId, msg: ClientToServer) -> Self {
        Envelope::new(client, server, msg)
    }

    /// Convenience constructor for a server → client envelope.
    pub fn to_client(server: ServerId, client: ClientId, msg: ServerToClient) -> Self {
        Envelope::new(server, client, msg)
    }

    /// Splits the wire encoding into a small owned *head* and an optional
    /// zero-copy payload *tail* such that `head ++ tail` equals
    /// [`Wire::to_bytes`] byte-for-byte.
    ///
    /// The tail, when present, is the raw bytes of the envelope's single
    /// trailing payload field ([`Payload::Full`] value or
    /// [`Payload::Coded`] element data), returned as an O(1) clone of the
    /// payload's own `Bytes` — the payload is never re-copied into the
    /// encoding. Envelopes whose payload is not in trailing position
    /// (history replies, payload-free queries/acks) return the full encoding
    /// as the head and no tail.
    ///
    /// This is the encode-once primitive: the transport seals `(head, tail)`
    /// with a streaming MAC and writes them with one vectored syscall, so a
    /// BCSR writer hands each server a slice of the fragment arena without
    /// the payload ever being memcpy'd after encoding.
    pub fn encode_parts(&self) -> (Vec<u8>, Option<Bytes>) {
        fn payload_head(p: &Payload, buf: &mut Vec<u8>) -> Bytes {
            // Mirrors `Payload::encode_to` up to (and including) the u32
            // length prefix of the trailing data, returning the data itself.
            match p {
                Payload::Full(v) => {
                    buf.push(0);
                    (v.len() as u32).encode_to(buf);
                    v.bytes().clone()
                }
                Payload::Coded(c) => {
                    buf.push(1);
                    c.index.encode_to(buf);
                    c.value_len.encode_to(buf);
                    (c.data.len() as u32).encode_to(buf);
                    c.data.clone()
                }
            }
        }

        let mut head = Vec::with_capacity(64);
        self.src.encode_to(&mut head);
        self.dst.encode_to(&mut head);
        let tail = match &self.msg {
            Message::ToServer(ClientToServer::PutData { op, tag, payload }) => {
                head.push(0); // Message::ToServer
                head.push(1); // ClientToServer::PutData
                op.encode_to(&mut head);
                tag.encode_to(&mut head);
                Some(payload_head(payload, &mut head))
            }
            Message::ToClient(ServerToClient::DataResp { op, tag, payload }) => {
                head.push(1); // Message::ToClient
                head.push(2); // ServerToClient::DataResp
                op.encode_to(&mut head);
                tag.encode_to(&mut head);
                Some(payload_head(payload, &mut head))
            }
            Message::ToClient(ServerToClient::ValueAtResp {
                op,
                tag,
                payload: Some(p),
            }) => {
                head.push(1); // Message::ToClient
                head.push(4); // ServerToClient::ValueAtResp
                op.encode_to(&mut head);
                tag.encode_to(&mut head);
                head.push(1); // Option::Some
                Some(payload_head(p, &mut head))
            }
            Message::Peer(PeerMessage::RbEcho { bid, tag, payload }) => {
                head.push(2); // Message::Peer
                head.push(0); // PeerMessage::RbEcho
                bid.encode_to(&mut head);
                tag.encode_to(&mut head);
                Some(payload_head(payload, &mut head))
            }
            Message::Peer(PeerMessage::RbReady { bid, tag, payload }) => {
                head.push(2); // Message::Peer
                head.push(1); // PeerMessage::RbReady
                bid.encode_to(&mut head);
                tag.encode_to(&mut head);
                Some(payload_head(payload, &mut head))
            }
            _ => {
                self.msg.encode_to(&mut head);
                None
            }
        };
        (head, tail)
    }
}

// ---------------------------------------------------------------------------
// Wire encodings
// ---------------------------------------------------------------------------

impl Wire for OpId {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.client.encode_to(buf);
        self.seq.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(OpId {
            client: ClientId::decode_borrowed(r)?,
            seq: u64::decode_borrowed(r)?,
        })
    }
}

impl Wire for CodedElement {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.index.encode_to(buf);
        self.value_len.encode_to(buf);
        self.data.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(CodedElement {
            index: u16::decode_borrowed(r)?,
            value_len: u32::decode_borrowed(r)?,
            data: Bytes::decode_borrowed(r)?,
        })
    }
}

impl Wire for Payload {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        match self {
            Payload::Full(v) => {
                buf.push(0);
                v.encode_to(buf);
            }
            Payload::Coded(c) => {
                buf.push(1);
                c.encode_to(buf);
            }
        }
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        match u8::decode_borrowed(r)? {
            0 => Ok(Payload::Full(Value::decode_borrowed(r)?)),
            1 => Ok(Payload::Coded(CodedElement::decode_borrowed(r)?)),
            t => Err(WireError::BadDiscriminant {
                ty: "Payload",
                got: t,
            }),
        }
    }
}

impl Wire for ClientToServer {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        match self {
            ClientToServer::QueryTag { op } => {
                buf.push(0);
                op.encode_to(buf);
            }
            ClientToServer::PutData { op, tag, payload } => {
                buf.push(1);
                op.encode_to(buf);
                tag.encode_to(buf);
                payload.encode_to(buf);
            }
            ClientToServer::QueryData { op } => {
                buf.push(2);
                op.encode_to(buf);
            }
            ClientToServer::QueryHistory { op, above } => {
                buf.push(3);
                op.encode_to(buf);
                above.encode_to(buf);
            }
            ClientToServer::QueryValueAt { op, tag } => {
                buf.push(4);
                op.encode_to(buf);
                tag.encode_to(buf);
            }
            ClientToServer::QueryDataSub { op } => {
                buf.push(5);
                op.encode_to(buf);
            }
            ClientToServer::ReadComplete { op } => {
                buf.push(6);
                op.encode_to(buf);
            }
            ClientToServer::QueryTagList { op } => {
                buf.push(7);
                op.encode_to(buf);
            }
        }
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode_borrowed(r)? {
            0 => ClientToServer::QueryTag {
                op: OpId::decode_borrowed(r)?,
            },
            1 => ClientToServer::PutData {
                op: OpId::decode_borrowed(r)?,
                tag: Tag::decode_borrowed(r)?,
                payload: Payload::decode_borrowed(r)?,
            },
            2 => ClientToServer::QueryData {
                op: OpId::decode_borrowed(r)?,
            },
            3 => ClientToServer::QueryHistory {
                op: OpId::decode_borrowed(r)?,
                above: Tag::decode_borrowed(r)?,
            },
            4 => ClientToServer::QueryValueAt {
                op: OpId::decode_borrowed(r)?,
                tag: Tag::decode_borrowed(r)?,
            },
            5 => ClientToServer::QueryDataSub {
                op: OpId::decode_borrowed(r)?,
            },
            6 => ClientToServer::ReadComplete {
                op: OpId::decode_borrowed(r)?,
            },
            7 => ClientToServer::QueryTagList {
                op: OpId::decode_borrowed(r)?,
            },
            t => {
                return Err(WireError::BadDiscriminant {
                    ty: "ClientToServer",
                    got: t,
                })
            }
        })
    }
}

impl Wire for ServerToClient {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        match self {
            ServerToClient::TagResp { op, tag } => {
                buf.push(0);
                op.encode_to(buf);
                tag.encode_to(buf);
            }
            ServerToClient::PutAck { op, tag } => {
                buf.push(1);
                op.encode_to(buf);
                tag.encode_to(buf);
            }
            ServerToClient::DataResp { op, tag, payload } => {
                buf.push(2);
                op.encode_to(buf);
                tag.encode_to(buf);
                payload.encode_to(buf);
            }
            ServerToClient::HistoryResp { op, entries } => {
                buf.push(3);
                op.encode_to(buf);
                entries.encode_to(buf);
            }
            ServerToClient::ValueAtResp { op, tag, payload } => {
                buf.push(4);
                op.encode_to(buf);
                tag.encode_to(buf);
                payload.encode_to(buf);
            }
            ServerToClient::TagListResp { op, tags } => {
                buf.push(5);
                op.encode_to(buf);
                tags.encode_to(buf);
            }
            ServerToClient::WrongEpoch { op, config } => {
                buf.push(6);
                op.encode_to(buf);
                config.encode_to(buf);
            }
        }
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode_borrowed(r)? {
            0 => ServerToClient::TagResp {
                op: OpId::decode_borrowed(r)?,
                tag: Tag::decode_borrowed(r)?,
            },
            1 => ServerToClient::PutAck {
                op: OpId::decode_borrowed(r)?,
                tag: Tag::decode_borrowed(r)?,
            },
            2 => ServerToClient::DataResp {
                op: OpId::decode_borrowed(r)?,
                tag: Tag::decode_borrowed(r)?,
                payload: Payload::decode_borrowed(r)?,
            },
            3 => ServerToClient::HistoryResp {
                op: OpId::decode_borrowed(r)?,
                entries: Vec::<(Tag, Payload)>::decode_borrowed(r)?,
            },
            4 => ServerToClient::ValueAtResp {
                op: OpId::decode_borrowed(r)?,
                tag: Tag::decode_borrowed(r)?,
                payload: Option::<Payload>::decode_borrowed(r)?,
            },
            5 => ServerToClient::TagListResp {
                op: OpId::decode_borrowed(r)?,
                tags: Vec::<Tag>::decode_borrowed(r)?,
            },
            6 => ServerToClient::WrongEpoch {
                op: OpId::decode_borrowed(r)?,
                config: EpochConfig::decode_borrowed(r)?,
            },
            t => {
                return Err(WireError::BadDiscriminant {
                    ty: "ServerToClient",
                    got: t,
                })
            }
        })
    }
}

impl Wire for BroadcastId {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.origin.encode_to(buf);
        self.seq.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(BroadcastId {
            origin: ClientId::decode_borrowed(r)?,
            seq: u64::decode_borrowed(r)?,
        })
    }
}

impl Wire for PeerMessage {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        match self {
            PeerMessage::RbEcho { bid, tag, payload } => {
                buf.push(0);
                bid.encode_to(buf);
                tag.encode_to(buf);
                payload.encode_to(buf);
            }
            PeerMessage::RbReady { bid, tag, payload } => {
                buf.push(1);
                bid.encode_to(buf);
                tag.encode_to(buf);
                payload.encode_to(buf);
            }
        }
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        let disc = u8::decode_borrowed(r)?;
        let bid = BroadcastId::decode_borrowed(r)?;
        let tag = Tag::decode_borrowed(r)?;
        let payload = Payload::decode_borrowed(r)?;
        match disc {
            0 => Ok(PeerMessage::RbEcho { bid, tag, payload }),
            1 => Ok(PeerMessage::RbReady { bid, tag, payload }),
            t => Err(WireError::BadDiscriminant {
                ty: "PeerMessage",
                got: t,
            }),
        }
    }
}

impl Wire for Message {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        match self {
            Message::ToServer(m) => {
                buf.push(0);
                m.encode_to(buf);
            }
            Message::ToClient(m) => {
                buf.push(1);
                m.encode_to(buf);
            }
            Message::Peer(m) => {
                buf.push(2);
                m.encode_to(buf);
            }
        }
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode_borrowed(r)? {
            0 => Message::ToServer(ClientToServer::decode_borrowed(r)?),
            1 => Message::ToClient(ServerToClient::decode_borrowed(r)?),
            2 => Message::Peer(PeerMessage::decode_borrowed(r)?),
            t => {
                return Err(WireError::BadDiscriminant {
                    ty: "Message",
                    got: t,
                })
            }
        })
    }
}

impl Wire for Envelope {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.src.encode_to(buf);
        self.dst.encode_to(buf);
        self.msg.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(Envelope {
            src: NodeId::decode_borrowed(r)?,
            dst: NodeId::decode_borrowed(r)?,
            msg: Message::decode_borrowed(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ReaderId, WriterId};

    fn sample_op() -> OpId {
        OpId::new(WriterId(1), 42)
    }

    #[test]
    fn op_id_is_echoed_by_accessors() {
        let op = sample_op();
        let msgs = [
            ClientToServer::QueryTag { op },
            ClientToServer::PutData {
                op,
                tag: Tag::ZERO,
                payload: Payload::Full(Value::from("x")),
            },
            ClientToServer::QueryData { op },
            ClientToServer::QueryHistory {
                op,
                above: Tag::ZERO,
            },
            ClientToServer::QueryTagList { op },
            ClientToServer::QueryValueAt { op, tag: Tag::ZERO },
            ClientToServer::QueryDataSub { op },
            ClientToServer::ReadComplete { op },
        ];
        for m in msgs {
            assert_eq!(m.op(), op);
        }
    }

    #[test]
    fn every_client_message_roundtrips() {
        let op = sample_op();
        let tag = Tag::new(3, WriterId(2));
        let payload = Payload::Coded(CodedElement {
            index: 4,
            value_len: 100,
            data: Bytes::from_static(b"coded"),
        });
        let msgs = vec![
            ClientToServer::QueryTag { op },
            ClientToServer::PutData {
                op,
                tag,
                payload: payload.clone(),
            },
            ClientToServer::QueryData { op },
            ClientToServer::QueryHistory {
                op,
                above: Tag::ZERO,
            },
            ClientToServer::QueryTagList { op },
            ClientToServer::QueryValueAt { op, tag },
            ClientToServer::QueryDataSub { op },
            ClientToServer::ReadComplete { op },
        ];
        for m in msgs {
            let buf = m.to_bytes();
            assert_eq!(ClientToServer::from_bytes(&buf).unwrap(), m);
        }
    }

    #[test]
    fn every_server_message_roundtrips() {
        let op = OpId::new(ReaderId(0), 7);
        let tag = Tag::new(9, WriterId(1));
        let full = Payload::Full(Value::from("abc"));
        let msgs = vec![
            ServerToClient::TagResp { op, tag },
            ServerToClient::PutAck { op, tag },
            ServerToClient::DataResp {
                op,
                tag,
                payload: full.clone(),
            },
            ServerToClient::HistoryResp {
                op,
                entries: vec![(Tag::ZERO, full.clone()), (tag, full.clone())],
            },
            ServerToClient::TagListResp {
                op,
                tags: vec![Tag::ZERO, tag],
            },
            ServerToClient::ValueAtResp {
                op,
                tag,
                payload: Some(full.clone()),
            },
            ServerToClient::ValueAtResp {
                op,
                tag,
                payload: None,
            },
        ];
        for m in msgs {
            let buf = m.to_bytes();
            assert_eq!(ServerToClient::from_bytes(&buf).unwrap(), m);
            assert_eq!(m.op(), op);
        }
    }

    #[test]
    fn peer_and_envelope_roundtrip() {
        let bid = BroadcastId {
            origin: ClientId::Writer(WriterId(3)),
            seq: 1,
        };
        let tag = Tag::new(1, WriterId(3));
        let payload = Payload::Full(Value::from("rb"));
        for m in [
            PeerMessage::RbEcho {
                bid,
                tag,
                payload: payload.clone(),
            },
            PeerMessage::RbReady {
                bid,
                tag,
                payload: payload.clone(),
            },
        ] {
            let env = Envelope::new(ServerId(0), ServerId(1), m);
            let buf = env.to_bytes();
            assert_eq!(Envelope::from_bytes(&buf).unwrap(), env);
        }
    }

    #[test]
    fn encode_parts_concatenation_matches_full_encoding() {
        let op = sample_op();
        let tag = Tag::new(3, WriterId(2));
        let value = Value::from(vec![0xAB; 64]);
        let coded = Payload::Coded(CodedElement {
            index: 4,
            value_len: 100,
            data: Bytes::from(vec![0xCD; 25]),
        });
        let envs = vec![
            // Tail-bearing shapes.
            Envelope::new(
                WriterId(1),
                ServerId(0),
                ClientToServer::PutData {
                    op,
                    tag,
                    payload: Payload::Full(value.clone()),
                },
            ),
            Envelope::new(
                WriterId(1),
                ServerId(0),
                ClientToServer::PutData {
                    op,
                    tag,
                    payload: coded.clone(),
                },
            ),
            Envelope::new(
                ServerId(0),
                ReaderId(0),
                ServerToClient::DataResp {
                    op,
                    tag,
                    payload: Payload::Full(value.clone()),
                },
            ),
            Envelope::new(
                ServerId(0),
                ReaderId(0),
                ServerToClient::ValueAtResp {
                    op,
                    tag,
                    payload: Some(coded.clone()),
                },
            ),
            Envelope::new(
                ServerId(0),
                ServerId(1),
                PeerMessage::RbEcho {
                    bid: BroadcastId {
                        origin: ClientId::Writer(WriterId(3)),
                        seq: 1,
                    },
                    tag,
                    payload: Payload::Full(value.clone()),
                },
            ),
            // Headless shapes (no trailing payload).
            Envelope::new(WriterId(1), ServerId(0), ClientToServer::QueryTag { op }),
            Envelope::new(
                ServerId(0),
                ReaderId(0),
                ServerToClient::ValueAtResp {
                    op,
                    tag,
                    payload: None,
                },
            ),
            Envelope::new(
                ServerId(0),
                ReaderId(0),
                ServerToClient::HistoryResp {
                    op,
                    entries: vec![(tag, coded.clone())],
                },
            ),
        ];
        for env in envs {
            let full = env.to_bytes();
            let (head, tail) = env.encode_parts();
            let mut joined = head;
            if let Some(t) = &tail {
                joined.extend_from_slice(t);
            }
            assert_eq!(joined, full.to_vec(), "parts must concat to {env:?}");
        }

        // The tail is the payload's own allocation, not a copy.
        let env = Envelope::new(
            WriterId(1),
            ServerId(0),
            ClientToServer::PutData {
                op,
                tag,
                payload: Payload::Full(value.clone()),
            },
        );
        let (_, tail) = env.encode_parts();
        assert_eq!(
            tail.unwrap().as_ref().as_ptr(),
            value.as_bytes().as_ptr(),
            "tail must alias the value's buffer"
        );
    }

    #[test]
    fn payload_bytes_reflect_storage_cost() {
        assert_eq!(
            Payload::Full(Value::from(vec![0u8; 100])).payload_bytes(),
            100
        );
        let coded = Payload::Coded(CodedElement {
            index: 0,
            value_len: 100,
            data: Bytes::from(vec![0u8; 25]),
        });
        assert_eq!(coded.payload_bytes(), 25);
        assert!(coded.as_coded().is_some());
        assert!(coded.as_full().is_none());
    }

    #[test]
    fn corrupted_discriminants_fail_to_decode() {
        let mut buf = ClientToServer::QueryData { op: sample_op() }
            .to_bytes()
            .to_vec();
        buf[0] = 250;
        assert!(matches!(
            ClientToServer::from_bytes(&Bytes::from(buf)),
            Err(WireError::BadDiscriminant {
                ty: "ClientToServer",
                got: 250
            })
        ));
    }
}
