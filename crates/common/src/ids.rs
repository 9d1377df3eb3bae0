//! Process identifiers.
//!
//! The paper's model (§II-A) has three kinds of processes — readers, writers
//! and servers — whose identifiers form a totally ordered set. We keep the
//! three spaces statically distinct with newtypes ([`ReaderId`], [`WriterId`],
//! [`ServerId`]) and provide the unions the protocols need: [`ClientId`]
//! (readers ∪ writers) and [`NodeId`] (clients ∪ servers), both with a total
//! order used for tie-breaking (Lemma 2's "total order on the ids").

use std::fmt;

use crate::codec::{BytesReader, Wire, WireError};

/// Identifier of a server process (a replica holding register state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u16);

/// Identifier of a writer client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WriterId(pub u16);

/// Identifier of a reader client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReaderId(pub u16);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for WriterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

impl fmt::Display for ReaderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A client process: either a writer or a reader (§II-A, "clients").
///
/// The derived order places all readers before all writers; any total order
/// works for tie-breaking, it only has to be agreed upon by every process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ClientId {
    /// A reader client.
    Reader(ReaderId),
    /// A writer client.
    Writer(WriterId),
}

impl ClientId {
    /// Returns the writer id if this client is a writer.
    pub fn as_writer(&self) -> Option<WriterId> {
        match self {
            ClientId::Writer(w) => Some(*w),
            ClientId::Reader(_) => None,
        }
    }

    /// Returns the reader id if this client is a reader.
    pub fn as_reader(&self) -> Option<ReaderId> {
        match self {
            ClientId::Reader(r) => Some(*r),
            ClientId::Writer(_) => None,
        }
    }
}

impl From<ReaderId> for ClientId {
    fn from(r: ReaderId) -> Self {
        ClientId::Reader(r)
    }
}

impl From<WriterId> for ClientId {
    fn from(w: WriterId) -> Self {
        ClientId::Writer(w)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientId::Reader(r) => write!(f, "{r}"),
            ClientId::Writer(w) => write!(f, "{w}"),
        }
    }
}

/// Any process in the system: a client or a server.
///
/// [`NodeId`] is the address space of [`crate::msg::Envelope`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// A client process (reader or writer).
    Client(ClientId),
    /// A server process.
    Server(ServerId),
}

impl NodeId {
    /// Returns the server id if this node is a server.
    pub fn as_server(&self) -> Option<ServerId> {
        match self {
            NodeId::Server(s) => Some(*s),
            NodeId::Client(_) => None,
        }
    }

    /// Returns the client id if this node is a client.
    pub fn as_client(&self) -> Option<ClientId> {
        match self {
            NodeId::Client(c) => Some(*c),
            NodeId::Server(_) => None,
        }
    }
}

impl From<ServerId> for NodeId {
    fn from(s: ServerId) -> Self {
        NodeId::Server(s)
    }
}

impl From<ClientId> for NodeId {
    fn from(c: ClientId) -> Self {
        NodeId::Client(c)
    }
}

impl From<ReaderId> for NodeId {
    fn from(r: ReaderId) -> Self {
        NodeId::Client(ClientId::Reader(r))
    }
}

impl From<WriterId> for NodeId {
    fn from(w: WriterId) -> Self {
        NodeId::Client(ClientId::Writer(w))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Client(c) => write!(f, "{c}"),
            NodeId::Server(s) => write!(f, "{s}"),
        }
    }
}

impl Wire for ServerId {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.0.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(ServerId(u16::decode_borrowed(r)?))
    }
}

impl Wire for WriterId {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.0.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(WriterId(u16::decode_borrowed(r)?))
    }
}

impl Wire for ReaderId {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.0.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(ReaderId(u16::decode_borrowed(r)?))
    }
}

impl Wire for ClientId {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        match self {
            ClientId::Reader(r) => {
                buf.push(0);
                r.encode_to(buf);
            }
            ClientId::Writer(w) => {
                buf.push(1);
                w.encode_to(buf);
            }
        }
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        match u8::decode_borrowed(r)? {
            0 => Ok(ClientId::Reader(ReaderId::decode_borrowed(r)?)),
            1 => Ok(ClientId::Writer(WriterId::decode_borrowed(r)?)),
            t => Err(WireError::BadDiscriminant {
                ty: "ClientId",
                got: t,
            }),
        }
    }
}

impl Wire for NodeId {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        match self {
            NodeId::Client(c) => {
                buf.push(0);
                c.encode_to(buf);
            }
            NodeId::Server(s) => {
                buf.push(1);
                s.encode_to(buf);
            }
        }
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        match u8::decode_borrowed(r)? {
            0 => Ok(NodeId::Client(ClientId::decode_borrowed(r)?)),
            1 => Ok(NodeId::Server(ServerId::decode_borrowed(r)?)),
            t => Err(WireError::BadDiscriminant {
                ty: "NodeId",
                got: t,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact() {
        assert_eq!(ServerId(4).to_string(), "s4");
        assert_eq!(ClientId::Writer(WriterId(2)).to_string(), "w2");
        assert_eq!(
            NodeId::Client(ClientId::Reader(ReaderId(0))).to_string(),
            "r0"
        );
    }

    #[test]
    fn conversion_chain_reaches_node_id() {
        let n: NodeId = WriterId(7).into();
        assert_eq!(n.as_client().and_then(|c| c.as_writer()), Some(WriterId(7)));
        assert_eq!(n.as_server(), None);
    }

    #[test]
    fn client_id_total_order_is_deterministic() {
        let a = ClientId::Reader(ReaderId(9));
        let b = ClientId::Writer(WriterId(0));
        assert!(a < b, "all readers order before all writers");
        assert!(ClientId::Writer(WriterId(1)) < ClientId::Writer(WriterId(2)));
    }

    #[test]
    fn node_ids_roundtrip_on_the_wire() {
        let ids = [
            NodeId::Server(ServerId(65535)),
            NodeId::Client(ClientId::Reader(ReaderId(1))),
            NodeId::Client(ClientId::Writer(WriterId(300))),
        ];
        for id in ids {
            assert_eq!(NodeId::from_bytes(&id.to_bytes()).unwrap(), id);
        }
    }

    #[test]
    fn bad_discriminant_is_reported() {
        assert!(matches!(
            ClientId::from_bytes(&crate::buf::Bytes::from_static(&[9])),
            Err(WireError::BadDiscriminant {
                ty: "ClientId",
                got: 9
            })
        ));
    }
}
