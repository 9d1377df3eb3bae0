//! Wire-message classification and the wall-clock timestamp domain.
//!
//! [`MsgClass`] labels every wire message type for per-class counters;
//! [`wall_micros`] is the clock the TCP stack stamps spans with (the
//! simulator uses virtual ticks instead, so its span streams replay
//! byte-identically — see [`crate::span::SpanLog`]).

use safereg_common::msg::{ClientToServer, Message, PeerMessage, ServerToClient};

/// Fine-grained message classification: one label per wire message type,
/// used for per-type send/receive counters (`*.sent.<class>` and
/// friends). Coarser than matching on payload contents, finer than the
/// simulator's scheduling-oriented `MsgKind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgClass {
    /// `QUERY-TAG` (write phase one).
    QueryTag,
    /// `PUT-DATA` (write phase two).
    PutData,
    /// `QUERY-DATA` (BSR/BCSR one-shot read).
    QueryData,
    /// BSR-H delta-history query.
    QueryHistory,
    /// BSR-2P phase-one tag-list query.
    QueryTagList,
    /// BSR-2P phase-two value fetch.
    QueryValueAt,
    /// RB-baseline subscribing read.
    QueryDataSub,
    /// RB-baseline read completion notice.
    ReadComplete,
    /// Reply to `QUERY-TAG`.
    TagResp,
    /// `PUT-DATA` acknowledgement.
    PutAck,
    /// Reply to `QUERY-DATA`.
    DataResp,
    /// Reply to a history query.
    HistoryResp,
    /// Reply to a tag-list query.
    TagListResp,
    /// Reply to a value fetch.
    ValueAtResp,
    /// Epoch redirect: the frame's config stamp was stale.
    WrongEpoch,
    /// Bracha `ECHO` (RB baseline, server-to-server).
    RbEcho,
    /// Bracha `READY` (RB baseline, server-to-server).
    RbReady,
}

impl MsgClass {
    /// Every class, in declaration order — for consumers that pre-register
    /// per-class metric series so dumps keep one schema across runs.
    pub const ALL: [MsgClass; 17] = [
        MsgClass::QueryTag,
        MsgClass::PutData,
        MsgClass::QueryData,
        MsgClass::QueryHistory,
        MsgClass::QueryTagList,
        MsgClass::QueryValueAt,
        MsgClass::QueryDataSub,
        MsgClass::ReadComplete,
        MsgClass::TagResp,
        MsgClass::PutAck,
        MsgClass::DataResp,
        MsgClass::HistoryResp,
        MsgClass::TagListResp,
        MsgClass::ValueAtResp,
        MsgClass::WrongEpoch,
        MsgClass::RbEcho,
        MsgClass::RbReady,
    ];

    /// Classifies any wire message.
    pub fn of(msg: &Message) -> MsgClass {
        match msg {
            Message::ToServer(m) => match m {
                ClientToServer::QueryTag { .. } => MsgClass::QueryTag,
                ClientToServer::PutData { .. } => MsgClass::PutData,
                ClientToServer::QueryData { .. } => MsgClass::QueryData,
                ClientToServer::QueryHistory { .. } => MsgClass::QueryHistory,
                ClientToServer::QueryTagList { .. } => MsgClass::QueryTagList,
                ClientToServer::QueryValueAt { .. } => MsgClass::QueryValueAt,
                ClientToServer::QueryDataSub { .. } => MsgClass::QueryDataSub,
                ClientToServer::ReadComplete { .. } => MsgClass::ReadComplete,
            },
            Message::ToClient(m) => match m {
                ServerToClient::TagResp { .. } => MsgClass::TagResp,
                ServerToClient::PutAck { .. } => MsgClass::PutAck,
                ServerToClient::DataResp { .. } => MsgClass::DataResp,
                ServerToClient::HistoryResp { .. } => MsgClass::HistoryResp,
                ServerToClient::TagListResp { .. } => MsgClass::TagListResp,
                ServerToClient::ValueAtResp { .. } => MsgClass::ValueAtResp,
                ServerToClient::WrongEpoch { .. } => MsgClass::WrongEpoch,
            },
            Message::Peer(p) => match p {
                PeerMessage::RbEcho { .. } => MsgClass::RbEcho,
                PeerMessage::RbReady { .. } => MsgClass::RbReady,
            },
        }
    }

    /// Stable snake-case label used in metric names.
    pub fn as_str(&self) -> &'static str {
        match self {
            MsgClass::QueryTag => "query_tag",
            MsgClass::PutData => "put_data",
            MsgClass::QueryData => "query_data",
            MsgClass::QueryHistory => "query_history",
            MsgClass::QueryTagList => "query_tag_list",
            MsgClass::QueryValueAt => "query_value_at",
            MsgClass::QueryDataSub => "query_data_sub",
            MsgClass::ReadComplete => "read_complete",
            MsgClass::TagResp => "tag_resp",
            MsgClass::PutAck => "put_ack",
            MsgClass::DataResp => "data_resp",
            MsgClass::HistoryResp => "history_resp",
            MsgClass::TagListResp => "tag_list_resp",
            MsgClass::ValueAtResp => "value_at_resp",
            MsgClass::WrongEpoch => "wrong_epoch",
            MsgClass::RbEcho => "rb_echo",
            MsgClass::RbReady => "rb_ready",
        }
    }
}

impl std::fmt::Display for MsgClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Microseconds since the Unix epoch — the timestamp domain the TCP
/// stack stamps spans with.
pub fn wall_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safereg_common::ids::{ClientId, WriterId};
    use safereg_common::msg::{OpId, Payload};
    use safereg_common::tag::Tag;
    use safereg_common::value::Value;

    #[test]
    fn msg_class_covers_every_wire_shape() {
        let op = OpId::new(WriterId(0), 1);
        let cases: Vec<(Message, MsgClass, &str)> = vec![
            (
                ClientToServer::QueryTag { op }.into(),
                MsgClass::QueryTag,
                "query_tag",
            ),
            (
                ClientToServer::PutData {
                    op,
                    tag: Tag::ZERO,
                    payload: Payload::Full(Value::from("v")),
                }
                .into(),
                MsgClass::PutData,
                "put_data",
            ),
            (
                ClientToServer::QueryHistory {
                    op,
                    above: Tag::ZERO,
                }
                .into(),
                MsgClass::QueryHistory,
                "query_history",
            ),
            (
                ServerToClient::PutAck { op, tag: Tag::ZERO }.into(),
                MsgClass::PutAck,
                "put_ack",
            ),
            (
                PeerMessage::RbEcho {
                    bid: safereg_common::msg::BroadcastId {
                        origin: ClientId::Writer(WriterId(0)),
                        seq: 1,
                    },
                    tag: Tag::ZERO,
                    payload: Payload::Full(Value::from("v")),
                }
                .into(),
                MsgClass::RbEcho,
                "rb_echo",
            ),
        ];
        for (msg, class, label) in cases {
            assert_eq!(MsgClass::of(&msg), class);
            assert_eq!(class.as_str(), label);
        }
    }
}
