//! BCSR's one-shot erasure-coded read (Fig. 5).
//!
//! The reader queries all servers, waits for `n − f` responses carrying
//! `(tag, coded element)` pairs, and attempts to decode. Concretely
//! (DESIGN.md "BCSR reader decoding"):
//!
//! 1. Group responses by tag and pick the **plurality tag** `t*` (ties to
//!    the higher tag). After a complete write that is not concurrent with
//!    the read, `t*` is that write's tag: it has `≥ n − 3f` witnesses among
//!    the `n − f` responses, strictly more than everything else combined.
//! 2. Require `t*` to have `≥ f + 1` witnesses (Lemma 5: fewer witnesses
//!    would let the `f` Byzantine servers fabricate a value).
//! 3. Mark non-`t*` responses and missing servers as **erasures** (their
//!    positions are known) and decode; Byzantine elements that carry `t*`
//!    with corrupted bytes are **errors** the RS decoder corrects. The
//!    worst case is `f` missing + `2f` stale + `f` corrupted:
//!    `2·f + (f + 2f) = 5f ≤ n − k`.
//! 4. Demand `≥ f + 1` received elements match the decoded value's
//!    codeword exactly, so at least one correct server vouches for it. The
//!    decoder already verified that codeword against the elements, so it
//!    returns it rather than the reader encoding the value again. Any
//!    failure returns `v_0` (Fig. 5 line 4, "if possible; otherwise return
//!    `v_0`").

use std::collections::BTreeMap;

use safereg_common::config::QuorumConfig;
use safereg_common::ids::{ClientId, ReaderId, ServerId};
use safereg_common::msg::{ClientToServer, CodedElement, Envelope, OpId, Payload, ServerToClient};
use safereg_common::tag::Tag;
use safereg_common::value::Value;
use safereg_mds::rs::ReedSolomon;
use safereg_mds::stripe::{column_count, decode_verified, ElementView};

use crate::op::{ClientOp, OpOutput, ReadPath};

/// How the reader treats elements whose tag differs from the decode
/// candidate.
///
/// The default, [`CodedReadStrategy::ErasureMarking`], is what DESIGN.md
/// describes: known-position mismatches become erasures, doubling the
/// tolerable staleness. [`CodedReadStrategy::BlindDecode`] feeds every
/// element to the decoder and relies on error correction alone — ablation
/// A3 measures how much earlier it starts failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodedReadStrategy {
    /// Mark mismatched-tag elements as erasures (default).
    #[default]
    ErasureMarking,
    /// Feed all elements and let error correction cope (A3).
    BlindDecode,
}

/// One BCSR read operation (Fig. 5).
#[derive(Debug)]
pub struct BcsrReadOp {
    reader: ReaderId,
    op: OpId,
    cfg: QuorumConfig,
    code: ReedSolomon,
    /// First response per server.
    responses: BTreeMap<ServerId, (Tag, CodedElement)>,
    result: Option<OpOutput>,
    path: Option<ReadPath>,
    rounds: u32,
    strategy: CodedReadStrategy,
}

impl BcsrReadOp {
    /// Creates a coded read.
    ///
    /// # Panics
    ///
    /// Panics when `code.n() != cfg.n()` — a deployment wiring bug.
    pub fn new(reader: ReaderId, seq: u64, cfg: QuorumConfig, code: ReedSolomon) -> Self {
        assert_eq!(code.n(), cfg.n(), "code length must equal the server count");
        BcsrReadOp {
            reader,
            op: OpId::new(reader, seq),
            cfg,
            code,
            responses: BTreeMap::new(),
            result: None,
            path: None,
            rounds: 0,
            strategy: CodedReadStrategy::default(),
        }
    }

    /// Overrides the decode strategy (ablation A3 only).
    #[must_use]
    pub fn with_strategy(mut self, strategy: CodedReadStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    fn conclude(&mut self) {
        // Fast iff the decode pipeline produced a verified value (Fig. 5
        // line 4 "if possible"); the v_0 fallback is the slow outcome.
        self.result = Some(match self.try_decode() {
            Some((tag, value)) => {
                self.path = Some(ReadPath::Fast);
                OpOutput::Read { value, tag }
            }
            None => {
                self.path = Some(ReadPath::Slow);
                OpOutput::Read {
                    value: Value::initial(),
                    tag: Tag::ZERO,
                }
            }
        });
    }

    fn try_decode(&self) -> Option<(Tag, Value)> {
        // Step 1: plurality tag, ties to the higher tag. BTreeMap iteration
        // is ascending, `max_by_key` keeps the last maximum, so ties
        // resolve to the higher tag.
        let mut by_tag: BTreeMap<Tag, Vec<(ServerId, &CodedElement)>> = BTreeMap::new();
        for (sid, (tag, elem)) in &self.responses {
            by_tag.entry(*tag).or_default().push((*sid, elem));
        }
        let (t_star, claimers) = by_tag.iter().max_by_key(|(_, v)| v.len())?;
        if *t_star == Tag::ZERO {
            // The initial value needs no decoding.
            if claimers.len() >= self.cfg.witness_threshold() {
                return Some((Tag::ZERO, Value::initial()));
            }
            return None;
        }

        // Step 2: witness threshold.
        if claimers.len() < self.cfg.witness_threshold() {
            return None;
        }

        // The claimed value length may itself be Byzantine; try each
        // distinct claim by how many servers make it.
        let mut len_votes: BTreeMap<u32, usize> = BTreeMap::new();
        for (_, e) in claimers {
            *len_votes.entry(e.value_len).or_insert(0) += 1;
        }
        let mut lens: Vec<u32> = len_votes.keys().copied().collect();
        lens.sort_by_key(|l| std::cmp::Reverse(len_votes[l]));

        for value_len in lens {
            if let Some(value) = self.try_decode_len(claimers, value_len as usize) {
                return Some((*t_star, value));
            }
        }
        None
    }

    fn try_decode_len(
        &self,
        claimers: &[(ServerId, &CodedElement)],
        value_len: usize,
    ) -> Option<Value> {
        let cols = column_count(value_len, self.code.k());
        // Step 3: elements from t*-claimers at their own server position;
        // everything else is an erasure. An element whose claimed index
        // differs from the responding server, or whose length is wrong,
        // is discarded (degrades to an erasure). Under the BlindDecode
        // ablation, *every* response is fed in and mismatched tags become
        // errors the decoder must correct.
        let views: Vec<ElementView<'_>> = match self.strategy {
            CodedReadStrategy::ErasureMarking => claimers
                .iter()
                .filter(|(sid, e)| e.index as usize == sid.0 as usize && e.data.len() == cols)
                .map(|(_, e)| ElementView::of(e))
                .collect(),
            CodedReadStrategy::BlindDecode => self
                .responses
                .iter()
                .filter(|(sid, (_, e))| e.index as usize == sid.0 as usize && e.data.len() == cols)
                .map(|(_, (_, e))| ElementView::of(e))
                .collect(),
        };
        let decoded = decode_verified(&self.code, value_len, &views).ok()?;

        // Step 4: at least f + 1 received elements must match the decoded
        // codeword exactly, so one correct server vouches for it.
        let matching = claimers
            .iter()
            .filter(|(sid, e)| {
                let i = sid.0 as usize;
                e.index as usize == i
                    && decoded
                        .elements
                        .get(i)
                        .is_some_and(|r| r.data == e.data && r.value_len == e.value_len)
            })
            .count();
        (matching >= self.cfg.witness_threshold()).then_some(decoded.value)
    }
}

impl ClientOp for BcsrReadOp {
    fn op_id(&self) -> OpId {
        self.op
    }

    fn start(&mut self) -> Vec<Envelope> {
        self.rounds = 1;
        self.cfg
            .servers()
            .map(|sid| {
                Envelope::to_server(
                    ClientId::Reader(self.reader),
                    sid,
                    ClientToServer::QueryData { op: self.op },
                )
            })
            .collect()
    }

    fn on_message(&mut self, from: ServerId, msg: &ServerToClient) -> Vec<Envelope> {
        if self.result.is_some() || msg.op() != self.op {
            return Vec::new();
        }
        if let ServerToClient::DataResp {
            tag,
            payload: Payload::Coded(elem),
            ..
        } = msg
        {
            self.responses
                .entry(from)
                .or_insert_with(|| (*tag, elem.clone()));
            if self.responses.len() >= self.cfg.response_quorum() {
                self.conclude();
            }
        }
        Vec::new()
    }

    fn output(&self) -> Option<OpOutput> {
        self.result.clone()
    }

    fn rounds(&self) -> u32 {
        self.rounds
    }

    fn is_write(&self) -> bool {
        false
    }

    fn read_path(&self) -> Option<ReadPath> {
        self.path
    }

    fn validation_failures(&self) -> u32 {
        u32::from(self.path == Some(ReadPath::Slow))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safereg_common::ids::WriterId;
    use safereg_mds::stripe::encode_value;

    fn setup() -> (QuorumConfig, ReedSolomon) {
        let cfg = QuorumConfig::minimal_bcsr(1).unwrap(); // n = 6, f = 1, k = 1
        let code = ReedSolomon::new(6, 1).unwrap();
        (cfg, code)
    }

    fn data(op: OpId, tag: Tag, elem: CodedElement) -> ServerToClient {
        ServerToClient::DataResp {
            op,
            tag,
            payload: Payload::Coded(elem),
        }
    }

    #[test]
    fn decodes_fresh_value_from_clean_quorum() {
        let (cfg, code) = setup();
        let v = Value::from("coded value");
        let elems = encode_value(&code, &v);
        let tag = Tag::new(1, WriterId(0));
        let mut op = BcsrReadOp::new(ReaderId(0), 1, cfg, code);
        assert_eq!(op.start().len(), 6);
        let id = op.op_id();
        for i in 0..5u16 {
            op.on_message(ServerId(i), &data(id, tag, elems[i as usize].clone()));
        }
        let out = op.output().unwrap();
        assert_eq!(out.tag(), tag);
        assert_eq!(out.read_value().unwrap(), &v);
        assert_eq!(op.rounds(), 1, "one-shot read");
        assert_eq!(op.read_path(), Some(ReadPath::Fast));
        assert_eq!(op.validation_failures(), 0);
    }

    #[test]
    fn tolerates_stale_and_corrupt_elements() {
        let (cfg, code) = setup();
        let fresh = Value::from("fresh!");
        let stale = Value::from("stale.");
        let fresh_e = encode_value(&code, &fresh);
        let stale_e = encode_value(&code, &stale);
        let t_new = Tag::new(2, WriterId(0));
        let t_old = Tag::new(1, WriterId(0));

        let mut op = BcsrReadOp::new(ReaderId(0), 1, cfg, code);
        op.start();
        let id = op.op_id();
        // Server 5 never replies (erasure). Server 0 is stale. Server 1 is
        // Byzantine: claims t_new but corrupt bytes (an RS "error").
        op.on_message(ServerId(0), &data(id, t_old, stale_e[0].clone()));
        let mut corrupt = fresh_e[1].clone();
        corrupt.data = safereg_common::buf::Bytes::from(vec![0xEE; corrupt.data.len()]);
        op.on_message(ServerId(1), &data(id, t_new, corrupt));
        for i in 2..5u16 {
            op.on_message(ServerId(i), &data(id, t_new, fresh_e[i as usize].clone()));
        }
        let out = op.output().unwrap();
        assert_eq!(out.read_value().unwrap(), &fresh);
        assert_eq!(out.tag(), t_new);
    }

    #[test]
    fn falls_back_to_v0_when_no_plurality_can_decode() {
        let (cfg, code) = setup();
        let mut op = BcsrReadOp::new(ReaderId(0), 1, cfg, code.clone());
        op.start();
        let id = op.op_id();
        // Five servers report five different tags, each with garbage of a
        // different length: nothing has f + 1 = 2 witnesses.
        for i in 0..5u16 {
            let elem = CodedElement {
                index: i,
                value_len: 10 + i as u32,
                data: safereg_common::buf::Bytes::from(vec![i as u8; 10 + i as usize]),
            };
            op.on_message(
                ServerId(i),
                &data(id, Tag::new(1 + i as u64, WriterId(i)), elem),
            );
        }
        let out = op.output().unwrap();
        assert!(out.read_value().unwrap().is_initial());
        assert_eq!(out.tag(), Tag::ZERO);
        assert_eq!(op.read_path(), Some(ReadPath::Slow), "v_0 fallback");
        assert_eq!(op.validation_failures(), 1);
    }

    #[test]
    fn initial_state_returns_v0() {
        let (cfg, code) = setup();
        let v0_elems = encode_value(&code, &Value::initial());
        let mut op = BcsrReadOp::new(ReaderId(0), 1, cfg, code);
        op.start();
        let id = op.op_id();
        for i in 0..5u16 {
            op.on_message(
                ServerId(i),
                &data(id, Tag::ZERO, v0_elems[i as usize].clone()),
            );
        }
        let out = op.output().unwrap();
        assert!(out.read_value().unwrap().is_initial());
        assert_eq!(
            op.read_path(),
            Some(ReadPath::Fast),
            "a witnessed Tag::ZERO quorum is a verified v_0, not a fallback"
        );
    }

    #[test]
    fn byzantine_cannot_fabricate_a_value_alone() {
        // f servers fabricate a plausible tag+codeword; with only f = 1
        // witness the plurality tag check or witness threshold rejects it.
        let (cfg, code) = setup();
        let honest = Value::from("honest");
        let honest_e = encode_value(&code, &honest);
        let t_real = Tag::new(1, WriterId(0));
        let forged = Value::from("FORGED");
        let forged_e = encode_value(&code, &forged);
        let t_fake = Tag::new(99, WriterId(9));

        let mut op = BcsrReadOp::new(ReaderId(0), 1, cfg, code);
        op.start();
        let id = op.op_id();
        op.on_message(ServerId(0), &data(id, t_fake, forged_e[0].clone()));
        for i in 1..5u16 {
            op.on_message(ServerId(i), &data(id, t_real, honest_e[i as usize].clone()));
        }
        let out = op.output().unwrap();
        assert_eq!(out.read_value().unwrap(), &honest);
    }

    #[test]
    fn wrong_index_claims_degrade_to_erasures() {
        let (cfg, code) = setup();
        let v = Value::from("indexed");
        let elems = encode_value(&code, &v);
        let tag = Tag::new(1, WriterId(0));
        let mut op = BcsrReadOp::new(ReaderId(0), 1, cfg, code);
        op.start();
        let id = op.op_id();
        // Server 0 replays server 3's element (index mismatch).
        op.on_message(ServerId(0), &data(id, tag, elems[3].clone()));
        for i in 1..5u16 {
            op.on_message(ServerId(i), &data(id, tag, elems[i as usize].clone()));
        }
        let out = op.output().unwrap();
        assert_eq!(out.read_value().unwrap(), &v);
    }

    #[test]
    fn byzantine_value_len_lie_does_not_block_decoding() {
        // A Byzantine claimer reports the right tag but a wrong value_len;
        // the reader tries length claims by popularity and still decodes.
        let (cfg, code) = setup();
        let v = Value::from("length-lied value");
        let elems = encode_value(&code, &v);
        let tag = Tag::new(1, WriterId(0));
        let mut op = BcsrReadOp::new(ReaderId(0), 1, cfg, code);
        op.start();
        let id = op.op_id();
        let mut liar = elems[0].clone();
        liar.value_len = 9999;
        op.on_message(ServerId(0), &data(id, tag, liar));
        for i in 1..5u16 {
            op.on_message(ServerId(i), &data(id, tag, elems[i as usize].clone()));
        }
        let out = op.output().unwrap();
        assert_eq!(out.read_value().unwrap(), &v);
    }

    #[test]
    fn full_payload_responses_are_ignored() {
        let (cfg, code) = setup();
        let mut op = BcsrReadOp::new(ReaderId(0), 1, cfg, code.clone());
        op.start();
        let id = op.op_id();
        let full = ServerToClient::DataResp {
            op: id,
            tag: Tag::new(1, WriterId(0)),
            payload: Payload::Full(Value::from("not coded")),
        };
        op.on_message(ServerId(0), &full);
        assert!(op.output().is_none());
        let v0_elems = encode_value(&code, &Value::initial());
        for i in 0..5u16 {
            op.on_message(
                ServerId(i),
                &data(id, Tag::ZERO, v0_elems[i as usize].clone()),
            );
        }
        assert!(op.output().is_some());
    }
}
