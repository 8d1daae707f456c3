//! Binary spill codec for telemetry events and metrics snapshots.
//!
//! The out-of-core semester pipeline writes each shard's telemetry
//! buffer and metrics snapshot into its on-disk run file (the "aux"
//! block) and streams them back during the merge for `replay_owned`
//! restamping and metrics aggregation. This module is the wire format
//! for that block.
//!
//! # Event rows are (nearly) fixed-width
//!
//! Interned [`Sym`] names and `&'static str` attribute keys mean an
//! event row is a handful of fixed-width scalars — a `u32` symbol id
//! instead of a length-prefixed name, a `u32` symbol id per attribute
//! key (keys are `&'static str` by construction, so interning them via
//! [`crate::intern::intern_static`] leaks nothing). Only dynamic
//! [`AttrValue::Str`] payloads are length-prefixed; those are *not*
//! interned on decode because their value space (instance names) is
//! unbounded, unlike the closed key/name vocabulary.
//!
//! # Sequence numbers are not spilled
//!
//! `replay_owned` restamps `seq` on the merging handle, so the spilled
//! value would be dead weight; the decoder materializes events with
//! `seq: 0` and the replay path assigns the authoritative stamps. All
//! other fields round-trip exactly (floats by bit pattern), which the
//! spill arms of `tests/spill_differential.rs` pin end to end.
//!
//! # Corruption is an error, never a panic
//!
//! Every decoder returns `io::Result`: truncation is `UnexpectedEof`,
//! an unknown tag or out-of-table symbol id is `InvalidData`. The
//! streaming semester drivers are DL008 panic-freedom roots, so this
//! property is lint-enforced transitively.

use crate::event::{Attr, AttrValue, EventPhase, TelemetryEvent};
use crate::intern::{intern_static, Sym};
use crate::metrics::{MetricsSnapshot, SimTimeHistogram};
use opml_simkernel::{binio, SimTime};
use std::collections::BTreeMap;
use std::io::{self, Read};

/// Bound on any length-prefixed string in the aux block (metric names,
/// dynamic attribute values). Far above anything the simulator emits;
/// a corrupt length prefix past this is `InvalidData`, not an attempted
/// huge allocation.
const MAX_STR_LEN: u32 = 1 << 16;

/// Bound on per-event attribute count and per-histogram bucket count.
const MAX_SEQ_LEN: u32 = 1 << 16;

const PHASE_BEGIN: u8 = 0;
const PHASE_END: u8 = 1;
const PHASE_INSTANT: u8 = 2;

const VAL_U64: u8 = 0;
const VAL_I64: u8 = 1;
const VAL_F64: u8 = 2;
const VAL_BOOL: u8 = 3;
const VAL_STR: u8 = 4;
const VAL_STATIC: u8 = 5;

fn bad(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

fn sym_from_wire(id: u32) -> io::Result<Sym> {
    Sym::from_id(id).ok_or_else(|| bad(format!("symbol id {id} not in interner table")))
}

/// Encode one event (everything except `seq`; see module docs).
pub fn encode_event(ev: &TelemetryEvent, out: &mut Vec<u8>) {
    binio::put_u64(out, ev.time.0);
    binio::put_u8(
        out,
        match ev.phase {
            EventPhase::Begin => PHASE_BEGIN,
            EventPhase::End => PHASE_END,
            EventPhase::Instant => PHASE_INSTANT,
        },
    );
    binio::put_u32(out, ev.name.id());
    binio::put_u32(out, ev.attrs.len() as u32);
    for (key, value) in &ev.attrs {
        binio::put_u32(out, intern_static(key).id());
        match value {
            AttrValue::U64(v) => {
                binio::put_u8(out, VAL_U64);
                binio::put_u64(out, *v);
            }
            AttrValue::I64(v) => {
                binio::put_u8(out, VAL_I64);
                binio::put_u64(out, *v as u64);
            }
            AttrValue::F64(v) => {
                binio::put_u8(out, VAL_F64);
                binio::put_f64(out, *v);
            }
            AttrValue::Bool(v) => {
                binio::put_u8(out, VAL_BOOL);
                binio::put_u8(out, u8::from(*v));
            }
            AttrValue::Str(s) => {
                binio::put_u8(out, VAL_STR);
                binio::put_str(out, s);
            }
            AttrValue::Static(s) => {
                binio::put_u8(out, VAL_STATIC);
                binio::put_u32(out, intern_static(s).id());
            }
        }
    }
}

/// Decode one event written by [`encode_event`]. `seq` comes back as 0
/// (replay restamps it).
pub fn decode_event(r: &mut impl Read) -> io::Result<TelemetryEvent> {
    let time = SimTime(binio::read_u64(r)?);
    let phase = match binio::read_u8(r)? {
        PHASE_BEGIN => EventPhase::Begin,
        PHASE_END => EventPhase::End,
        PHASE_INSTANT => EventPhase::Instant,
        other => return Err(bad(format!("unknown event phase tag {other}"))),
    };
    let name = sym_from_wire(binio::read_u32(r)?)?;
    let attr_count = binio::read_u32(r)?;
    if attr_count > MAX_SEQ_LEN {
        return Err(bad(format!("attribute count {attr_count} exceeds bound")));
    }
    let mut attrs: Vec<Attr> = Vec::with_capacity(attr_count as usize);
    for _ in 0..attr_count {
        let key = sym_from_wire(binio::read_u32(r)?)?.as_str();
        let value = match binio::read_u8(r)? {
            VAL_U64 => AttrValue::U64(binio::read_u64(r)?),
            VAL_I64 => AttrValue::I64(binio::read_u64(r)? as i64),
            VAL_F64 => AttrValue::F64(binio::read_f64(r)?),
            VAL_BOOL => AttrValue::Bool(binio::read_u8(r)? != 0),
            VAL_STR => AttrValue::Str(binio::read_string(r, MAX_STR_LEN)?),
            VAL_STATIC => AttrValue::Static(sym_from_wire(binio::read_u32(r)?)?.as_str()),
            other => return Err(bad(format!("unknown attr value tag {other}"))),
        };
        attrs.push((key, value));
    }
    Ok(TelemetryEvent {
        seq: 0,
        time,
        phase,
        name,
        attrs,
    })
}

/// Encode a metrics snapshot (three sorted maps; `BTreeMap` iteration
/// order makes the bytes canonical for a given snapshot).
pub fn encode_metrics(snap: &MetricsSnapshot, out: &mut Vec<u8>) {
    binio::put_u32(out, snap.counters.len() as u32);
    for (name, v) in &snap.counters {
        binio::put_str(out, name);
        binio::put_u64(out, *v);
    }
    binio::put_u32(out, snap.gauges.len() as u32);
    for (name, v) in &snap.gauges {
        binio::put_str(out, name);
        binio::put_f64(out, *v);
    }
    binio::put_u32(out, snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        binio::put_str(out, name);
        binio::put_u32(out, h.buckets.len() as u32);
        for b in &h.buckets {
            binio::put_u64(out, *b);
        }
        binio::put_u64(out, h.count);
        binio::put_u64(out, h.sum_minutes);
        binio::put_u64(out, h.max_minutes);
    }
}

fn read_len(r: &mut impl Read, what: &str) -> io::Result<u32> {
    let len = binio::read_u32(r)?;
    if len > MAX_SEQ_LEN {
        return Err(bad(format!("{what} count {len} exceeds bound")));
    }
    Ok(len)
}

/// Decode a metrics snapshot written by [`encode_metrics`].
pub fn decode_metrics(r: &mut impl Read) -> io::Result<MetricsSnapshot> {
    let mut counters = BTreeMap::new();
    for _ in 0..read_len(r, "counter")? {
        let name = binio::read_string(r, MAX_STR_LEN)?;
        counters.insert(name, binio::read_u64(r)?);
    }
    let mut gauges = BTreeMap::new();
    for _ in 0..read_len(r, "gauge")? {
        let name = binio::read_string(r, MAX_STR_LEN)?;
        gauges.insert(name, binio::read_f64(r)?);
    }
    let mut histograms = BTreeMap::new();
    for _ in 0..read_len(r, "histogram")? {
        let name = binio::read_string(r, MAX_STR_LEN)?;
        let bucket_count = read_len(r, "bucket")?;
        let mut buckets = Vec::with_capacity(bucket_count as usize);
        for _ in 0..bucket_count {
            buckets.push(binio::read_u64(r)?);
        }
        histograms.insert(
            name,
            SimTimeHistogram {
                buckets,
                count: binio::read_u64(r)?,
                sum_minutes: binio::read_u64(r)?,
                max_minutes: binio::read_u64(r)?,
            },
        );
    }
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use opml_simkernel::SimDuration;

    #[test]
    fn event_round_trips_every_value_kind() {
        let _guard = crate::intern_lock();
        let ev = TelemetryEvent {
            seq: 99, // deliberately nonzero: seq must NOT round-trip
            time: SimTime(86_400),
            phase: EventPhase::Instant,
            name: "test.spill.event".into(),
            attrs: vec![
                ("vcpus", 8u64.into()),
                ("delta", AttrValue::I64(-42)),
                ("frac", (-0.0f64).into()),
                ("ok", true.into()),
                ("who", String::from("lab2-s007").into()),
                ("cause", "quota".into()),
            ],
        };
        let mut buf = Vec::new();
        encode_event(&ev, &mut buf);
        let mut r = buf.as_slice();
        let got = decode_event(&mut r).expect("decode");
        assert!(r.is_empty());
        assert_eq!(got.seq, 0, "seq is restamped by replay, not spilled");
        assert_eq!(got.time, ev.time);
        assert_eq!(got.phase, ev.phase);
        assert_eq!(got.name, ev.name);
        assert_eq!(got.attrs.len(), ev.attrs.len());
        for ((gk, gv), (wk, wv)) in got.attrs.iter().zip(&ev.attrs) {
            assert_eq!(gk, wk);
            assert_eq!(gv, wv);
        }
        // Variant-exact string round trip: Static stays Static, Str stays Str.
        assert!(matches!(got.attr("who"), Some(AttrValue::Str(_))));
        assert!(matches!(got.attr("cause"), Some(AttrValue::Static(_))));
        // Signed zero survives by bit pattern.
        match got.attr("frac") {
            Some(AttrValue::F64(x)) => assert_eq!(x.to_bits(), (-0.0f64).to_bits()),
            other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn event_phases_round_trip() {
        let _guard = crate::intern_lock();
        for phase in [EventPhase::Begin, EventPhase::End, EventPhase::Instant] {
            let ev = TelemetryEvent {
                seq: 0,
                time: SimTime::ZERO,
                phase,
                name: "test.spill.phase".into(),
                attrs: Vec::new(),
            };
            let mut buf = Vec::new();
            encode_event(&ev, &mut buf);
            assert_eq!(
                decode_event(&mut buf.as_slice()).expect("decode").phase,
                phase
            );
        }
    }

    #[test]
    fn corrupt_event_is_an_error() {
        let _guard = crate::intern_lock();
        let ev = TelemetryEvent {
            seq: 0,
            time: SimTime(1),
            phase: EventPhase::Begin,
            name: "test.spill.corrupt".into(),
            attrs: vec![("gpus", 4u64.into())],
        };
        let mut buf = Vec::new();
        encode_event(&ev, &mut buf);

        // Truncation.
        let cut = &buf[..buf.len() - 3];
        assert!(decode_event(&mut &cut[..]).is_err());

        // Out-of-table symbol id.
        let mut wild = buf.clone();
        wild[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_event(&mut wild.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Unknown phase tag.
        let mut tagged = buf.clone();
        tagged[8] = 7;
        let err = decode_event(&mut tagged.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn metrics_round_trip() {
        let _guard = crate::intern_lock();
        let mut registry = MetricsRegistry::new();
        registry.counter_add("jobs.completed", 17);
        registry.gauge_set("pool.utilization", 0.75);
        registry.observe("job.duration", SimDuration(95));
        registry.observe("job.duration", SimDuration(100_000));
        let snap = registry.snapshot();
        assert!(!snap.is_empty());

        let mut buf = Vec::new();
        encode_metrics(&snap, &mut buf);
        let mut r = buf.as_slice();
        let got = decode_metrics(&mut r).expect("decode");
        assert!(r.is_empty());
        assert_eq!(got, snap);

        // Empty snapshot round-trips to empty.
        let mut buf = Vec::new();
        encode_metrics(&MetricsSnapshot::default(), &mut buf);
        assert!(decode_metrics(&mut buf.as_slice())
            .expect("decode")
            .is_empty());
    }
}
