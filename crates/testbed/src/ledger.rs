//! The usage ledger — the single source of truth for the cost analysis.
//!
//! Every resource the simulated course consumes is closed out as a
//! [`UsageRecord`] carrying its attribution name, kind, and `[start, end)`
//! window. `opml-metering` rolls records up per assignment/student and
//! `opml-pricing` converts them to dollars; §5 of the paper does exactly
//! this with Chameleon's monitoring and reservation data.

use crate::flavor::FlavorId;
use opml_simkernel::{binio, SimTime};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::{fmt, io};

/// What kind of resource a record meters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum UsageKind {
    /// A compute instance of the given flavor. `auto_terminated` marks
    /// records closed by lease expiry rather than user deletion.
    Instance {
        /// Flavor of the metered instance.
        flavor: FlavorId,
        /// Closed by lease expiry (bare metal / edge) rather than deletion.
        auto_terminated: bool,
    },
    /// A held floating IP.
    FloatingIp,
    /// A block volume of the given size.
    Volume {
        /// Volume size in GB.
        size_gb: u64,
    },
    /// Object storage; `gb` is the stored size over the window.
    ObjectStorage {
        /// Stored GB.
        gb: f64,
    },
}

impl UsageKind {
    /// Stable total-order key over the variant and its payload. Float
    /// payloads order by bit pattern (all stored values are finite), so
    /// the order is total and two records compare equal only when their
    /// serialized bytes are identical.
    fn sort_key(self) -> (u8, u64, u64) {
        match self {
            UsageKind::Instance {
                flavor,
                auto_terminated,
            } => (0, flavor as u64, u64::from(auto_terminated)),
            UsageKind::FloatingIp => (1, 0, 0),
            UsageKind::Volume { size_gb } => (2, size_gb, 0),
            UsageKind::ObjectStorage { gb } => (3, gb.to_bits(), 0),
        }
    }
}

/// Longest name a [`RecordName`] keeps in place. Every lab record name
/// up to 10M students fits: the longest, such as `lab4-single-s9999999`
/// and `lab8-s9999999-bucket`, are 20 bytes.
const INLINE_NAME_LEN: usize = 22;

/// A usage record's attribution name: up to 22 bytes of UTF-8 in place,
/// a longer name in a `Box<str>`.
///
/// It is 24 bytes, as a `String` is, but a short name owns no
/// allocation, so a ledger of short names is one buffer. It orders,
/// compares, prints, serializes and encodes exactly as the `str` it
/// holds; two in-place names compare as three machine words.
#[derive(Clone)]
pub struct RecordName(NameRepr);

#[derive(Clone)]
enum NameRepr {
    /// `bytes[..len]` is the name, valid UTF-8; every byte past `len`
    /// is zero.
    Inline {
        len: u8,
        bytes: [u8; INLINE_NAME_LEN],
    },
    /// A name longer than [`INLINE_NAME_LEN`] bytes.
    Heap(Box<str>),
}

impl RecordName {
    /// The name's UTF-8 bytes, read without checking them again.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            NameRepr::Inline { len, bytes } => bytes.get(..usize::from(*len)).unwrap_or_default(),
            NameRepr::Heap(name) => name.as_bytes(),
        }
    }

    /// The name. An in-place name is checked as UTF-8 on each call; the
    /// check cannot fail, because every constructor starts from a `str`
    /// or checks the bytes it reads.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            NameRepr::Inline { .. } => std::str::from_utf8(self.as_bytes()).unwrap_or_default(),
            NameRepr::Heap(name) => name,
        }
    }

    /// Read a name written by `binio::put_str`. A length over
    /// [`MAX_NAME_LEN`] is `InvalidData` before any byte of the name is
    /// read, and so are bytes that are not UTF-8. Allocates only for a
    /// name longer than 22 bytes.
    fn decode_from(r: &mut impl io::Read) -> io::Result<RecordName> {
        let len = binio::read_str_len(r, MAX_NAME_LEN)?;
        let mut bytes = [0u8; INLINE_NAME_LEN];
        match bytes.get_mut(..len) {
            Some(slot) => {
                binio::read_utf8(r, slot)?;
                Ok(RecordName(NameRepr::Inline {
                    len: len as u8,
                    bytes,
                }))
            }
            None => Ok(RecordName(NameRepr::Heap(
                binio::read_utf8(r, &mut vec![0; len])?.into(),
            ))),
        }
    }
}

/// Copies the name; it allocates only past 22 bytes.
impl From<&str> for RecordName {
    fn from(name: &str) -> RecordName {
        let mut bytes = [0u8; INLINE_NAME_LEN];
        match bytes.get_mut(..name.len()) {
            Some(slot) => {
                slot.copy_from_slice(name.as_bytes());
                RecordName(NameRepr::Inline {
                    len: name.len() as u8,
                    bytes,
                })
            }
            None => RecordName(NameRepr::Heap(name.into())),
        }
    }
}

/// Keeps a name longer than 22 bytes in the string's own buffer.
impl From<String> for RecordName {
    fn from(name: String) -> RecordName {
        if name.len() <= INLINE_NAME_LEN {
            RecordName::from(name.as_str())
        } else {
            RecordName(NameRepr::Heap(name.into_boxed_str()))
        }
    }
}

impl std::ops::Deref for RecordName {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for RecordName {
    fn eq(&self, other: &RecordName) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for RecordName {}

impl PartialOrd for RecordName {
    fn partial_cmp(&self, other: &RecordName) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Byte order, which is `str`'s order. Two in-place names compare as
/// their zero-padded bytes, read as big-endian words, and then by
/// length: the padding is zero, so a name orders before every longer
/// name it begins, NUL bytes included, exactly as the bytes do.
impl Ord for RecordName {
    #[inline]
    fn cmp(&self, other: &RecordName) -> std::cmp::Ordering {
        match (&self.0, &other.0) {
            (NameRepr::Inline { len, bytes }, NameRepr::Inline { len: l, bytes: b }) => {
                word(bytes, 0)
                    .cmp(&word(b, 0))
                    .then_with(|| word(bytes, 8).cmp(&word(b, 8)))
                    .then_with(|| word(bytes, LAST_WORD).cmp(&word(b, LAST_WORD)))
                    .then_with(|| len.cmp(l))
            }
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
    }
}

/// Where an in-place name's third word starts: it covers bytes 14–21,
/// repeating bytes 14 and 15, which the second word has already found
/// equal whenever the third is read, so the three words order as the
/// 22 bytes do.
const LAST_WORD: usize = INLINE_NAME_LEN - 8;

/// Bytes `at..at + 8` of an in-place name as a big-endian word.
#[inline]
fn word(bytes: &[u8; INLINE_NAME_LEN], at: usize) -> u64 {
    let mut word = [0u8; 8];
    if let Some(src) = bytes.get(at..at + 8) {
        word.copy_from_slice(src);
    }
    u64::from_be_bytes(word)
}

impl fmt::Debug for RecordName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for RecordName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for RecordName {
    fn to_node(&self) -> serde::Node {
        self.as_str().to_node()
    }
}

impl Deserialize for RecordName {}

/// One closed usage interval.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UsageRecord {
    /// Attribution name (e.g. `lab2-s042`).
    pub name: RecordName,
    /// Resource kind.
    pub kind: UsageKind,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
}

/// Bound on a spilled record's name length; anything larger in a run
/// file is corruption, not a real attribution name.
const MAX_NAME_LEN: u32 = 1 << 16;

/// [`UsageKind`] wire tags for the spill-run encoding.
const KIND_INSTANCE: u8 = 0;
const KIND_FLOATING_IP: u8 = 1;
const KIND_VOLUME: u8 = 2;
const KIND_OBJECT_STORAGE: u8 = 3;

impl UsageRecord {
    /// Metered hours.
    pub fn hours(&self) -> f64 {
        self.end.since(self.start).as_hours_f64()
    }

    /// Append this record to a spill-run buffer: length-prefixed name,
    /// one kind tag byte plus its payload, then the `[start, end)`
    /// window. Floats travel by bit pattern and the flavor by its
    /// [`FlavorId::ALL`] position, so [`UsageRecord::decode_from`]
    /// reproduces the record exactly — the spilled merge stream must
    /// serialize byte-identically to the in-memory one.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        binio::put_str(out, self.name.as_str());
        match self.kind {
            UsageKind::Instance {
                flavor,
                auto_terminated,
            } => {
                binio::put_u8(out, KIND_INSTANCE);
                binio::put_u8(out, flavor as u8);
                binio::put_u8(out, u8::from(auto_terminated));
            }
            UsageKind::FloatingIp => binio::put_u8(out, KIND_FLOATING_IP),
            UsageKind::Volume { size_gb } => {
                binio::put_u8(out, KIND_VOLUME);
                binio::put_u64(out, size_gb);
            }
            UsageKind::ObjectStorage { gb } => {
                binio::put_u8(out, KIND_OBJECT_STORAGE);
                binio::put_f64(out, gb);
            }
        }
        binio::put_u64(out, self.start.0);
        binio::put_u64(out, self.end.0);
    }

    /// Decode one record written by [`UsageRecord::encode_into`].
    /// Corrupt tags or out-of-range flavors are `InvalidData`;
    /// truncation is `UnexpectedEof`. Never panics.
    pub fn decode_from(r: &mut impl io::Read) -> io::Result<UsageRecord> {
        let name = RecordName::decode_from(r)?;
        let kind = match binio::read_u8(r)? {
            KIND_INSTANCE => {
                let raw = binio::read_u8(r)?;
                let flavor = FlavorId::ALL
                    .get(usize::from(raw))
                    .copied()
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("flavor index {raw} out of range"),
                        )
                    })?;
                UsageKind::Instance {
                    flavor,
                    auto_terminated: binio::read_u8(r)? != 0,
                }
            }
            KIND_FLOATING_IP => UsageKind::FloatingIp,
            KIND_VOLUME => UsageKind::Volume {
                size_gb: binio::read_u64(r)?,
            },
            KIND_OBJECT_STORAGE => UsageKind::ObjectStorage {
                gb: binio::read_f64(r)?,
            },
            tag => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown usage-kind tag {tag}"),
                ))
            }
        };
        Ok(UsageRecord {
            name,
            kind,
            start: SimTime(binio::read_u64(r)?),
            end: SimTime(binio::read_u64(r)?),
        })
    }

    /// Flavor, for instance records.
    pub fn flavor(&self) -> Option<FlavorId> {
        match self.kind {
            UsageKind::Instance { flavor, .. } => Some(flavor),
            _ => None,
        }
    }
}

/// Append-only collection of closed usage records, with the aggregate
/// queries the evaluation needs.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Ledger {
    records: Vec<UsageRecord>,
}

impl Ledger {
    /// Empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Empty ledger pre-sized for `capacity` records. The shard driver
    /// passes a per-student volume estimate so the hot close-record
    /// loop appends without reallocating; the hint is a capacity, not a
    /// bound.
    pub fn with_capacity(capacity: usize) -> Self {
        Ledger {
            records: Vec::with_capacity(capacity),
        }
    }

    /// Append a closed record.
    pub fn push(&mut self, rec: UsageRecord) {
        debug_assert!(rec.end >= rec.start, "record ends before it starts");
        self.records.push(rec);
    }

    /// All records.
    pub fn records(&self) -> &[UsageRecord] {
        &self.records
    }

    /// Reserve room for exactly `additional` more records.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve_exact(additional);
    }

    /// Move every record of `other` to the end of this ledger, then free
    /// `other`'s buffer.
    pub fn append(&mut self, mut other: Ledger) {
        self.records.append(&mut other.records);
    }

    /// Sort records into the canonical order: `(name, start, end, kind)`
    /// under a total key. Idempotent, and independent of the order the
    /// records were appended in.
    ///
    /// The sort is unstable, yet its output bytes are fixed: two records
    /// that tie are equal in every field, because the kind's sort key
    /// carries its payload (floats by bit pattern), so no order among
    /// ties can change a byte. It also needs no scratch buffer.
    pub fn sort_canonical(&mut self) {
        self.records.sort_unstable_by(record_order);
    }

    /// Total instance-hours, optionally restricted to one flavor.
    pub fn instance_hours(&self, flavor: Option<FlavorId>) -> f64 {
        self.records
            .iter()
            .filter(|r| match (r.kind, flavor) {
                (UsageKind::Instance { flavor: f, .. }, Some(want)) => f == want,
                (UsageKind::Instance { .. }, None) => true,
                _ => false,
            })
            .map(UsageRecord::hours)
            .sum()
    }

    /// Total floating-IP hours.
    pub fn fip_hours(&self) -> f64 {
        self.records
            .iter()
            .filter(|r| r.kind == UsageKind::FloatingIp)
            .map(UsageRecord::hours)
            .sum()
    }

    /// Total block-storage GB (peak existing at any time, by sweep).
    pub fn peak_block_gb(&self) -> u64 {
        let deltas: Vec<(SimTime, i64)> = self
            .records
            .iter()
            .filter_map(|r| match r.kind {
                UsageKind::Volume { size_gb } => {
                    Some([(r.start, size_gb as i64), (r.end, -(size_gb as i64))])
                }
                _ => None,
            })
            .flatten()
            .collect();
        sweep_peak(deltas) as u64
    }

    /// Total object-storage GB across buckets (final stored size).
    pub fn object_gb(&self) -> f64 {
        self.records
            .iter()
            .filter_map(|r| match r.kind {
                UsageKind::ObjectStorage { gb } => Some(gb),
                _ => None,
            })
            .sum()
    }

    /// Peak simultaneous active instances (sweep-line over records).
    ///
    /// The capacity-planning example compares this against the §4 quota of
    /// 600 simultaneous instances.
    pub fn peak_concurrent_instances(&self) -> u64 {
        let deltas: Vec<(SimTime, i64)> = self
            .records
            .iter()
            .filter(|r| matches!(r.kind, UsageKind::Instance { .. }))
            .flat_map(|r| [(r.start, 1i64), (r.end, -1i64)])
            .collect();
        sweep_peak(deltas) as u64
    }

    /// Peak simultaneous vCPU cores (for quota validation).
    pub fn peak_concurrent_cores(&self) -> u64 {
        let deltas: Vec<(SimTime, i64)> = self
            .records
            .iter()
            .filter_map(|r| match r.kind {
                UsageKind::Instance { flavor, .. } => {
                    let c = flavor.spec().vcpus as i64;
                    Some([(r.start, c), (r.end, -c)])
                }
                _ => None,
            })
            .flatten()
            .collect();
        sweep_peak(deltas) as u64
    }

    /// Records whose name starts with `prefix` (assignment attribution).
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a UsageRecord> {
        self.records
            .iter()
            .filter(move |r| r.name.starts_with(prefix))
    }
}

impl IntoIterator for Ledger {
    type Item = UsageRecord;
    type IntoIter = std::vec::IntoIter<UsageRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

/// The canonical total order: `(name, start, end, kind)`, each part
/// compared only when every part before it ties.
#[inline]
fn record_order(a: &UsageRecord, b: &UsageRecord) -> std::cmp::Ordering {
    a.name
        .cmp(&b.name)
        .then_with(|| (a.start, a.end).cmp(&(b.start, b.end)))
        .then_with(|| a.kind.sort_key().cmp(&b.kind.sort_key()))
}

/// A pull source of canonically-sorted usage records: an on-disk spill
/// run whose errors (I/O, corruption) surface through the associated
/// error type rather than panicking, or an in-memory ledger.
pub trait RecordSource {
    /// Error produced by a failed pull.
    type Error;

    /// The next record, `None` when the source is exhausted. Records
    /// must come out in canonical order ([`Ledger::sort_canonical`]);
    /// the merge's output order is only guaranteed for sorted sources.
    fn next_record(&mut self) -> Result<Option<UsageRecord>, Self::Error>;
}

/// A ledger's records, in the order it holds them, as a source that
/// cannot fail.
impl RecordSource for std::vec::IntoIter<UsageRecord> {
    type Error = Infallible;

    fn next_record(&mut self) -> Result<Option<UsageRecord>, Infallible> {
        Ok(self.next())
    }
}

/// The workspace's k-way merge: an incremental merge over
/// [`RecordSource`]s, in memory or on disk.
///
/// Holds exactly one buffered head record per source (plus whatever the
/// sources themselves buffer), so peak memory is O(k), independent of
/// the total record count. Ties break on source index, so for sources
/// that are pre-sorted shard ledgers in shard order, the merged stream
/// is byte-identical to concatenating and stably sorting in memory.
pub struct StreamMerge<S: RecordSource> {
    sources: Vec<S>,
    /// Buffered next record per source (`None` once exhausted).
    heads: Vec<Option<UsageRecord>>,
    /// Index min-heap over sources with a live head.
    heap: Vec<usize>,
}

/// Whether source `a`'s buffered head merges before source `b`'s; ties
/// break on source index (see [`StreamMerge`]).
fn head_less(heads: &[Option<UsageRecord>], a: usize, b: usize) -> bool {
    let (ra, rb) = (
        heads.get(a).and_then(Option::as_ref),
        heads.get(b).and_then(Option::as_ref),
    );
    // detlint::allow(DL008): heap entries are indices of sources with live heads by construction
    let ra = ra.expect("heap source has a head");
    // detlint::allow(DL008): heap entries are indices of sources with live heads by construction
    let rb = rb.expect("heap source has a head");
    record_order(ra, rb).then(a.cmp(&b)).is_lt()
}

/// Restore the min-heap property at `i` over the buffered heads.
fn sift_down_heads(heap: &mut [usize], heads: &[Option<UsageRecord>], mut i: usize) {
    loop {
        let l = 2 * i + 1;
        if l >= heap.len() {
            break;
        }
        let r = l + 1;
        let mut m = l;
        // detlint::allow(DL008): l and r are bounds-checked heap positions
        if r < heap.len() && head_less(heads, heap[r], heap[l]) {
            m = r;
        }
        // detlint::allow(DL008): m and i are bounds-checked heap positions
        if head_less(heads, heap[m], heap[i]) {
            heap.swap(m, i);
            i = m;
        } else {
            break;
        }
    }
}

impl<S: RecordSource> StreamMerge<S> {
    /// Prime one head from every source and build the heap. A source
    /// that errors on its first pull fails construction.
    pub fn new(mut sources: Vec<S>) -> Result<StreamMerge<S>, S::Error> {
        let mut heads = Vec::with_capacity(sources.len());
        for s in &mut sources {
            heads.push(s.next_record()?);
        }
        let mut heap: Vec<usize> = (0..heads.len())
            .filter(|&i| heads.get(i).is_some_and(Option::is_some))
            .collect();
        for i in (0..heap.len() / 2).rev() {
            sift_down_heads(&mut heap, &heads, i);
        }
        Ok(StreamMerge {
            sources,
            heads,
            heap,
        })
    }

    /// Pop the globally-next record, refilling the winning source's
    /// head. `None` once every source is exhausted.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<UsageRecord>, S::Error> {
        let Some(&top) = self.heap.first() else {
            return Ok(None);
        };
        let out = self.heads.get_mut(top).and_then(Option::take);
        // detlint::allow(DL008): heap entries index sources with live heads; exhausted entries are evicted below
        let out = out.expect("heap source has a head");
        // detlint::allow(DL008): `top` is a heap entry, an index into sources
        let refill = match self.sources.get_mut(top) {
            Some(s) => s.next_record()?,
            None => None,
        };
        if let Some(slot) = self.heads.get_mut(top) {
            *slot = refill;
        }
        if self.heads.get(top).is_some_and(Option::is_none) {
            // detlint::allow(DL008): the heap head read above guarantees the heap is non-empty
            let tail = self.heap.pop().expect("heap is nonempty");
            if self.heap.is_empty() {
                return Ok(Some(out));
            }
            if let Some(root) = self.heap.first_mut() {
                *root = tail;
            }
        }
        sift_down_heads(&mut self.heap, &self.heads, 0);
        Ok(Some(out))
    }
}

/// Max running sum of time-ordered deltas; ends sort before starts at the
/// same instant (an instance replaced at time t does not double-count).
fn sweep_peak(mut deltas: Vec<(SimTime, i64)>) -> i64 {
    deltas.sort_by_key(|&(t, d)| (t, d));
    let mut cur = 0i64;
    let mut peak = 0i64;
    for (_, d) in deltas {
        cur += d;
        peak = peak.max(cur);
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(h: u64) -> SimTime {
        SimTime(h * 60)
    }

    fn inst(name: &str, flavor: FlavorId, s: u64, e: u64) -> UsageRecord {
        UsageRecord {
            name: name.into(),
            kind: UsageKind::Instance {
                flavor,
                auto_terminated: false,
            },
            start: t(s),
            end: t(e),
        }
    }

    #[test]
    fn hours_sums() {
        let mut l = Ledger::new();
        l.push(inst("lab1-a", FlavorId::M1Small, 0, 2));
        l.push(inst("lab1-b", FlavorId::M1Small, 1, 4));
        l.push(inst("lab2-a", FlavorId::M1Medium, 0, 10));
        assert_eq!(l.instance_hours(Some(FlavorId::M1Small)), 5.0);
        assert_eq!(l.instance_hours(None), 15.0);
        assert_eq!(l.instance_hours(Some(FlavorId::M1Large)), 0.0);
    }

    #[test]
    fn fip_hours_separate_from_instances() {
        let mut l = Ledger::new();
        l.push(inst("lab1-a", FlavorId::M1Small, 0, 2));
        l.push(UsageRecord {
            name: "lab1-a".into(),
            kind: UsageKind::FloatingIp,
            start: t(0),
            end: t(3),
        });
        assert_eq!(l.fip_hours(), 3.0);
        assert_eq!(l.instance_hours(None), 2.0);
    }

    #[test]
    fn peak_concurrency_sweep() {
        let mut l = Ledger::new();
        l.push(inst("a", FlavorId::M1Medium, 0, 4));
        l.push(inst("b", FlavorId::M1Medium, 1, 3));
        l.push(inst("c", FlavorId::M1Medium, 2, 6));
        l.push(inst("d", FlavorId::M1Medium, 4, 5)); // starts when a ends
        assert_eq!(l.peak_concurrent_instances(), 3);
        assert_eq!(l.peak_concurrent_cores(), 6); // 3 × 2 vCPU
    }

    #[test]
    fn adjacent_intervals_do_not_double_count() {
        let mut l = Ledger::new();
        l.push(inst("a", FlavorId::M1Small, 0, 2));
        l.push(inst("b", FlavorId::M1Small, 2, 4));
        assert_eq!(l.peak_concurrent_instances(), 1);
    }

    #[test]
    fn peak_block_gb() {
        let mut l = Ledger::new();
        l.push(UsageRecord {
            name: "v1".into(),
            kind: UsageKind::Volume { size_gb: 100 },
            start: t(0),
            end: t(10),
        });
        l.push(UsageRecord {
            name: "v2".into(),
            kind: UsageKind::Volume { size_gb: 50 },
            start: t(5),
            end: t(20),
        });
        assert_eq!(l.peak_block_gb(), 150);
    }

    #[test]
    fn prefix_filter() {
        let mut l = Ledger::new();
        l.push(inst("lab2-alice", FlavorId::M1Medium, 0, 1));
        l.push(inst("lab2-bob", FlavorId::M1Medium, 0, 1));
        l.push(inst("lab3-alice", FlavorId::M1Medium, 0, 1));
        assert_eq!(l.with_prefix("lab2-").count(), 2);
        assert_eq!(l.with_prefix("lab3-").count(), 1);
        assert_eq!(l.with_prefix("proj-").count(), 0);
    }

    #[test]
    fn object_gb_sums_buckets() {
        let mut l = Ledger::new();
        for gb in [1.2, 0.3] {
            l.push(UsageRecord {
                name: "bucket".into(),
                kind: UsageKind::ObjectStorage { gb },
                start: t(0),
                end: t(1),
            });
        }
        assert!((l.object_gb() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn canonical_order_is_name_then_window_then_kind() {
        let mut l = Ledger::new();
        l.push(inst("lab2-b", FlavorId::M1Small, 3, 5));
        l.push(UsageRecord {
            name: "lab1-a".into(),
            kind: UsageKind::FloatingIp,
            start: t(0),
            end: t(1),
        });
        l.push(inst("lab1-a", FlavorId::M1Medium, 0, 2));
        l.push(inst("lab1-a", FlavorId::M1Small, 0, 1));
        l.sort_canonical();
        // Name first, then start/end, then kind rank (Instance before
        // FloatingIp at the same window).
        let order: Vec<(&str, u64)> = l
            .records()
            .iter()
            .map(|r| (r.name.as_str(), r.end.0 / 60))
            .collect();
        assert_eq!(
            order,
            [("lab1-a", 1), ("lab1-a", 1), ("lab1-a", 2), ("lab2-b", 5)]
        );
        assert!(matches!(l.records()[0].kind, UsageKind::Instance { .. }));
        assert_eq!(l.records()[1].kind, UsageKind::FloatingIp);
    }

    /// Deterministic pseudo-random fragments with heavy key collisions
    /// (shared names/windows) to exercise the stability tie-breaks.
    fn colliding_fragments(mut state: u64, parts: usize, per_part: usize) -> Vec<Ledger> {
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let flavors = [FlavorId::M1Small, FlavorId::M1Medium, FlavorId::GpuV100];
        (0..parts)
            .map(|_| {
                let mut l = Ledger::new();
                for _ in 0..per_part {
                    let s = next() % 40;
                    let e = s + 1 + next() % 10;
                    l.push(inst(
                        &format!("lab{}-s{:02}", next() % 3, next() % 8),
                        flavors[(next() % 3) as usize],
                        s,
                        e,
                    ));
                }
                l
            })
            .collect()
    }

    /// The independent reference: concatenate, then sort. Records that
    /// tie are identical, so the sort's stability cannot show.
    fn concat_then_sort(parts: &[Ledger]) -> Ledger {
        let mut reference = Ledger::new();
        for p in parts {
            reference.records.extend(p.records.iter().cloned());
        }
        reference.sort_canonical();
        reference
    }

    fn json(l: &Ledger) -> String {
        serde_json::to_string(l.records()).expect("serialize")
    }

    fn all_kinds_corpus() -> Vec<UsageRecord> {
        let mut records = vec![
            inst("lab1-a", FlavorId::M1Small, 0, 2),
            UsageRecord {
                name: "lab1-a".into(),
                kind: UsageKind::Instance {
                    flavor: FlavorId::ComputeCascadeLake,
                    auto_terminated: true,
                },
                start: t(0),
                end: t(5),
            },
            UsageRecord {
                name: "lab1-a".into(),
                kind: UsageKind::FloatingIp,
                start: t(0),
                end: t(3),
            },
            UsageRecord {
                name: "v1".into(),
                kind: UsageKind::Volume { size_gb: 100 },
                start: t(1),
                end: t(9),
            },
            UsageRecord {
                name: "bucket".into(),
                kind: UsageKind::ObjectStorage { gb: 1.25 },
                start: t(2),
                end: t(4),
            },
        ];
        for f in FlavorId::ALL {
            records.push(inst("sweep", f, 1, 2));
        }
        // Names at the in-place limit (22 bytes) and past it (23), an
        // in-place non-ASCII name and a long one on the heap side.
        for name in [
            "lab4-single-s999999999",
            "lab4-single-s9999999999",
            "学生-s042",
            "étudiant ✓ 学生-s042-node0-étudiant",
        ] {
            records.push(inst(name, FlavorId::M1Small, 3, 4));
        }
        records
    }

    #[test]
    fn encode_decode_round_trips_every_kind() {
        let corpus = all_kinds_corpus();
        let mut buf = Vec::new();
        for r in &corpus {
            r.encode_into(&mut buf);
        }
        let mut reader = buf.as_slice();
        for want in &corpus {
            let got = UsageRecord::decode_from(&mut reader).expect("decode");
            // Byte-identity is the contract, not just field equality.
            assert_eq!(
                serde_json::to_string(&got).expect("serialize"),
                serde_json::to_string(want).expect("serialize"),
            );
        }
        assert!(reader.is_empty());
        assert!(UsageRecord::decode_from(&mut reader).is_err(), "EOF errors");
    }

    #[test]
    fn names_switch_to_the_heap_past_22_bytes() {
        for (name, inline) in [
            ("", true),
            ("lab4-single-s999999999", true),
            ("lab4-single-s9999999999", false),
            ("学生-s042", true),
            ("étudiant ✓ 学生-s042-node0-étudiant", false),
        ] {
            let got = RecordName::from(name);
            assert_eq!(got.as_str(), name);
            assert_eq!(got, RecordName::from(name.to_string()));
            assert_eq!(matches!(got.0, NameRepr::Inline { .. }), inline, "{name:?}");
            assert_eq!(format!("{got:?}"), format!("{name:?}"));
            assert_eq!(got.to_string(), name);
        }
    }

    #[test]
    fn a_record_is_56_bytes_with_a_24_byte_name() {
        assert_eq!(std::mem::size_of::<RecordName>(), 24);
        assert_eq!(std::mem::size_of::<UsageRecord>(), 56);
    }

    #[test]
    fn decoding_a_bad_name_is_invalid_data() {
        // An in-place name whose bytes are not UTF-8.
        let mut bad = Vec::new();
        binio::put_u32(&mut bad, 2);
        bad.extend_from_slice(&[0xc3, 0x28]);
        inst("x", FlavorId::M1Small, 0, 1).encode_into(&mut bad);
        let err = UsageRecord::decode_from(&mut bad.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().starts_with("invalid UTF-8"), "{err}");

        // A length over the bound is refused before any byte of the
        // name is read: nothing follows it, yet the error is not EOF.
        let mut long = Vec::new();
        binio::put_u32(&mut long, MAX_NAME_LEN + 1);
        let err = UsageRecord::decode_from(&mut long.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn names_sort_as_their_strings_do() {
        let names = [
            "lab2-s001",
            "lab2-s0010-node0",
            "lab2-s001-node1",
            "lab2-s001-node0",
            "lab2-s00",
            "lab2-",
            "lab2-s001-node0-with-a-long-suffix",
            "lab2-s001-node0-with-a-long-suffiy",
            "lab2-é",
            "lab2-e",
            "lab2-ê-s001",
            "lab2-é-s001-node0-étudiant",
            "lab2-\u{7f}",
            "lab2-\u{80}",
            "学生",
            "学",
            "",
            // NUL bytes look like the in-place padding.
            "lab2",
            "lab2\0",
            "lab2\0\0",
            "lab2\0a",
            // A 22-byte name kept in place and a 23-byte one on the heap
            // that begins with it.
            "lab2-s001-node0-abcdef",
            "lab2-s001-node0-abcdefg",
        ];
        let mut strings: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        strings.sort();
        let mut records: Vec<UsageRecord> = names
            .iter()
            .map(|n| inst(n, FlavorId::M1Small, 0, 1))
            .collect();
        records.sort_by(|a, b| a.name.cmp(&b.name));
        let sorted: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(sorted, strings);
        for a in &names {
            for b in &names {
                let (ra, rb) = (RecordName::from(*a), RecordName::from(*b));
                assert_eq!(ra.cmp(&rb), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(ra == rb, a == b, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn flavor_discriminants_match_all_order() {
        // The spill encoding writes `flavor as u8` and decodes via
        // `FlavorId::ALL[i]`; this pins the two orderings together.
        for (i, f) in FlavorId::ALL.into_iter().enumerate() {
            assert_eq!(f as usize, i, "{f:?} discriminant drifted from ALL order");
        }
    }

    #[test]
    fn stream_merge_matches_concat_then_sort() {
        let mut parts = colliding_fragments(0x5ee3_1aa7, 6, 40);
        for p in &mut parts {
            p.sort_canonical();
        }
        parts.push(Ledger::new()); // an empty source must be harmless
        let reference = concat_then_sort(&parts);
        let sources: Vec<_> = parts.into_iter().map(Ledger::into_iter).collect();
        let Ok(mut merge) = StreamMerge::new(sources);
        let mut streamed = Ledger::new();
        while let Ok(Some(rec)) = merge.next() {
            streamed.push(rec);
        }
        assert_eq!(json(&streamed), json(&reference));
    }
}
