//! Typed columnar kernels: the hash, equality and ordering of row keys, the
//! group table behind hash aggregation and the hash-join build, typed
//! accumulators, and sort / top-N.
//!
//! Every kernel reads key columns straight from each [`Block`] variant's
//! buffers (`Dictionary` blocks through their ids); only nested types
//! (`ARRAY`, `MAP`, `ROW`) fall back to [`Value`]. The rules match the
//! row-at-a-time semantics they replace:
//!
//! - **Equality** is [`Value`]'s `Eq`: NULL equals NULL, `-0.0` equals
//!   `0.0`, NaN equals a NaN of the same bit pattern, and values of two
//!   different types are never equal.
//! - **Ordering** is [`Value::total_cmp`] (NULLS LAST), made total for
//!   doubles: NaN sorts after every number, NaNs by bit pattern. Descending
//!   keys reverse the whole order, so their NULLs come first.
//! - **Canonical encoding** of a row: per column a type-tag byte (0 for
//!   NULL), then the payload — fixed-width values little-endian, doubles as
//!   their bits with `-0.0` folded into `0.0`, strings length-prefixed. Two
//!   keys are equal exactly when their encodings are equal, and the
//!   encoding is self-delimiting, so `("a", "bc")` and `("ab", "c")` differ.
//!
//! The `GroupTable` hands out dense group ids in first-seen order and is
//! never iterated, so no hash order can reach an output or a digest.

use std::cmp::Ordering;

use presto_common::metrics::Fnv;
use presto_common::{Block, DataType, Page, PrestoError, Result, Value};

/// Group id of a row whose key the table does not hold.
pub(crate) const NO_GROUP: u32 = u32::MAX;

// Type tags of the canonical encoding: 0 is NULL, the rest follow `Value`.
const NULL: u8 = 0;
const BOOLEAN: u8 = 1;
const BIGINT: u8 = 2;
const INTEGER: u8 = 3;
const DOUBLE: u8 = 4;
const VARCHAR: u8 = 5;
const DATE: u8 = 6;
const TIMESTAMP: u8 = 7;
const ARRAY: u8 = 8;
const MAP: u8 = 9;
const ROW: u8 = 10;

// ------------------------------------------------------------- hashing

const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const NULL_HASH: u64 = 0x2545_f491_4f6c_dd1d;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

fn hash_fixed(tag: u8, bits: i64) -> u64 {
    mix((bits as u64) ^ (u64::from(tag) << 56).wrapping_mul(SEED))
}

fn hash_bytes(tag: u8, bytes: &[u8]) -> u64 {
    let mut h = SEED ^ (u64::from(tag) << 56) ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        h = mix(h ^ u64::from_le_bytes(word));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    mix(h ^ u64::from_le_bytes(tail))
}

fn combine(h: u64, column_hash: u64) -> u64 {
    mix(h.rotate_left(23) ^ column_hash)
}

/// `-0.0` and `0.0` are one key; every NaN keeps its own bit pattern.
fn canonical_f64(x: f64) -> i64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits() as i64
    }
}

/// The total order over doubles: `-0.0 == 0.0`, NaN after every number,
/// NaNs by bit pattern.
fn cmp_f64(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
        (true, true) => a.to_bits().cmp(&b.to_bits()),
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
    }
}

// ------------------------------------------------------- value fallback

fn value_tag(v: &Value) -> u8 {
    match v {
        Value::Null => NULL,
        Value::Boolean(_) => BOOLEAN,
        Value::Bigint(_) => BIGINT,
        Value::Integer(_) => INTEGER,
        Value::Double(_) => DOUBLE,
        Value::Varchar(_) => VARCHAR,
        Value::Date(_) => DATE,
        Value::Timestamp(_) => TIMESTAMP,
        Value::Array(_) => ARRAY,
        Value::Map(_) => MAP,
        Value::Row(_) => ROW,
    }
}

/// A fixed-width scalar as `(tag, canonical bits)`.
fn fixed_of_value(v: &Value) -> Option<(u8, i64)> {
    Some(match v {
        Value::Null => (NULL, 0),
        Value::Boolean(b) => (BOOLEAN, i64::from(*b)),
        Value::Bigint(x) => (BIGINT, *x),
        Value::Integer(x) => (INTEGER, i64::from(*x)),
        Value::Double(x) => (DOUBLE, canonical_f64(*x)),
        Value::Date(x) => (DATE, i64::from(*x)),
        Value::Timestamp(x) => (TIMESTAMP, *x),
        _ => return None,
    })
}

fn value_of_fixed(tag: u8, bits: i64) -> Value {
    match tag {
        BOOLEAN => Value::Boolean(bits != 0),
        BIGINT => Value::Bigint(bits),
        INTEGER => Value::Integer(bits as i32),
        DOUBLE => Value::Double(f64::from_bits(bits as u64)),
        DATE => Value::Date(bits as i32),
        TIMESTAMP => Value::Timestamp(bits),
        _ => Value::Null,
    }
}

fn fixed_width(tag: u8) -> usize {
    match tag {
        BOOLEAN => 1,
        INTEGER | DATE => 4,
        _ => 8,
    }
}

fn encode_fixed(tag: u8, bits: i64, out: &mut Vec<u8>) {
    out.push(tag);
    if tag != NULL {
        out.extend_from_slice(&bits.to_le_bytes()[..fixed_width(tag)]);
    }
}

fn encode_str(bytes: &[u8], out: &mut Vec<u8>) {
    out.push(VARCHAR);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    if let Some((tag, bits)) = fixed_of_value(v) {
        return encode_fixed(tag, bits, out);
    }
    let count = |n: usize, out: &mut Vec<u8>| out.extend_from_slice(&(n as u32).to_le_bytes());
    match v {
        Value::Varchar(s) => encode_str(s.as_bytes(), out),
        Value::Array(items) | Value::Row(items) => {
            out.push(value_tag(v));
            count(items.len(), out);
            items.iter().for_each(|item| encode_value(item, out));
        }
        Value::Map(entries) => {
            out.push(MAP);
            count(entries.len(), out);
            for (k, val) in entries {
                encode_value(k, out);
                encode_value(val, out);
            }
        }
        _ => {}
    }
}

fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Varchar(s) => hash_bytes(VARCHAR, s.as_bytes()),
        Value::Null => NULL_HASH,
        other => match fixed_of_value(other) {
            Some((tag, bits)) => hash_fixed(tag, bits),
            None => {
                let mut bytes = Vec::new();
                encode_value(other, &mut bytes);
                hash_bytes(value_tag(other), &bytes)
            }
        },
    }
}

fn read_array<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let out = bytes
        .get(*pos..*pos + N)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or_else(|| PrestoError::Internal("truncated key encoding".into()))?;
    *pos += N;
    Ok(out)
}

fn decode_value(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    let [tag] = read_array::<1>(bytes, pos)?;
    let count = |pos: &mut usize| read_array::<4>(bytes, pos).map(u32::from_le_bytes);
    Ok(match tag {
        NULL => Value::Null,
        BOOLEAN | INTEGER | DATE | BIGINT | DOUBLE | TIMESTAMP => {
            let mut word = [0u8; 8];
            let width = fixed_width(tag);
            word[..width].copy_from_slice(
                bytes
                    .get(*pos..*pos + width)
                    .ok_or_else(|| PrestoError::Internal("truncated key encoding".into()))?,
            );
            *pos += width;
            let raw = i64::from_le_bytes(word);
            // sign-extend the 4-byte kinds
            let bits = if width == 4 { i64::from(raw as i32) } else { raw };
            value_of_fixed(tag, bits)
        }
        VARCHAR => {
            let len = count(pos)? as usize;
            let s = bytes
                .get(*pos..*pos + len)
                .ok_or_else(|| PrestoError::Internal("truncated key encoding".into()))?;
            *pos += len;
            Value::Varchar(String::from_utf8_lossy(s).into_owned())
        }
        ARRAY | ROW => {
            let n = count(pos)?;
            let items = (0..n).map(|_| decode_value(bytes, pos)).collect::<Result<Vec<_>>>()?;
            if tag == ARRAY {
                Value::Array(items)
            } else {
                Value::Row(items)
            }
        }
        MAP => {
            let n = count(pos)?;
            let mut entries = Vec::with_capacity(n as usize);
            for _ in 0..n {
                entries.push((decode_value(bytes, pos)?, decode_value(bytes, pos)?));
            }
            Value::Map(entries)
        }
        other => return Err(PrestoError::Internal(format!("bad key encoding tag {other}"))),
    })
}

// --------------------------------------------------------- column views

/// The buffers of one column, by physical kind.
#[derive(Clone, Copy)]
enum Data<'a> {
    /// BIGINT, TIMESTAMP.
    I64(&'a [i64]),
    /// INTEGER, DATE.
    I32(&'a [i32]),
    F64(&'a [f64]),
    Bool(&'a [bool]),
    Str {
        offsets: &'a [u32],
        bytes: &'a [u8],
    },
    /// Nested types (and anything else) read through `Block::value`.
    Other(&'a Block),
}

/// A typed, borrowed view of one key column.
#[derive(Clone, Copy)]
pub(crate) struct KeyColumn<'a> {
    /// Type tag of the column's non-null values.
    tag: u8,
    data: Data<'a>,
    nulls: Option<&'a [bool]>,
    /// Dictionary ids: row `i` reads position `ids[i]` of `data`.
    ids: Option<&'a [u32]>,
}

impl<'a> KeyColumn<'a> {
    /// View a block's buffers (a dictionary block through its ids).
    pub(crate) fn new(block: &'a Block) -> KeyColumn<'a> {
        match block {
            Block::Dictionary { dictionary, ids } => {
                KeyColumn { ids: Some(ids), ..KeyColumn::plain(dictionary) }
            }
            other => KeyColumn::plain(other),
        }
    }

    fn plain(block: &'a Block) -> KeyColumn<'a> {
        fn view<'a>(tag: u8, data: Data<'a>, nulls: &'a Option<Vec<bool>>) -> KeyColumn<'a> {
            KeyColumn { tag, data, nulls: nulls.as_deref(), ids: None }
        }
        match block {
            Block::Boolean { values, nulls } => view(BOOLEAN, Data::Bool(values), nulls),
            Block::Bigint { values, nulls } => view(BIGINT, Data::I64(values), nulls),
            Block::Integer { values, nulls } => view(INTEGER, Data::I32(values), nulls),
            Block::Double { values, nulls } => view(DOUBLE, Data::F64(values), nulls),
            Block::Date { values, nulls } => view(DATE, Data::I32(values), nulls),
            Block::Timestamp { values, nulls } => view(TIMESTAMP, Data::I64(values), nulls),
            Block::Varchar { offsets, bytes, nulls } => {
                view(VARCHAR, Data::Str { offsets, bytes }, nulls)
            }
            other => {
                let tag = match other.data_type() {
                    DataType::Array(_) => ARRAY,
                    DataType::Map(..) => MAP,
                    DataType::Row(_) => ROW,
                    _ => NULL, // a dictionary of a dictionary: read per value
                };
                KeyColumn { tag, data: Data::Other(other), nulls: None, ids: None }
            }
        }
    }

    /// Physical position of row `i`.
    #[inline]
    fn pos(&self, i: usize) -> usize {
        match self.ids {
            Some(ids) => ids[i] as usize,
            None => i,
        }
    }

    #[inline]
    fn null_at(&self, p: usize) -> bool {
        match (self.nulls, self.data) {
            (Some(nulls), _) => nulls[p],
            (None, Data::Other(block)) => block.is_null(p),
            (None, _) => false,
        }
    }

    /// Is row `i` NULL?
    fn is_null(&self, i: usize) -> bool {
        self.null_at(self.pos(i))
    }

    /// Row `i` as a [`Value`] (the nested-type fallback).
    fn value(&self, i: usize) -> Value {
        let p = self.pos(i);
        if self.null_at(p) {
            return Value::Null;
        }
        match self.data {
            Data::I64(v) => value_of_fixed(self.tag, v[p]),
            Data::I32(v) => value_of_fixed(self.tag, i64::from(v[p])),
            Data::F64(v) => Value::Double(v[p]),
            Data::Bool(v) => Value::Boolean(v[p]),
            Data::Str { offsets, bytes } => Value::Varchar(
                String::from_utf8_lossy(&bytes[offsets[p] as usize..offsets[p + 1] as usize])
                    .into_owned(),
            ),
            Data::Other(block) => block.value(p),
        }
    }

    #[inline]
    fn str_at(offsets: &[u32], bytes: &'a [u8], p: usize) -> &'a [u8] {
        &bytes[offsets[p] as usize..offsets[p + 1] as usize]
    }

    /// Fixed-width kinds: every row is a `(tag, bits)` pair.
    fn is_fixed(&self) -> bool {
        matches!(self.data, Data::I64(_) | Data::I32(_) | Data::F64(_) | Data::Bool(_))
    }

    /// Row `i` as `(tag, canonical bits)`, or `None` for a non-fixed value.
    #[inline]
    fn fixed(&self, i: usize) -> Option<(u8, i64)> {
        let p = self.pos(i);
        if self.null_at(p) {
            return Some((NULL, 0));
        }
        Some(match self.data {
            Data::I64(v) => (self.tag, v[p]),
            Data::I32(v) => (self.tag, i64::from(v[p])),
            Data::F64(v) => (DOUBLE, canonical_f64(v[p])),
            Data::Bool(v) => (BOOLEAN, i64::from(v[p])),
            Data::Str { .. } => return None,
            Data::Other(_) => return fixed_of_value(&self.value(i)),
        })
    }

    /// Fold every row's hash into `hashes`, one column at a time.
    fn hash_into(&self, hashes: &mut [u64]) {
        macro_rules! fold {
            (|$p:ident| $h:expr) => {
                for (i, slot) in hashes.iter_mut().enumerate() {
                    let $p = self.pos(i);
                    let h = if self.null_at($p) { NULL_HASH } else { $h };
                    *slot = combine(*slot, h);
                }
            };
        }
        match self.data {
            Data::I64(v) => fold!(|p| hash_fixed(self.tag, v[p])),
            Data::I32(v) => fold!(|p| hash_fixed(self.tag, i64::from(v[p]))),
            Data::F64(v) => fold!(|p| hash_fixed(DOUBLE, canonical_f64(v[p]))),
            Data::Bool(v) => fold!(|p| hash_fixed(BOOLEAN, i64::from(v[p]))),
            Data::Str { offsets, bytes } => {
                fold!(|p| hash_bytes(VARCHAR, Self::str_at(offsets, bytes, p)))
            }
            Data::Other(block) => fold!(|p| hash_value(&block.value(p))),
        }
    }

    /// Append row `i`'s canonical encoding.
    fn encode(&self, i: usize, out: &mut Vec<u8>) {
        let p = self.pos(i);
        match self.data {
            Data::Str { offsets, bytes } if !self.null_at(p) => {
                encode_str(Self::str_at(offsets, bytes, p), out)
            }
            Data::Other(_) | Data::Str { .. } => encode_value(&self.value(i), out),
            _ => {
                if let Some((tag, bits)) = self.fixed(i) {
                    encode_fixed(tag, bits, out);
                }
            }
        }
    }

    /// Ascending order of row `i` against row `j` of `other`, NULLS LAST.
    #[inline]
    fn cmp(&self, i: usize, other: &KeyColumn<'a>, j: usize) -> Ordering {
        let (p, q) = (self.pos(i), other.pos(j));
        match (self.null_at(p), other.null_at(q)) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Greater,
            (false, true) => return Ordering::Less,
            (false, false) => {}
        }
        if self.tag == other.tag {
            match (self.data, other.data) {
                (Data::I64(a), Data::I64(b)) => return a[p].cmp(&b[q]),
                (Data::I32(a), Data::I32(b)) => return a[p].cmp(&b[q]),
                (Data::F64(a), Data::F64(b)) => return cmp_f64(a[p], b[q]),
                (Data::Bool(a), Data::Bool(b)) => return a[p].cmp(&b[q]),
                (Data::Str { offsets: ao, bytes: ab }, Data::Str { offsets: bo, bytes: bb }) => {
                    return Self::str_at(ao, ab, p).cmp(Self::str_at(bo, bb, q))
                }
                _ => {}
            }
        }
        self.value(i).total_cmp(&other.value(j))
    }
}

// ----------------------------------------------------------- row keys

/// The key columns of one page, viewed together.
pub(crate) struct RowKeys<'a> {
    columns: Vec<KeyColumn<'a>>,
    rows: usize,
}

impl<'a> RowKeys<'a> {
    /// View `blocks` as the keys of a `rows`-row page (no blocks: every row
    /// has the empty key).
    pub(crate) fn new(blocks: &'a [Block], rows: usize) -> RowKeys<'a> {
        RowKeys { columns: blocks.iter().map(KeyColumn::new).collect(), rows }
    }

    /// Every column of `page`.
    pub(crate) fn of_page(page: &'a Page) -> RowKeys<'a> {
        RowKeys::new(page.blocks(), page.positions())
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// One hash per row; equal keys hash equally.
    fn hashes(&self) -> Vec<u64> {
        let mut hashes = vec![SEED; self.rows];
        for column in &self.columns {
            column.hash_into(&mut hashes);
        }
        hashes
    }

    /// Does row `i` have a NULL in any key column?
    fn has_null(&self, i: usize) -> bool {
        self.columns.iter().any(|c| c.is_null(i))
    }

    /// Append row `i`'s canonical encoding to `out`.
    fn encode(&self, i: usize, out: &mut Vec<u8>) {
        for column in &self.columns {
            column.encode(i, out);
        }
    }

    /// Order of row `i` against row `j` of `other`, column by column;
    /// `descending[c]` reverses column `c`.
    pub(crate) fn cmp(&self, i: usize, other: &RowKeys, j: usize, descending: &[bool]) -> Ordering {
        for ((a, b), &desc) in self.columns.iter().zip(&other.columns).zip(descending) {
            let ord = a.cmp(i, b, j);
            if ord != Ordering::Equal {
                return if desc { ord.reverse() } else { ord };
            }
        }
        Ordering::Equal
    }
}

/// Fold every row of `pages` into `hash` through the canonical encoding,
/// then the row count (so zero-column rows still count).
pub fn fold_rows(pages: &[Page], hash: &mut Fnv) {
    let mut buf = Vec::new();
    let mut rows = 0;
    for page in pages {
        let keys = RowKeys::of_page(page);
        for i in 0..keys.rows() {
            buf.clear();
            keys.encode(i, &mut buf);
            hash.write_bytes(&buf);
        }
        rows += keys.rows() as u64;
    }
    hash.write(rows);
}

/// Spill partition of every row: rows with a NULL key all go to partition
/// 0 (they never match anything); equal keys always share a partition.
pub(crate) fn partitions(keys: &RowKeys, fanout: usize) -> Vec<usize> {
    let hashes = keys.hashes();
    (0..keys.rows())
        .map(|i| if keys.has_null(i) { 0 } else { (hashes[i] % fanout as u64) as usize })
        .collect()
}

// --------------------------------------------------------- group table

/// The keys of every group, in group-id order.
enum GroupKeys {
    /// One fixed-width key column: `(tag, canonical bits)` per group.
    Fixed { tags: Vec<u8>, bits: Vec<i64> },
    /// Anything else: canonical encodings, group `g` ends at `ends[g]`.
    Encoded { bytes: Vec<u8>, ends: Vec<usize> },
}

impl GroupKeys {
    fn encoded(&self, g: usize) -> &[u8] {
        match self {
            GroupKeys::Encoded { bytes, ends } => {
                let start = if g == 0 { 0 } else { ends[g - 1] };
                &bytes[start..ends[g]]
            }
            GroupKeys::Fixed { .. } => &[],
        }
    }
}

/// Open-addressing hash table from row keys to dense group ids, handed out
/// in first-seen order. Lookups compare typed keys (one fixed-width column)
/// or canonical encodings (anything else); the table is never iterated.
pub(crate) struct GroupTable {
    keys: GroupKeys,
    hashes: Vec<u64>,
    /// `NO_GROUP` or a group id; the length is a power of two.
    slots: Vec<u32>,
}

impl GroupTable {
    /// An empty table.
    pub(crate) fn new() -> GroupTable {
        GroupTable {
            keys: GroupKeys::Fixed { tags: Vec::new(), bits: Vec::new() },
            hashes: Vec::new(),
            slots: vec![NO_GROUP; 16],
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when the table holds no group.
    pub(crate) fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The slot holding group `g`'s match for `hash`, or the empty slot
    /// where it belongs.
    #[inline]
    fn probe(&self, hash: u64, eq: impl Fn(usize) -> bool) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let g = self.slots[slot];
            if g == NO_GROUP {
                return Err(slot);
            }
            if self.hashes[g as usize] == hash && eq(g as usize) {
                return Ok(g);
            }
            slot = (slot + 1) & mask;
        }
    }

    fn claim(&mut self, slot: usize, hash: u64) -> u32 {
        let g = self.hashes.len() as u32;
        self.slots[slot] = g;
        self.hashes.push(hash);
        if self.hashes.len() * 2 > self.slots.len() {
            let mut slots = vec![NO_GROUP; self.slots.len() * 2];
            let mask = slots.len() - 1;
            for (g, &h) in self.hashes.iter().enumerate() {
                let mut s = h as usize & mask;
                while slots[s] != NO_GROUP {
                    s = (s + 1) & mask;
                }
                slots[s] = g as u32;
            }
            self.slots = slots;
        }
        g
    }

    /// Leave the fixed-width representation (a page brought a key it
    /// cannot hold).
    fn switch_to_encoded(&mut self) {
        if let GroupKeys::Fixed { tags, bits } = &self.keys {
            let mut bytes = Vec::new();
            let mut ends = Vec::with_capacity(tags.len());
            for (&tag, &b) in tags.iter().zip(bits) {
                encode_fixed(tag, b, &mut bytes);
                ends.push(bytes.len());
            }
            self.keys = GroupKeys::Encoded { bytes, ends };
        }
    }

    /// The group id of every row of `keys` into `ids`, adding unseen keys
    /// as new groups. With `skip_nulls`, rows with a NULL key get
    /// [`NO_GROUP`] and add nothing (a join never matches NULL).
    pub(crate) fn insert(&mut self, keys: &RowKeys, skip_nulls: bool, ids: &mut Vec<u32>) {
        ids.clear();
        let fixed = keys.columns.len() == 1 && keys.columns[0].is_fixed();
        if self.is_empty() && !fixed {
            self.keys = GroupKeys::Encoded { bytes: Vec::new(), ends: Vec::new() };
        } else if !fixed {
            self.switch_to_encoded();
        }
        let hashes = keys.hashes();
        let mut buf = Vec::new();
        for (i, &h) in hashes.iter().enumerate() {
            if skip_nulls && keys.has_null(i) {
                ids.push(NO_GROUP);
                continue;
            }
            let g = match &self.keys {
                GroupKeys::Fixed { tags, bits } => {
                    let (tag, b) = keys.columns[0].fixed(i).unwrap_or((NULL, 0));
                    match self.probe(h, |g| tags[g] == tag && bits[g] == b) {
                        Ok(g) => g,
                        Err(slot) => {
                            let g = self.claim(slot, h);
                            if let GroupKeys::Fixed { tags, bits } = &mut self.keys {
                                tags.push(tag);
                                bits.push(b);
                            }
                            g
                        }
                    }
                }
                GroupKeys::Encoded { .. } => {
                    buf.clear();
                    keys.encode(i, &mut buf);
                    match self.probe(h, |g| self.keys.encoded(g) == buf.as_slice()) {
                        Ok(g) => g,
                        Err(slot) => {
                            let g = self.claim(slot, h);
                            if let GroupKeys::Encoded { bytes, ends } = &mut self.keys {
                                bytes.extend_from_slice(&buf);
                                ends.push(bytes.len());
                            }
                            g
                        }
                    }
                }
            };
            ids.push(g);
        }
    }

    /// The group id of every row of `keys` into `ids`, [`NO_GROUP`] where
    /// the table has no equal key.
    pub(crate) fn find(&self, keys: &RowKeys, ids: &mut Vec<u32>) {
        ids.clear();
        if self.is_empty() {
            ids.resize(keys.rows(), NO_GROUP);
            return;
        }
        let hashes = keys.hashes();
        let mut buf = Vec::new();
        for (i, &h) in hashes.iter().enumerate() {
            let found = match &self.keys {
                GroupKeys::Fixed { tags, bits } => match keys.columns.as_slice() {
                    [column] => column.fixed(i).and_then(|(tag, b)| {
                        self.probe(h, |g| tags[g] == tag && bits[g] == b).ok()
                    }),
                    _ => None,
                },
                GroupKeys::Encoded { .. } => {
                    buf.clear();
                    keys.encode(i, &mut buf);
                    self.probe(h, |g| self.keys.encoded(g) == buf.as_slice()).ok()
                }
            };
            ids.push(found.unwrap_or(NO_GROUP));
        }
    }

    /// The key columns of every group, in group-id order, typed `types`.
    pub(crate) fn key_blocks(&self, types: &[DataType]) -> Result<Vec<Block>> {
        match &self.keys {
            GroupKeys::Fixed { tags, bits } if types.len() == 1 => {
                Ok(vec![fixed_block(&types[0], tags, bits)?])
            }
            // any other width is an empty table no page has shaped yet
            GroupKeys::Fixed { .. } => types.iter().map(|t| Block::from_values(t, &[])).collect(),
            GroupKeys::Encoded { bytes, ends } => {
                let mut columns: Vec<Vec<Value>> =
                    types.iter().map(|_| Vec::with_capacity(ends.len())).collect();
                let mut pos = 0;
                for &end in ends {
                    for column in &mut columns {
                        column.push(decode_value(bytes, &mut pos)?);
                    }
                    if pos != end {
                        return Err(PrestoError::Internal("group key width mismatch".into()));
                    }
                }
                types.iter().zip(&columns).map(|(t, c)| Block::from_values(t, c)).collect()
            }
        }
    }
}

fn fixed_block(data_type: &DataType, tags: &[u8], bits: &[i64]) -> Result<Block> {
    let expected = match data_type {
        DataType::Boolean => BOOLEAN,
        DataType::Bigint => BIGINT,
        DataType::Integer => INTEGER,
        DataType::Double => DOUBLE,
        DataType::Date => DATE,
        DataType::Timestamp => TIMESTAMP,
        _ => NULL,
    };
    if expected == NULL || tags.iter().any(|&t| t != NULL && t != expected) {
        let values: Vec<Value> =
            tags.iter().zip(bits).map(|(&t, &b)| value_of_fixed(t, b)).collect();
        return Block::from_values(data_type, &values);
    }
    // a mask only when some group is NULL, as every block builder makes
    let nulls = tags.contains(&NULL).then(|| tags.iter().map(|&t| t == NULL).collect());
    Ok(match expected {
        BOOLEAN => Block::Boolean { values: bits.iter().map(|&b| b != 0).collect(), nulls },
        BIGINT => Block::Bigint { values: bits.to_vec(), nulls },
        TIMESTAMP => Block::Timestamp { values: bits.to_vec(), nulls },
        INTEGER => Block::Integer { values: bits.iter().map(|&b| b as i32).collect(), nulls },
        DATE => Block::Date { values: bits.iter().map(|&b| b as i32).collect(), nulls },
        _ => Block::Double {
            values: bits.iter().map(|&b| f64::from_bits(b as u64)).collect(),
            nulls,
        },
    })
}

// --------------------------------------------------------- accumulators

/// What an aggregate reads from each page.
pub(crate) enum AggInput<'a> {
    /// One count per row (`count(*)`).
    Rows,
    /// A value column.
    Values(KeyColumn<'a>),
    /// A column of partial counts to sum (final over partial `count`).
    PartialCounts(KeyColumn<'a>),
}

/// The best value per group of a `min` / `max`.
enum Extreme {
    /// No value seen yet in any group.
    Unset,
    /// Integer kinds of one type tag (BOOLEAN as 0/1).
    Int {
        tag: u8,
        best: Vec<Option<i64>>,
    },
    Float(Vec<Option<f64>>),
    Str(Vec<Option<Vec<u8>>>),
    /// Nested types, or a column whose kind changed between pages.
    Values(Vec<Option<Value>>),
}

/// The typed state of one aggregate over every group, indexed by group id.
enum State {
    Count(Vec<i64>),
    Sum { int: Vec<i64>, float: Vec<f64>, saw_float: Vec<bool>, any: Vec<bool> },
    Avg { sum: Vec<f64>, count: Vec<i64> },
    MinMax { is_min: bool, groups: usize, extreme: Extreme },
}

/// Typed accumulators of one aggregation: `count`, `sum`, `avg`, `min` and
/// `max` update in loops over `(group id, value)`.
pub(crate) struct Accumulators {
    states: Vec<State>,
}

impl Accumulators {
    /// One state per aggregate function.
    pub(crate) fn new(functions: &[presto_expr::AggregateFunction]) -> Accumulators {
        use presto_expr::AggregateFunction as F;
        let states = functions
            .iter()
            .map(|f| match f {
                F::Count | F::CountStar => State::Count(Vec::new()),
                F::Sum => State::Sum {
                    int: Vec::new(),
                    float: Vec::new(),
                    saw_float: Vec::new(),
                    any: Vec::new(),
                },
                F::Avg => State::Avg { sum: Vec::new(), count: Vec::new() },
                F::Min | F::Max => {
                    State::MinMax { is_min: *f == F::Min, groups: 0, extreme: Extreme::Unset }
                }
            })
            .collect();
        Accumulators { states }
    }

    /// Make room for `groups` groups.
    pub(crate) fn resize(&mut self, groups: usize) {
        for state in &mut self.states {
            match state {
                State::Count(count) => count.resize(groups, 0),
                State::Sum { int, float, saw_float, any } => {
                    int.resize(groups, 0);
                    float.resize(groups, 0.0);
                    saw_float.resize(groups, false);
                    any.resize(groups, false);
                }
                State::Avg { sum, count } => {
                    sum.resize(groups, 0.0);
                    count.resize(groups, 0);
                }
                State::MinMax { groups: n, extreme, .. } => {
                    *n = groups;
                    match extreme {
                        Extreme::Unset => {}
                        Extreme::Int { best, .. } => best.resize(groups, None),
                        Extreme::Float(best) => best.resize(groups, None),
                        Extreme::Str(best) => best.resize(groups, None),
                        Extreme::Values(best) => best.resize(groups, None),
                    }
                }
            }
        }
    }

    /// Fold one page: row `i` belongs to group `ids[i]`, or to group 0 of a
    /// global aggregation when `ids` is `None`; `rows` is the page's size.
    pub(crate) fn update(&mut self, inputs: &[AggInput], ids: Option<&[u32]>, rows: usize) {
        let group = |i: usize| ids.map_or(0, |ids| ids[i] as usize);
        for (state, input) in self.states.iter_mut().zip(inputs) {
            let col = match input {
                AggInput::Values(col) | AggInput::PartialCounts(col) => col,
                AggInput::Rows => {
                    // only counts count rows; other functions see no value
                    if let State::Count(count) = state {
                        match ids {
                            None => count[0] += rows as i64,
                            Some(ids) => ids.iter().for_each(|&g| count[g as usize] += 1),
                        }
                    }
                    continue;
                }
            };
            match state {
                State::Count(count) if matches!(input, AggInput::PartialCounts(_)) => {
                    each_int(col, rows, |i, cell| match cell {
                        Cell::Int(tag, x) if tag != BOOLEAN => count[group(i)] += x,
                        Cell::Int(..) => {}
                        Cell::Value(v) => count[group(i)] += v.as_i64().unwrap_or(0),
                    })
                }
                State::Count(count) => {
                    for i in 0..rows {
                        if !col.is_null(i) {
                            count[group(i)] += 1;
                        }
                    }
                }
                State::Sum { int, float, saw_float, any } => match col.data {
                    Data::F64(_) => each_float(col, rows, |i, x| {
                        let g = group(i);
                        float[g] += x;
                        saw_float[g] = true;
                        any[g] = true;
                    }),
                    _ => each_int(col, rows, |i, cell| {
                        let g = group(i);
                        match cell {
                            Cell::Int(tag, x) if tag != BOOLEAN => {
                                int[g] = int[g].wrapping_add(x);
                                any[g] = true;
                            }
                            Cell::Int(..) => {}
                            Cell::Value(Value::Double(x)) => {
                                float[g] += x;
                                saw_float[g] = true;
                                any[g] = true;
                            }
                            Cell::Value(v) => {
                                if let Some(x) = v.as_i64() {
                                    int[g] = int[g].wrapping_add(x);
                                    any[g] = true;
                                }
                            }
                        }
                    }),
                },
                State::Avg { sum, count } => match col.data {
                    Data::F64(_) => each_float(col, rows, |i, x| {
                        let g = group(i);
                        sum[g] += x;
                        count[g] += 1;
                    }),
                    _ => each_int(col, rows, |i, cell| {
                        // avg widens BIGINT and INTEGER only
                        let x = match cell {
                            Cell::Int(BIGINT | INTEGER, x) => x as f64,
                            Cell::Int(..) => return,
                            Cell::Value(v) => match v.as_f64() {
                                Some(x) => x,
                                None => return,
                            },
                        };
                        let g = group(i);
                        sum[g] += x;
                        count[g] += 1;
                    }),
                },
                State::MinMax { is_min, groups, extreme } => {
                    update_extreme(extreme, *is_min, *groups, col, rows, &group);
                }
            }
        }
    }

    /// Aggregate `a`'s result for every group as a block of `data_type`.
    pub(crate) fn finish(&self, a: usize, data_type: &DataType) -> Result<Block> {
        let values: Vec<Value> = match &self.states[a] {
            State::Count(count) => return Ok(Block::Bigint { values: count.clone(), nulls: None }),
            State::Sum { int, float, saw_float, any } => (0..int.len())
                .map(|g| match (any[g], saw_float[g]) {
                    (false, _) => Value::Null,
                    (true, true) => Value::Double(float[g] + int[g] as f64),
                    (true, false) => Value::Bigint(int[g]),
                })
                .collect(),
            State::Avg { sum, count } => sum
                .iter()
                .zip(count)
                .map(|(&s, &c)| if c == 0 { Value::Null } else { Value::Double(s / c as f64) })
                .collect(),
            State::MinMax { groups, extreme, .. } => extreme_values(extreme, *groups),
        };
        Block::from_values(data_type, &values)
    }
}

/// Call `f(row, value)` for every non-null row of a DOUBLE column; other
/// kinds call nothing.
fn each_float(col: &KeyColumn, rows: usize, mut f: impl FnMut(usize, f64)) {
    if let Data::F64(v) = col.data {
        for i in 0..rows {
            let p = col.pos(i);
            if !col.null_at(p) {
                f(i, v[p]);
            }
        }
    }
}

/// One value handed to an [`each_int`] callback.
enum Cell<'v> {
    /// An integer kind's `(tag, value)`; BOOLEAN as 0/1.
    Int(u8, i64),
    /// A row of a column read through `Value` (NULL included).
    Value(&'v Value),
}

/// Call `f(row, cell)` for every non-null row of an integer-kind column
/// (BIGINT, INTEGER, DATE, TIMESTAMP, BOOLEAN), or for every row of a column
/// read through `Value`. DOUBLE and VARCHAR columns call nothing.
fn each_int(col: &KeyColumn, rows: usize, mut f: impl FnMut(usize, Cell)) {
    match col.data {
        Data::I64(v) => (0..rows).for_each(|i| {
            let p = col.pos(i);
            if !col.null_at(p) {
                f(i, Cell::Int(col.tag, v[p]));
            }
        }),
        Data::I32(v) => (0..rows).for_each(|i| {
            let p = col.pos(i);
            if !col.null_at(p) {
                f(i, Cell::Int(col.tag, i64::from(v[p])));
            }
        }),
        Data::Bool(v) => (0..rows).for_each(|i| {
            let p = col.pos(i);
            if !col.null_at(p) {
                f(i, Cell::Int(BOOLEAN, i64::from(v[p])));
            }
        }),
        Data::Other(_) => (0..rows).for_each(|i| f(i, Cell::Value(&col.value(i)))),
        Data::F64(_) | Data::Str { .. } => {}
    }
}

fn extreme_values(extreme: &Extreme, groups: usize) -> Vec<Value> {
    match extreme {
        Extreme::Unset => vec![Value::Null; groups],
        Extreme::Int { tag, best } => {
            best.iter().map(|b| b.map_or(Value::Null, |x| value_of_fixed(*tag, x))).collect()
        }
        Extreme::Float(best) => best.iter().map(|b| b.map_or(Value::Null, Value::Double)).collect(),
        Extreme::Str(best) => best
            .iter()
            .map(|b| match b {
                Some(s) => Value::Varchar(String::from_utf8_lossy(s).into_owned()),
                None => Value::Null,
            })
            .collect(),
        Extreme::Values(best) => best.iter().map(|b| b.clone().unwrap_or(Value::Null)).collect(),
    }
}

/// `min` / `max` over one page. A value replaces the best only when it
/// compares strictly better, as `Value::sql_cmp` orders it — so a NaN is
/// never better, and a group whose first value is NaN keeps it.
fn update_extreme(
    extreme: &mut Extreme,
    is_min: bool,
    groups: usize,
    col: &KeyColumn,
    rows: usize,
    group: &impl Fn(usize) -> usize,
) {
    fn better<T: PartialOrd>(v: &T, best: &Option<T>, is_min: bool) -> bool {
        match best {
            None => true,
            Some(b) if is_min => v < b,
            Some(b) => v > b,
        }
    }
    // Pick (or keep) the representation this page's kind needs.
    let kind_fits = match (&*extreme, col.data) {
        (Extreme::Unset, _) => false,
        (Extreme::Int { tag, .. }, Data::I64(_) | Data::I32(_) | Data::Bool(_)) => *tag == col.tag,
        (Extreme::Float(_), Data::F64(_)) | (Extreme::Str(_), Data::Str { .. }) => true,
        (Extreme::Values(_), _) => true,
        _ => false,
    };
    if !kind_fits {
        *extreme = match (&*extreme, col.data) {
            (Extreme::Unset, Data::I64(_) | Data::I32(_) | Data::Bool(_)) => {
                Extreme::Int { tag: col.tag, best: vec![None; groups] }
            }
            (Extreme::Unset, Data::F64(_)) => Extreme::Float(vec![None; groups]),
            (Extreme::Unset, Data::Str { .. }) => Extreme::Str(vec![None; groups]),
            (Extreme::Unset, _) => Extreme::Values(vec![None; groups]),
            (seen, _) => Extreme::Values(
                extreme_values(seen, groups)
                    .into_iter()
                    .map(|v| (!v.is_null()).then_some(v))
                    .collect(),
            ),
        };
    }
    match (extreme, col.data) {
        (Extreme::Int { best, .. }, _) => each_int(col, rows, |i, cell| {
            if let Cell::Int(_, x) = cell {
                let b = &mut best[group(i)];
                if better(&x, b, is_min) {
                    *b = Some(x);
                }
            }
        }),
        (Extreme::Float(best), _) => each_float(col, rows, |i, x| {
            let b = &mut best[group(i)];
            if better(&x, b, is_min) {
                *b = Some(x);
            }
        }),
        (Extreme::Str(best), Data::Str { offsets, bytes }) => {
            for i in 0..rows {
                let p = col.pos(i);
                if !col.null_at(p) {
                    let s = KeyColumn::str_at(offsets, bytes, p);
                    let b = &mut best[group(i)];
                    let wins = match b {
                        None => true,
                        Some(cur) if is_min => s < cur.as_slice(),
                        Some(cur) => s > cur.as_slice(),
                    };
                    if wins {
                        *b = Some(s.to_vec());
                    }
                }
            }
        }
        (Extreme::Values(best), _) => {
            for i in 0..rows {
                let v = col.value(i);
                if v.is_null() {
                    continue;
                }
                let b = &mut best[group(i)];
                let wins = match b {
                    None => true,
                    Some(cur) => match v.sql_cmp(cur) {
                        Some(Ordering::Less) => is_min,
                        Some(Ordering::Greater) => !is_min,
                        _ => false,
                    },
                };
                if wins {
                    *b = Some(v);
                }
            }
        }
        _ => {}
    }
}

// ------------------------------------------------------------ sort / top-N

/// Stable sort of one page's rows by `keys`.
pub(crate) fn sort_indices(keys: &RowKeys, descending: &[bool]) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..keys.rows()).collect();
    indices.sort_by(|&a, &b| keys.cmp(a, keys, b, descending));
    indices
}

/// The first `count` rows, as `(page, row)`, of the stable sort of every
/// page's rows by `keys`: a bounded max-heap of `count` entries, ties
/// broken by input position. Returned in sorted order.
pub(crate) fn top_n(keys: &[RowKeys], descending: &[bool], count: usize) -> Vec<(usize, usize)> {
    let cmp = |a: (usize, usize), b: (usize, usize)| {
        keys[a.0].cmp(a.1, &keys[b.0], b.1, descending).then(a.cmp(&b))
    };
    let mut heap: Vec<(usize, usize)> = Vec::with_capacity(count.min(1 << 16));
    if count == 0 {
        return heap;
    }
    for (page, k) in keys.iter().enumerate() {
        for row in 0..k.rows() {
            let entry = (page, row);
            if heap.len() < count {
                // sift up
                heap.push(entry);
                let mut c = heap.len() - 1;
                while c > 0 {
                    let parent = (c - 1) / 2;
                    if cmp(heap[c], heap[parent]) != Ordering::Greater {
                        break;
                    }
                    heap.swap(c, parent);
                    c = parent;
                }
            } else if cmp(entry, heap[0]) == Ordering::Less {
                // replace the worst, sift down
                heap[0] = entry;
                let mut c = 0;
                loop {
                    let (l, r) = (2 * c + 1, 2 * c + 2);
                    let mut largest = c;
                    if l < heap.len() && cmp(heap[l], heap[largest]) == Ordering::Greater {
                        largest = l;
                    }
                    if r < heap.len() && cmp(heap[r], heap[largest]) == Ordering::Greater {
                        largest = r;
                    }
                    if largest == c {
                        break;
                    }
                    heap.swap(c, largest);
                    c = largest;
                }
            }
        }
    }
    heap.sort_by(|&a, &b| cmp(a, b));
    heap
}

/// Rows `picks` (`(page, row)`, in pick order) of `pages`: the page
/// `Page::concat(pages)?.take(..)` gives, without concatenating the input.
pub(crate) fn gather(pages: &[Page], picks: &[(usize, usize)]) -> Result<Page> {
    if let [page] = pages {
        let rows: Vec<usize> = picks.iter().map(|&(_, r)| r).collect();
        return Ok(page.take(&rows));
    }
    // One piece per contributing page, in page order; then permute.
    let mut order: Vec<usize> = (0..picks.len()).collect();
    order.sort_by_key(|&k| picks[k]);
    let mut pieces = Vec::new();
    let mut position = vec![0usize; picks.len()];
    let mut k = 0;
    while k < order.len() {
        let page = picks[order[k]].0;
        let mut rows = Vec::new();
        while k < order.len() && picks[order[k]].0 == page {
            position[order[k]] = k;
            rows.push(picks[order[k]].1);
            k += 1;
        }
        pieces.push(pages[page].take(&rows));
    }
    let merged = match pieces.as_slice() {
        [] if pages.is_empty() => Page::empty(),
        [] => Page::concat(&pages.iter().map(|p| p.take(&[])).collect::<Vec<_>>())?,
        // a lone piece skips concat, which would otherwise flatten it
        [piece] if piece.column_count() > 0 => {
            Page::new(piece.blocks().iter().map(Block::decode_dictionary).collect())?
        }
        _ => Page::concat(&pieces)?,
    };
    Ok(merged.take(&position))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_eq(a: &Block, i: usize, b: &Block, j: usize) -> bool {
        let (ka, kb) = (
            RowKeys::new(std::slice::from_ref(a), a.len()),
            RowKeys::new(std::slice::from_ref(b), b.len()),
        );
        let (mut x, mut y) = (Vec::new(), Vec::new());
        ka.encode(i, &mut x);
        kb.encode(j, &mut y);
        x == y
    }

    #[test]
    fn encoding_equality_is_value_equality() {
        let doubles = Block::double(vec![0.0, -0.0, f64::NAN, f64::NAN, 1.5]);
        assert!(keys_eq(&doubles, 0, &doubles, 1));
        assert!(keys_eq(&doubles, 2, &doubles, 3));
        assert!(!keys_eq(&doubles, 0, &doubles, 4));
        let ints = Block::integer(vec![7]);
        let bigs = Block::bigint(vec![7]);
        assert!(!keys_eq(&ints, 0, &bigs, 0), "types never compare equal");
        let nulls = Block::nulls(&DataType::Varchar, 2);
        assert!(keys_eq(&nulls, 0, &nulls, 1));
        let dict =
            Block::Dictionary { dictionary: Box::new(Block::varchar(&["x", "y"])), ids: vec![1] };
        assert!(keys_eq(&dict, 0, &Block::varchar(&["y"]), 0));
    }

    #[test]
    fn prefix_colliding_strings_are_distinct_keys() {
        let a = [Block::varchar(&["a", "ab"]), Block::varchar(&["bc", "c"])];
        let keys = RowKeys::new(&a, 2);
        let mut table = GroupTable::new();
        let mut ids = Vec::new();
        table.insert(&keys, false, &mut ids);
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn group_ids_are_dense_in_first_seen_order() {
        let block = [Block::bigint(vec![5, 3, 5, 9, 3])];
        let mut table = GroupTable::new();
        let mut ids = Vec::new();
        table.insert(&RowKeys::new(&block, 5), false, &mut ids);
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
        let keys = table.key_blocks(&[DataType::Bigint]).unwrap();
        assert_eq!(keys[0], Block::bigint(vec![5, 3, 9]));
        // a varchar page moves the table to encoded keys without renumbering
        let mixed = [Block::varchar(&["5", "x"])];
        table.insert(&RowKeys::new(&mixed, 2), false, &mut ids);
        assert_eq!(ids, vec![3, 4]);
        table.insert(&RowKeys::new(&block, 5), false, &mut ids);
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn top_n_breaks_ties_by_input_position() {
        let pages = [
            Page::new(vec![Block::bigint(vec![2, 1, 2])]).unwrap(),
            Page::new(vec![Block::bigint(vec![2, 0])]).unwrap(),
        ];
        let keys: Vec<RowKeys> = pages.iter().map(RowKeys::of_page).collect();
        assert_eq!(top_n(&keys, &[true], 3), vec![(0, 0), (0, 2), (1, 0)]);
        assert_eq!(top_n(&keys, &[false], 2), vec![(1, 1), (0, 1)]);
        let page = gather(&pages, &top_n(&keys, &[false], 5)).unwrap();
        assert_eq!(page.block(0), &Block::bigint(vec![0, 1, 2, 2, 2]));
    }

    #[test]
    fn doubles_order_nan_last_and_zeroes_equal() {
        let block = [Block::double(vec![f64::NAN, 1.0, -0.0, 0.0, -1.0])];
        let keys = RowKeys::new(&block, 5);
        assert_eq!(sort_indices(&keys, &[false]), vec![4, 2, 3, 1, 0]);
    }
}
