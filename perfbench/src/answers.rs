//! Answer checks.
//!
//! Every answer is reduced to an order-insensitive digest: each row is
//! hashed with the workspace's FNV-1a (doubles rounded to about twelve significant digits),
//! the row hashes are sorted, and the sorted list is hashed again. A query with
//! a LIMIT may legally return any rows that tie at the cut, so its answer is
//! checked against the answer without the LIMIT instead of a digest.

use std::collections::HashMap;

use presto_common::metrics::Fnv;
use presto_common::{Block, Page, Value};

/// A query class; each class is summed into its own end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Scan,
    Needle,
    Agg,
    Join,
    TopnLimit,
}

impl Class {
    pub const ALL: [Class; 5] =
        [Class::Scan, Class::Needle, Class::Agg, Class::Join, Class::TopnLimit];

    /// The end-to-end metric this class is summed into.
    pub fn metric(self) -> &'static str {
        match self {
            Class::Scan => "scan_s",
            Class::Needle => "needle_s",
            Class::Agg => "agg_s",
            Class::Join => "join_s",
            Class::TopnLimit => "topn_limit_s",
        }
    }
}

/// A test one answer row must pass.
pub type RowCheck = Box<dyn Fn(&[Value]) -> bool>;

/// How one answer is judged.
pub enum Check {
    /// The answer's digest must equal this one.
    Digest(u64),
    /// A LIMIT answer: `len` rows drawn from the multiset `pool` (the answer
    /// without the LIMIT), whose sort-key columns, sorted, are `top_keys`.
    Limited { pool: HashMap<u64, usize>, keys: Vec<usize>, top_keys: Vec<u64>, len: usize },
    /// Exactly `count` rows, each accepted by `row_ok`.
    Rows { count: usize, row_ok: RowCheck },
    /// No answer is right: the reference itself could not be built.
    Never,
}

impl Check {
    /// True when `pages` are a right answer.
    pub fn holds(&self, pages: &[Page]) -> bool {
        match self {
            Check::Digest(want) => digest(pages) == *want,
            _ => self.holds_rows(&pages.iter().flat_map(Page::rows).collect::<Vec<_>>()),
        }
    }

    /// True when `rows` are a right answer.
    fn holds_rows(&self, rows: &[Vec<Value>]) -> bool {
        match self {
            Check::Digest(want) => digest_rows(rows) == *want,
            Check::Limited { pool, keys, top_keys, len } => {
                let mut counts: HashMap<u64, usize> = HashMap::new();
                for r in rows {
                    *counts.entry(row_hash(r)).or_default() += 1;
                }
                rows.len() == *len
                    && counts.iter().all(|(r, n)| pool.get(r).is_some_and(|have| have >= n))
                    && key_hashes(rows, keys) == *top_keys
            }
            Check::Rows { count, row_ok } => rows.len() == *count && rows.iter().all(|r| row_ok(r)),
            Check::Never => false,
        }
    }

    /// The check of a `LIMIT limit` answer against `reference`, the answer
    /// without the LIMIT in ORDER BY order. `keys` are the output columns
    /// the query orders by (empty without ORDER BY): any rows that tie at
    /// the cut are right.
    pub fn limited(reference: Vec<Vec<Value>>, keys: Vec<usize>, limit: usize) -> Check {
        let len = limit.min(reference.len());
        let top_keys = key_hashes(&reference[..len], &keys);
        let mut pool: HashMap<u64, usize> = HashMap::new();
        for r in &reference {
            *pool.entry(row_hash(r)).or_default() += 1;
        }
        Check::Limited { pool, keys, top_keys, len }
    }
}

/// The sorted hashes of the `keys` columns of `rows`.
fn key_hashes(rows: &[Vec<Value>], keys: &[usize]) -> Vec<u64> {
    let mut out: Vec<u64> = rows
        .iter()
        .map(|r| row_hash(&keys.iter().map(|&k| r[k].clone()).collect::<Vec<_>>()))
        .collect();
    out.sort_unstable();
    out
}

/// Order-insensitive digest of an answer: each row is hashed on its own,
/// the row hashes are sorted, and the sorted list is hashed again.
pub fn digest(pages: &[Page]) -> u64 {
    let mut hashes: Vec<u64> = Vec::new();
    for page in pages {
        let mut rows = vec![Fnv::new(); page.positions()];
        for block in page.blocks() {
            for (i, h) in rows.iter_mut().enumerate() {
                hash_value(h, &block.value(i));
            }
        }
        hashes.extend(rows.iter().map(Fnv::finish));
    }
    digest_hashes(hashes)
}

/// [`digest`] of rows already materialized.
pub fn digest_rows(rows: &[Vec<Value>]) -> u64 {
    digest_hashes(rows.iter().map(|r| row_hash(r)).collect())
}

fn digest_hashes(mut hashes: Vec<u64>) -> u64 {
    hashes.sort_unstable();
    let mut h = Fnv::new();
    for x in hashes {
        h.write(x);
    }
    h.finish()
}

/// Hash of one row.
pub fn row_hash(row: &[Value]) -> u64 {
    let mut h = Fnv::new();
    for v in row {
        hash_value(&mut h, v);
    }
    h.finish()
}

/// Feed one value, tagged by kind, into `h`. Doubles are rounded to 40
/// mantissa bits (about twelve significant digits), so a change of
/// summation order does not change a digest.
fn hash_value(h: &mut Fnv, v: &Value) {
    let tagged = |h: &mut Fnv, tag: u8, word: u64| {
        h.write(u64::from(tag));
        h.write(word);
    };
    match v {
        Value::Null => h.write(u64::from(b'N')),
        Value::Boolean(b) => tagged(h, b'B', u64::from(*b)),
        Value::Bigint(i) => tagged(h, b'I', *i as u64),
        Value::Integer(i) => tagged(h, b'i', *i as u64),
        Value::Double(d) => tagged(h, b'D', round_mantissa(*d)),
        Value::Varchar(s) => {
            tagged(h, b'S', s.len() as u64);
            h.write_str(s);
        }
        Value::Date(d) => tagged(h, b'd', *d as u64),
        Value::Timestamp(t) => tagged(h, b'T', *t as u64),
        Value::Array(items) => {
            tagged(h, b'A', items.len() as u64);
            items.iter().for_each(|x| hash_value(h, x));
        }
        Value::Map(entries) => {
            tagged(h, b'M', entries.len() as u64);
            for (k, x) in entries {
                hash_value(h, k);
                hash_value(h, x);
            }
        }
        Value::Row(fields) => {
            tagged(h, b'R', fields.len() as u64);
            fields.iter().for_each(|x| hash_value(h, x));
        }
    }
}

/// `d`'s bits with the mantissa rounded to its top 40 bits.
fn round_mantissa(d: f64) -> u64 {
    const DROP: u32 = 12;
    let bits = if d == 0.0 { 0 } else { d.to_bits() };
    (bits + (1 << (DROP - 1))) & !((1 << DROP) - 1)
}

/// The SQL with a trailing `LIMIT <n>` removed, and `n`.
pub fn strip_limit(sql: &str) -> Option<(String, usize)> {
    let (head, tail) = sql.rsplit_once(" LIMIT ")?;
    let n = tail.trim().parse().ok()?;
    Some((head.to_string(), n))
}

/// Typed column views over generated blocks, for reference answers.
pub fn bigints(b: &Block) -> &[i64] {
    match b {
        Block::Bigint { values, .. } => values,
        other => panic!("expected a bigint block, got {:?}", other.data_type()),
    }
}

pub fn integers(b: &Block) -> &[i32] {
    match b {
        Block::Integer { values, .. } => values,
        other => panic!("expected an integer block, got {:?}", other.data_type()),
    }
}

pub fn doubles(b: &Block) -> &[f64] {
    match b {
        Block::Double { values, .. } => values,
        other => panic!("expected a double block, got {:?}", other.data_type()),
    }
}

pub fn text(b: &Block, i: usize) -> &str {
    b.str_at(i).expect("generated varchar columns have no nulls")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|v| Value::Bigint(*v)).collect()
    }

    #[test]
    fn digest_ignores_row_order() {
        let a = vec![row(&[1, 2]), row(&[3, 4])];
        let b = vec![row(&[3, 4]), row(&[1, 2])];
        assert_eq!(digest_rows(&a), digest_rows(&b));
        assert_ne!(digest_rows(&a), digest_rows(&[row(&[1, 2])]));
    }

    #[test]
    fn limited_accepts_any_tie_at_the_cut() {
        // ordered by column 1 descending; rows 2 and 3 tie at the cut
        let reference = vec![row(&[1, 9]), row(&[2, 5]), row(&[3, 5]), row(&[4, 1])];
        let check = Check::limited(reference, vec![1], 2);
        assert!(check.holds_rows(&[row(&[1, 9]), row(&[2, 5])]));
        assert!(check.holds_rows(&[row(&[3, 5]), row(&[1, 9])]));
        assert!(!check.holds_rows(&[row(&[1, 9]), row(&[4, 1])]));
        assert!(!check.holds_rows(&[row(&[1, 9])]));
        assert!(!check.holds_rows(&[row(&[1, 9]), row(&[7, 5])]));
    }

    #[test]
    fn strip_limit_finds_the_trailing_limit() {
        assert_eq!(strip_limit("SELECT a FROM t LIMIT 20"), Some(("SELECT a FROM t".into(), 20)));
        assert_eq!(strip_limit("SELECT a FROM t"), None);
    }
}
