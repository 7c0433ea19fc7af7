//! The span codec: sealed trace spans as interned columns, shared by
//! the two files that store a trace.
//!
//! * A shard segment's `spans` section holds the shard's stripped trace
//!   (see [`shard`](crate::shard)).
//! * `trace.col` is the bundle's trace file: the sectioned container
//!   `campaign.col` uses, with its own magic (`TOPICTRC`) and one
//!   `spans` section holding every span, wall-clock, allocation and
//!   operational ones included. `doctor`, `memprofile` and `serve`
//!   read it; JSONL and Chrome trace-event JSON are write-only exports.
//!
//! [`decode_trace`] answers any input with a typed [`ColumnarError`]:
//! the container checks the magic, the header and section checksums,
//! and the decoder checks every string id, flag, tag and field range.

use crate::columnar::ColumnarError;
use crate::container::{self, fits_u32, put_u32, put_u64, Cur, Format};
use std::collections::HashMap;
use topics_obs::{FieldValue, SpanRecord, Trace};

const TAG_SPANS: u8 = 1;

/// The `trace.col` container: version 1 (bumped on incompatible
/// change), no preamble, one section.
static TRACE_FORMAT: Format = Format {
    magic: *b"TOPICTRC",
    version: 1,
    preamble_len: 0,
    sections: &[(TAG_SPANS, "spans")],
};

/// Encode a trace as a `trace.col` file.
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let spans = encode_spans(&trace.spans);
    container::assemble(&TRACE_FORMAT, &[], &[(TAG_SPANS, &spans)])
}

/// Decode and verify a `trace.col` file. Any other file, a JSONL
/// export included, is [`ColumnarError::BadMagic`].
pub fn decode_trace(bytes: &[u8]) -> Result<Trace, ColumnarError> {
    let ((), dir) = container::parse(&TRACE_FORMAT, bytes, |_| Ok(()))?;
    Ok(Trace {
        spans: decode_spans(dir.section(bytes, TAG_SPANS)?)?,
    })
}

const SPAN_OP: u8 = 1;
const SPAN_PARENT: u8 = 2;
const SPAN_SIM_START: u8 = 4;
const SPAN_SIM_END: u8 = 8;

const FIELD_U64: u8 = 0;
const FIELD_I64: u8 = 1;
const FIELD_F64: u8 = 2;
const FIELD_STR: u8 = 3;
const FIELD_BOOL: u8 = 4;

/// Encode spans as a `spans` section. Everything is little-endian:
///
/// ```text
/// string count u32 | span count u32 | field count u32
/// string lengths u32 x strings | string bytes, concatenated
/// span columns:  id u64 | parent u64 | sim_start u64 | sim_end u64
///                | wall_start u64 | wall_end u64
///                | name u32 | field_end u32 | flags u8
/// field columns: key u32 | tag u8 | value u64
/// ```
///
/// Span names, field keys and `Str` values share one string table,
/// interned in first-use order. `flags` marks `op` and which of the
/// parent and sim bounds are present; absent ones are stored as 0.
/// Span `i` owns field rows `field_end[i - 1]..field_end[i]`. A field
/// value is the `U64` itself, an `I64`'s two's complement, an `F64`'s
/// bits, a `Str`'s string id, or a `Bool` as 0 or 1.
pub(crate) fn encode_spans(spans: &[SpanRecord]) -> Vec<u8> {
    let mut ids: HashMap<&str, u32> = HashMap::new();
    let mut strings: Vec<&str> = Vec::new();
    let mut intern = |s| {
        *ids.entry(s).or_insert_with(|| {
            strings.push(s);
            fits_u32(strings.len() - 1, "span string")
        })
    };
    let n = spans.len();
    let mut bounds: [Vec<u8>; 6] = Default::default();
    let (mut names, mut ends, mut flags) = (
        Vec::with_capacity(n * 4),
        Vec::with_capacity(n * 4),
        Vec::with_capacity(n),
    );
    let (mut keys, mut tags, mut values) = (Vec::new(), Vec::new(), Vec::new());
    let mut field_end = 0usize;
    for s in spans {
        let row = [
            s.id,
            s.parent.unwrap_or(0),
            s.sim_start_ms.unwrap_or(0),
            s.sim_end_ms.unwrap_or(0),
            s.wall_start_us,
            s.wall_end_us,
        ];
        for (col, v) in bounds.iter_mut().zip(row) {
            put_u64(col, v);
        }
        put_u32(&mut names, intern(s.name.as_str()));
        for (key, value) in &s.fields {
            put_u32(&mut keys, intern(key.as_str()));
            let (tag, bits) = match value {
                FieldValue::U64(v) => (FIELD_U64, *v),
                FieldValue::I64(v) => (FIELD_I64, *v as u64),
                FieldValue::F64(v) => (FIELD_F64, v.to_bits()),
                FieldValue::Str(v) => (FIELD_STR, u64::from(intern(v.as_str()))),
                FieldValue::Bool(v) => (FIELD_BOOL, u64::from(*v)),
            };
            tags.push(tag);
            put_u64(&mut values, bits);
        }
        field_end += s.fields.len();
        put_u32(&mut ends, fits_u32(field_end, "span field"));
        let present = [
            (s.op, SPAN_OP),
            (s.parent.is_some(), SPAN_PARENT),
            (s.sim_start_ms.is_some(), SPAN_SIM_START),
            (s.sim_end_ms.is_some(), SPAN_SIM_END),
        ];
        flags.push(
            present
                .iter()
                .filter(|(on, _)| *on)
                .fold(0, |f, (_, bit)| f | bit),
        );
    }
    let text: usize = strings.iter().map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(12 + strings.len() * 4 + text + n * 57 + tags.len() * 13);
    put_u32(&mut out, fits_u32(strings.len(), "span string"));
    put_u32(&mut out, fits_u32(n, "span"));
    put_u32(&mut out, fits_u32(tags.len(), "span field"));
    for s in &strings {
        put_u32(&mut out, fits_u32(s.len(), "span string length"));
    }
    for s in &strings {
        out.extend_from_slice(s.as_bytes());
    }
    for col in bounds
        .iter()
        .chain([&names, &ends, &flags, &keys, &tags, &values])
    {
        out.extend_from_slice(col);
    }
    out
}

fn u32_at(col: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(col[i * 4..i * 4 + 4].try_into().unwrap())
}

fn u64_at(col: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(col[i * 8..i * 8 + 8].try_into().unwrap())
}

/// Decode and validate a `spans` section ([`encode_spans`]): every
/// string id, flag, tag and field range is checked, and no allocation
/// is sized by a count the payload has not already proven.
pub(crate) fn decode_spans(payload: &[u8]) -> Result<Vec<SpanRecord>, ColumnarError> {
    const SECTION: &str = "spans";
    let mut cur = Cur::new(payload, SECTION);
    let string_count = cur.u32()? as usize;
    let n = cur.u32()? as usize;
    let m = cur.u32()? as usize;
    let lens = cur.column(string_count, 4)?;
    let mut strings = Vec::with_capacity(string_count);
    for i in 0..string_count {
        let raw = cur.take(u32_at(lens, i) as usize)?;
        let s = std::str::from_utf8(raw)
            .map_err(|_| ColumnarError::Malformed(format!("span string {i} is not UTF-8")))?;
        strings.push(s);
    }
    let mut bounds = [&[][..]; 6];
    for col in bounds.iter_mut() {
        *col = cur.column(n, 8)?;
    }
    let names = cur.column(n, 4)?;
    let ends = cur.column(n, 4)?;
    let flags = cur.take(n)?;
    let keys = cur.column(m, 4)?;
    let tags = cur.take(m)?;
    let values = cur.column(m, 8)?;
    cur.done()?;

    let string = |field: &'static str, id: u64| {
        usize::try_from(id)
            .ok()
            .and_then(|i| strings.get(i))
            .map(|s| (*s).to_owned())
            .ok_or(ColumnarError::IdOutOfRange {
                section: SECTION,
                field,
                id: u32::try_from(id).unwrap_or(u32::MAX),
                len: strings.len() as u32,
            })
    };
    let mut spans = Vec::with_capacity(n);
    let mut field_start = 0usize;
    for (i, &f) in flags.iter().enumerate() {
        if f & !(SPAN_OP | SPAN_PARENT | SPAN_SIM_START | SPAN_SIM_END) != 0 {
            return Err(ColumnarError::BadEnum {
                section: SECTION,
                field: "flags",
                value: f,
            });
        }
        let optional = |col: usize, bit: u8| match (f & bit != 0, u64_at(bounds[col], i)) {
            (true, v) => Ok(Some(v)),
            (false, 0) => Ok(None),
            (false, _) => Err(ColumnarError::Malformed(format!(
                "span {i} stores a value its flags mark absent"
            ))),
        };
        let field_end = u32_at(ends, i) as usize;
        if field_end < field_start || field_end > m {
            return Err(ColumnarError::BadRange {
                section: SECTION,
                field: "fields",
            });
        }
        let mut fields = Vec::with_capacity(field_end - field_start);
        for (j, &tag) in (field_start..).zip(&tags[field_start..field_end]) {
            let v = u64_at(values, j);
            let value = match tag {
                FIELD_U64 => FieldValue::U64(v),
                FIELD_I64 => FieldValue::I64(v as i64),
                FIELD_F64 => FieldValue::F64(f64::from_bits(v)),
                FIELD_STR => FieldValue::Str(string("value", v)?),
                FIELD_BOOL if v <= 1 => FieldValue::Bool(v == 1),
                FIELD_BOOL => {
                    return Err(ColumnarError::Malformed(format!(
                        "span field {j} stores bool {v}"
                    )))
                }
                _ => {
                    return Err(ColumnarError::BadEnum {
                        section: SECTION,
                        field: "tag",
                        value: tag,
                    })
                }
            };
            fields.push((string("key", u64::from(u32_at(keys, j)))?, value));
        }
        field_start = field_end;
        spans.push(SpanRecord {
            id: u64_at(bounds[0], i),
            parent: optional(1, SPAN_PARENT)?,
            name: string("name", u64::from(u32_at(names, i)))?,
            op: f & SPAN_OP != 0,
            sim_start_ms: optional(2, SPAN_SIM_START)?,
            sim_end_ms: optional(3, SPAN_SIM_END)?,
            wall_start_us: u64_at(bounds[4], i),
            wall_end_us: u64_at(bounds[5], i),
            fields,
        });
    }
    if field_start != m {
        return Err(ColumnarError::BadRange {
            section: SECTION,
            field: "fields",
        });
    }
    Ok(spans)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A span list exercising every field type, absent and present
    /// bounds, op spans, shared and unicode strings, and float bit
    /// patterns that `==` cannot tell apart.
    pub(crate) fn sample_spans() -> Vec<SpanRecord> {
        let span = |id, parent, name: &str, fields: Vec<(&str, FieldValue)>| SpanRecord {
            id,
            parent,
            name: name.to_owned(),
            op: false,
            sim_start_ms: Some(id * 10),
            sim_end_ms: Some(id * 10 + 5),
            wall_start_us: 0,
            wall_end_us: 0,
            fields: fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        };
        let mut spans = vec![
            span(
                1,
                None,
                "campaign",
                vec![("sites", FieldValue::U64(u64::MAX))],
            ),
            span(
                2,
                Some(1),
                "visit",
                vec![
                    ("domain", FieldValue::Str("bücher.example".to_owned())),
                    ("delta", FieldValue::I64(-7)),
                    ("share", FieldValue::F64(-0.0)),
                    (
                        "nan",
                        FieldValue::F64(f64::from_bits(0x7FF8_0000_0000_0ABC)),
                    ),
                    ("ok", FieldValue::Bool(true)),
                ],
            ),
            span(3, Some(2), "fetch", vec![]),
            span(
                4,
                Some(2),
                "visit",
                vec![
                    ("domain", FieldValue::Str("visit".to_owned())),
                    ("ok", FieldValue::Bool(false)),
                    ("empty", FieldValue::Str(String::new())),
                ],
            ),
        ];
        spans[2].sim_end_ms = None;
        spans[3].op = true;
        spans[3].sim_start_ms = None;
        spans[3].sim_end_ms = None;
        spans[3].wall_start_us = 12;
        spans[3].wall_end_us = 34;
        spans
    }

    /// Spans compared bit for bit: `F64` by its bits, not by `==`.
    pub(crate) fn span_bits(spans: &[SpanRecord]) -> Vec<String> {
        spans
            .iter()
            .map(|s| {
                let fields: Vec<String> = s
                    .fields
                    .iter()
                    .map(|(k, v)| match v {
                        FieldValue::F64(x) => format!("{k}=f64:{:016x}", x.to_bits()),
                        other => format!("{k}={other:?}"),
                    })
                    .collect();
                format!(
                    "{} {:?} {} {} {:?} {:?} {} {} {fields:?}",
                    s.id,
                    s.parent,
                    s.name,
                    s.op,
                    s.sim_start_ms,
                    s.sim_end_ms,
                    s.wall_start_us,
                    s.wall_end_us
                )
            })
            .collect()
    }

    /// Byte offsets of the spans section's columns.
    struct SpanLayout {
        /// Start of the concatenated string bytes.
        strings: usize,
        names: usize,
        ends: usize,
        flags: usize,
        tags: usize,
        n: usize,
        m: usize,
    }

    fn span_layout(p: &[u8]) -> SpanLayout {
        let word = |at: usize| u32::from_le_bytes(p[at..at + 4].try_into().unwrap()) as usize;
        let (s, n, m) = (word(0), word(4), word(8));
        let text: usize = (0..s).map(|i| word(12 + 4 * i)).sum();
        let strings = 12 + 4 * s;
        let names = strings + text + 48 * n;
        let ends = names + 4 * n;
        let flags = ends + 4 * n;
        let tags = flags + n + 4 * m;
        SpanLayout {
            strings,
            names,
            ends,
            flags,
            tags,
            n,
            m,
        }
    }

    #[test]
    fn resealed_span_mutations_are_typed_errors() {
        let encoded = encode_trace(&Trace {
            spans: sample_spans(),
        });
        let mutate = |edit: &dyn Fn(&mut Vec<u8>, &SpanLayout)| {
            let bytes = container::reseal(&TRACE_FORMAT, &encoded, TAG_SPANS, |p| {
                let layout = span_layout(p);
                edit(p, &layout)
            });
            decode_trace(&bytes).unwrap_err()
        };
        let put =
            |p: &mut Vec<u8>, at: usize, v: u32| p[at..at + 4].copy_from_slice(&v.to_le_bytes());

        // A span name past the string table.
        let err = mutate(&|p, l| put(p, l.names, u32::MAX));
        assert!(
            matches!(err, ColumnarError::IdOutOfRange { field: "name", .. }),
            "{err:?}"
        );
        // An unknown field tag.
        let err = mutate(&|p, l| p[l.tags] = 9);
        assert!(
            matches!(
                err,
                ColumnarError::BadEnum {
                    field: "tag",
                    value: 9,
                    ..
                }
            ),
            "{err:?}"
        );
        // A `Str` value whose string id is out of range (field 0 of
        // span 1 is the `domain` string).
        let err = mutate(&|p, l| {
            let value = l.tags + l.m + 8;
            p[value..value + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        });
        assert!(
            matches!(err, ColumnarError::IdOutOfRange { field: "value", .. }),
            "{err:?}"
        );
        // A field range past the end of the field rows, one that runs
        // backwards, and one that leaves the last row unowned.
        for back in [-1i64, 4, 1] {
            let err = mutate(&|p, l| put(p, l.ends + 4 * (l.n - 1), (l.m as i64 - back) as u32));
            assert!(
                matches!(
                    err,
                    ColumnarError::BadRange {
                        field: "fields",
                        ..
                    }
                ),
                "{err:?}"
            );
        }
        // Invalid UTF-8 in the string table.
        let err = mutate(&|p, l| p[l.strings] = 0xFF);
        assert!(matches!(err, ColumnarError::Malformed(_)), "{err:?}");
        // Unknown flag bits.
        let err = mutate(&|p, l| p[l.flags] = 0x80);
        assert!(
            matches!(err, ColumnarError::BadEnum { field: "flags", .. }),
            "{err:?}"
        );
        // Counts far beyond the payload never size an allocation.
        for at in [0, 4, 8] {
            let err = mutate(&|p, _| put(p, at, u32::MAX));
            assert!(
                matches!(err, ColumnarError::Truncated { .. }),
                "count at {at}: {err:?}"
            );
        }
    }
}
