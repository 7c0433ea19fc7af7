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
//! and the decoder checks every string id, flag, tag and field range,
//! and that every span name and field key is a vocabulary [`Word`].

use crate::columnar::ColumnarError;
use crate::container::{self, fits_u32, put_u32, put_u64, Cur, Format};
use std::collections::HashMap;
use std::sync::Arc;
use topics_obs::{FieldValue, SpanRecord, Text, Trace, Word};

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
///
/// The table holds text, not how the trace held it: a word and owned
/// text that spells it get the same id, so the bytes are the same for
/// any trace that reads the same.
pub(crate) fn encode_spans(spans: &[SpanRecord]) -> Vec<u8> {
    let mut strings = StringTable::new();
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
        put_u32(&mut names, strings.text(&s.name));
        for (key, value) in &s.fields {
            put_u32(&mut keys, strings.word(*key));
            let (tag, bits) = match value {
                FieldValue::U64(v) => (FIELD_U64, *v),
                FieldValue::I64(v) => (FIELD_I64, *v as u64),
                FieldValue::F64(v) => (FIELD_F64, v.to_bits()),
                FieldValue::Str(v) => (FIELD_STR, u64::from(strings.text(v))),
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
    let table = strings.table;
    let text: usize = table.iter().map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(12 + table.len() * 4 + text + n * 57 + tags.len() * 13);
    put_u32(&mut out, fits_u32(table.len(), "span string"));
    put_u32(&mut out, fits_u32(n, "span"));
    put_u32(&mut out, fits_u32(tags.len(), "span field"));
    for s in &table {
        put_u32(&mut out, fits_u32(s.len(), "span string length"));
    }
    for s in &table {
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

/// The spans section's string table under construction. A word is
/// found by its index, so only owned text is hashed, once per use.
struct StringTable<'a> {
    ids: HashMap<&'a str, u32>,
    table: Vec<&'a str>,
    words: [Option<u32>; Word::ALL.len()],
}

impl<'a> StringTable<'a> {
    fn new() -> StringTable<'a> {
        StringTable {
            ids: HashMap::new(),
            table: Vec::new(),
            words: [None; Word::ALL.len()],
        }
    }

    /// The id of `s`, interning it on first use.
    fn intern(&mut self, s: &'a str) -> u32 {
        let table = &mut self.table;
        *self.ids.entry(s).or_insert_with(|| {
            table.push(s);
            fits_u32(table.len() - 1, "span string")
        })
    }

    /// The id of `w`'s text: hashed on the word's first use only.
    fn word(&mut self, w: Word) -> u32 {
        match self.words[w as usize] {
            Some(id) => id,
            None => {
                let id = self.intern(w.as_str());
                self.words[w as usize] = Some(id);
                id
            }
        }
    }

    fn text(&mut self, t: &'a Text) -> u32 {
        match t {
            Text::Word(w) => self.word(*w),
            Text::Owned(s) => self.intern(s),
        }
    }
}

fn u32_at(col: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(col[i * 4..i * 4 + 4].try_into().unwrap())
}

fn u64_at(col: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(col[i * 8..i * 8 + 8].try_into().unwrap())
}

/// Decode and validate a `spans` section ([`encode_spans`]): every
/// string id, flag, tag and field range is checked, every span name
/// and field key must be a vocabulary word, and no allocation is sized
/// by a count the payload has not already proven. Each distinct string
/// is matched to its word once; a value that is a word is held as one,
/// and any other value is copied out once and shared by every value
/// that uses it.
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

    let texts: Vec<Text> = strings
        .iter()
        .map(|&s| Word::parse(s).map_or_else(|| Text::Owned(Arc::from(s)), Text::Word))
        .collect();
    let out_of_range = |field, id: u64| ColumnarError::IdOutOfRange {
        section: SECTION,
        field,
        id: u32::try_from(id).unwrap_or(u32::MAX),
        len: texts.len() as u32,
    };
    let text = |field, id: u64| {
        usize::try_from(id)
            .ok()
            .and_then(|i| texts.get(i))
            .ok_or_else(|| out_of_range(field, id))
    };
    let word = |field, id: u32| match text(field, u64::from(id))? {
        Text::Word(w) => Ok(*w),
        Text::Owned(_) => Err(ColumnarError::UnknownWord {
            section: SECTION,
            field,
            id,
        }),
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
                FIELD_STR => FieldValue::Str(text("value", v)?.clone()),
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
            fields.push((word("key", u32_at(keys, j))?, value));
        }
        field_start = field_end;
        spans.push(SpanRecord {
            id: u64_at(bounds[0], i),
            parent: optional(1, SPAN_PARENT)?,
            name: Text::Word(word("name", u32_at(names, i))?),
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
    /// patterns that `==` cannot tell apart. Names and keys are words
    /// the campaign records; the codec does not tie a key to a type.
    pub(crate) fn sample_spans() -> Vec<SpanRecord> {
        let span = |id, parent, name: Word, fields: Vec<(Word, FieldValue)>| SpanRecord {
            id,
            parent,
            name: Text::Word(name),
            op: false,
            sim_start_ms: Some(id * 10),
            sim_end_ms: Some(id * 10 + 5),
            wall_start_us: 0,
            wall_end_us: 0,
            fields,
        };
        let mut spans = vec![
            span(
                1,
                None,
                Word::Campaign,
                vec![(Word::Sites, FieldValue::U64(u64::MAX))],
            ),
            span(
                2,
                Some(1),
                Word::Visit,
                vec![
                    (Word::Domain, FieldValue::from("bücher.example")),
                    (Word::Retries, FieldValue::I64(-7)),
                    (Word::BusyUs, FieldValue::F64(-0.0)),
                    (
                        Word::SpanUs,
                        FieldValue::F64(f64::from_bits(0x7FF8_0000_0000_0ABC)),
                    ),
                    (Word::Ok, FieldValue::Bool(true)),
                ],
            ),
            span(3, Some(2), Word::Fetch, vec![]),
            span(
                4,
                Some(2),
                Word::Visit,
                vec![
                    // Owned text that spells a word shares the word's id.
                    (Word::Domain, FieldValue::from("visit")),
                    (Word::Ok, FieldValue::Bool(false)),
                    (Word::Host, FieldValue::from("")),
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

    /// The spans section [`sample_spans`] encodes to, in hex. The
    /// layout is the on-disk format of `trace.col` and of a segment's
    /// `spans` section, so these bytes must not move.
    const SAMPLE_SPANS_HEX: &str = concat!(
        "0c0000000400000009000000080000000500000005000000060000000f000000",
        "0700000007000000070000000200000005000000040000000000000063616d70",
        "6169676e73697465737669736974646f6d61696e62c3bc636865722e6578616d",
        "706c6572657472696573627573795f75737370616e5f75736f6b666574636868",
        "6f73740100000000000000020000000000000003000000000000000400000000",
        "0000000000000000000000010000000000000002000000000000000200000000",
        "0000000a0000000000000014000000000000001e000000000000000000000000",
        "0000000f00000000000000190000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000c00000000",
        "0000000000000000000000000000000000000000000000000000002200000000",
        "0000000000000002000000090000000200000001000000060000000600000009",
        "0000000c0e060301000000030000000500000006000000070000000800000003",
        "000000080000000a000000000301020204030403ffffffffffffffff04000000",
        "00000000f9ffffffffffffff0000000000000080bc0a00000000f87f01000000",
        "00000000020000000000000000000000000000000b00000000000000",
    );

    #[test]
    fn sample_span_bytes_are_pinned() {
        let hex: String = encode_spans(&sample_spans())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, SAMPLE_SPANS_HEX);
    }

    /// The spans section's string table: each string's byte offset in
    /// the payload, and its text.
    fn string_table(p: &[u8]) -> Vec<(usize, &str)> {
        let word = |at: usize| u32::from_le_bytes(p[at..at + 4].try_into().unwrap()) as usize;
        let mut at = span_layout(p).strings;
        (0..word(0))
            .map(|i| {
                let text = &p[at..at + word(12 + 4 * i)];
                at += text.len();
                (at - text.len(), std::str::from_utf8(text).unwrap())
            })
            .collect()
    }

    /// The id of `text` in a spans section's string table.
    fn string_id(p: &[u8], text: &str) -> u32 {
        string_table(p)
            .iter()
            .position(|&(_, s)| s == text)
            .unwrap() as u32
    }

    /// An in-place edit of a spans section's payload.
    pub(crate) type PayloadEdit = fn(&mut Vec<u8>);

    /// Edits of a [`sample_spans`] spans section, each leaving a span
    /// name or field key that is no vocabulary word, with the error the
    /// decoder must return for it: the root's name spelled `Campaign`,
    /// its first key spelled `Sites`, and span 2's name pointed at the
    /// `bücher.example` domain string.
    pub(crate) fn non_word_edits() -> Vec<(PayloadEdit, ColumnarError)> {
        let encoded = encode_spans(&sample_spans());
        let unknown = |field, text| ColumnarError::UnknownWord {
            section: "spans",
            field,
            id: string_id(&encoded, text),
        };
        let misspell: [PayloadEdit; 2] = [
            |p| {
                let at = string_table(p)[string_id(p, "campaign") as usize].0;
                p[at] = b'C';
            },
            |p| {
                let at = string_table(p)[string_id(p, "sites") as usize].0;
                p[at] = b'S';
            },
        ];
        let name_a_host: PayloadEdit = |p| {
            let (at, id) = (span_layout(p).names + 4, string_id(p, "bücher.example"));
            p[at..at + 4].copy_from_slice(&id.to_le_bytes());
        };
        vec![
            (misspell[0], unknown("name", "campaign")),
            (misspell[1], unknown("key", "sites")),
            (name_a_host, unknown("name", "bücher.example")),
        ]
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
        // A span name or field key that is no vocabulary word, whether
        // its string is misspelt or its id points at a host.
        for (edit, want) in non_word_edits() {
            let err = mutate(&|p, _| edit(p));
            assert_eq!(err, want);
            assert!(err.to_string().contains("not a span vocabulary word"));
        }
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
