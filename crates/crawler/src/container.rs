//! The sectioned binary container shared by `campaign.col` and shard
//! segments.
//!
//! Everything is little-endian:
//!
//! ```text
//! magic [u8; 8]    | version u32 | preamble (fixed length, per format)
//! section count u32
//! directory: per section { tag u8, offset u64, len u64, fnv1a u64 }
//! header checksum u64 (FNV-1a over every preceding byte)
//! section payloads, contiguous, in directory order
//! ```
//!
//! A [`Format`] names the magic, the newest version this build reads,
//! the preamble length and the sections every file must carry.
//! [`assemble`] writes the canonical bytes. [`parse`] checks the magic,
//! the version, the header checksum, and that the directory names each
//! section exactly once with payloads tiling the rest of the file;
//! [`Directory::section`] verifies a payload's checksum on access, so a
//! reader pays for (and trusts) only the sections it touches.

use crate::columnar::ColumnarError;
use topics_net::seed::fnv1a;

/// The fixed shape of one container format.
#[derive(Debug)]
pub(crate) struct Format {
    /// First eight bytes of every file.
    pub magic: [u8; 8],
    /// Newest version this build reads (and the one it writes).
    pub version: u32,
    /// Length of the format-specific fields between version and
    /// section count.
    pub preamble_len: usize,
    /// Every section a file carries, as `(tag, name)`, in canonical
    /// order.
    pub sections: &'static [(u8, &'static str)],
}

impl Format {
    /// The name of a section tag (`"unknown"` for foreign tags).
    pub fn tag_name(&self, tag: u8) -> &'static str {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map_or("unknown", |(_, name)| name)
    }
}

/// Bytes of one directory entry: tag, offset, len, fnv1a.
const DIR_ENTRY_LEN: usize = 1 + 8 + 8 + 8;

/// `n` as a `u32`, the width of every count and id in both formats.
///
/// # Panics
///
/// Panics if `n` does not fit.
pub(crate) fn fits_u32(n: usize, what: &str) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| panic!("{what} count {n} exceeds the u32 limit"))
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Assemble magic, version, preamble, directory, header checksum and
/// payloads into the canonical file bytes.
pub(crate) fn assemble(format: &Format, preamble: &[u8], sections: &[(u8, &[u8])]) -> Vec<u8> {
    let digested: Vec<(u8, &[u8], u64)> = sections
        .iter()
        .map(|&(tag, payload)| (tag, payload, fnv1a(payload)))
        .collect();
    assemble_digested(format, preamble, &digested)
}

/// [`assemble`] over `(tag, payload, FNV-1a of payload)` triples, for
/// a writer that digests its sections itself (the columnar writer does
/// so on the worker pool).
pub(crate) fn assemble_digested(
    format: &Format,
    preamble: &[u8],
    sections: &[(u8, &[u8], u64)],
) -> Vec<u8> {
    debug_assert_eq!(preamble.len(), format.preamble_len);
    let header_len = 8 + 4 + preamble.len() + 4 + sections.len() * DIR_ENTRY_LEN + 8;
    let payload_len: usize = sections.iter().map(|(_, p, _)| p.len()).sum();
    let mut bytes = Vec::with_capacity(header_len + payload_len);
    bytes.extend_from_slice(&format.magic);
    put_u32(&mut bytes, format.version);
    bytes.extend_from_slice(preamble);
    put_u32(&mut bytes, fits_u32(sections.len(), "section"));
    // Payloads sit back to back, right after the directory + checksum.
    let mut offset = header_len as u64;
    for (tag, payload, digest) in sections {
        bytes.push(*tag);
        put_u64(&mut bytes, offset);
        put_u64(&mut bytes, payload.len() as u64);
        put_u64(&mut bytes, *digest);
        offset += payload.len() as u64;
    }
    let header_checksum = fnv1a(&bytes);
    put_u64(&mut bytes, header_checksum);
    for (_, payload, _) in sections {
        bytes.extend_from_slice(payload);
    }
    bytes
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct DirEntry {
    pub tag: u8,
    pub offset: u64,
    pub len: u64,
    pub fnv1a: u64,
}

/// A validated section directory: every entry lies inside the file it
/// was parsed from.
#[derive(Debug, Clone)]
pub(crate) struct Directory {
    format: &'static Format,
    entries: Vec<DirEntry>,
}

impl Directory {
    /// Directory entries, in file order.
    pub fn entries(&self) -> &[DirEntry] {
        &self.entries
    }

    /// The name of a section tag.
    pub fn tag_name(&self, tag: u8) -> &'static str {
        self.format.tag_name(tag)
    }

    /// Checksum-verified payload of section `tag` within `bytes`, the
    /// buffer the directory was parsed from.
    pub fn section<'a>(&self, bytes: &'a [u8], tag: u8) -> Result<&'a [u8], ColumnarError> {
        let name = self.tag_name(tag);
        let e = self
            .entries
            .iter()
            .find(|e| e.tag == tag)
            .ok_or(ColumnarError::MissingSection(name))?;
        // `parse` proved every entry lies inside the file.
        let payload = &bytes[e.offset as usize..(e.offset + e.len) as usize];
        let actual = fnv1a(payload);
        if actual != e.fnv1a {
            return Err(ColumnarError::SectionChecksum {
                section: name,
                expected: e.fnv1a,
                actual,
            });
        }
        Ok(payload)
    }
}

/// Parse and validate the header and directory of `bytes`. `preamble`
/// reads the format's fixed fields right after the version, before the
/// header checksum is known — it must not trust what it reads beyond
/// rejecting it.
pub(crate) fn parse<'a, T>(
    format: &'static Format,
    bytes: &'a [u8],
    preamble: impl FnOnce(&mut Cur<'a>) -> Result<T, ColumnarError>,
) -> Result<(T, Directory), ColumnarError> {
    // Magic first, so any other file is named as such rather than as a
    // short container; a cut-off prefix of the magic is truncation.
    let magic = bytes.len().min(format.magic.len());
    if bytes[..magic] != format.magic[..magic] {
        return Err(ColumnarError::BadMagic);
    }
    let fixed = 8 + 4 + format.preamble_len + 4;
    if bytes.len() < fixed {
        return Err(ColumnarError::Truncated {
            section: "header",
            need: fixed,
            have: bytes.len(),
        });
    }
    let mut cur = Cur::new(&bytes[8..], "header");
    let version = cur.u32()?;
    if version > format.version {
        return Err(ColumnarError::UnsupportedVersion(version));
    }
    let fields = preamble(&mut cur)?;
    let section_count = cur.u32()? as usize;
    // The count is not yet checksummed: never size by it.
    let mut entries = Vec::with_capacity(section_count.min(format.sections.len()));
    for _ in 0..section_count {
        entries.push(DirEntry {
            tag: cur.u8()?,
            offset: cur.u64()?,
            len: cur.u64()?,
            fnv1a: cur.u64()?,
        });
    }
    let dir_end = 8 + cur.pos;
    let actual = fnv1a(&bytes[..dir_end]);
    let expected = Cur::new(&bytes[dir_end..], "header").u64()?;
    if expected != actual {
        return Err(ColumnarError::HeaderChecksum { expected, actual });
    }

    // The directory must name each known section exactly once, and
    // payloads must tile the rest of the file contiguously in
    // directory order — anything else is trailing or missing data.
    let mut offset = (dir_end + 8) as u64;
    for e in &entries {
        if !format.sections.iter().any(|(t, _)| *t == e.tag) {
            return Err(ColumnarError::UnknownSection(e.tag));
        }
        if entries.iter().filter(|o| o.tag == e.tag).count() > 1 {
            return Err(ColumnarError::DuplicateSection(format.tag_name(e.tag)));
        }
        if e.offset != offset {
            return Err(ColumnarError::Malformed(format!(
                "section {} at offset {} where {} was expected",
                format.tag_name(e.tag),
                e.offset,
                offset
            )));
        }
        offset = offset.checked_add(e.len).ok_or_else(|| {
            ColumnarError::Malformed(format!(
                "section {} length overflows",
                format.tag_name(e.tag)
            ))
        })?;
    }
    for &(tag, name) in format.sections {
        if !entries.iter().any(|e| e.tag == tag) {
            return Err(ColumnarError::MissingSection(name));
        }
    }
    match offset.cmp(&(bytes.len() as u64)) {
        std::cmp::Ordering::Less => return Err(ColumnarError::TrailingData("file")),
        std::cmp::Ordering::Greater => {
            return Err(ColumnarError::Truncated {
                section: "file",
                need: offset as usize,
                have: bytes.len(),
            })
        }
        std::cmp::Ordering::Equal => {}
    }
    Ok((fields, Directory { format, entries }))
}

/// A bounds-checked little-endian reader over one region of a file.
pub(crate) struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cur<'a> {
    pub fn new(buf: &'a [u8], section: &'static str) -> Cur<'a> {
        Cur {
            buf,
            pos: 0,
            section,
        }
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ColumnarError> {
        let have = self.buf.len() - self.pos;
        if n > have {
            return Err(ColumnarError::Truncated {
                section: self.section,
                need: n,
                have,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The raw bytes of `n` fixed-width values, `width` bytes each.
    pub fn column(&mut self, n: usize, width: usize) -> Result<&'a [u8], ColumnarError> {
        let len = n.checked_mul(width).ok_or_else(|| {
            ColumnarError::Malformed(format!("{}: column too long", self.section))
        })?;
        self.take(len)
    }

    pub fn u8(&mut self) -> Result<u8, ColumnarError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, ColumnarError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, ColumnarError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn u8s(&mut self, n: usize) -> Result<Vec<u8>, ColumnarError> {
        Ok(self.take(n)?.to_vec())
    }

    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, ColumnarError> {
        Ok(self
            .column(n, 4)?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, ColumnarError> {
        Ok(self
            .column(n, 8)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    pub fn bits(&mut self, n: usize) -> Result<Vec<bool>, ColumnarError> {
        let raw = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| raw[i / 8] & (1 << (i % 8)) != 0).collect())
    }

    pub fn done(self) -> Result<(), ColumnarError> {
        if self.pos != self.buf.len() {
            return Err(ColumnarError::TrailingData(self.section));
        }
        Ok(())
    }
}

/// Replace section `tag`'s payload via `edit` and re-seal the file:
/// fresh offsets, section digests and header checksum, so the mutation
/// gets past the checksums to the decoders.
#[cfg(test)]
pub(crate) fn reseal(
    format: &'static Format,
    bytes: &[u8],
    tag: u8,
    edit: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let (preamble, dir) = parse(format, bytes, |cur| cur.take(format.preamble_len)).unwrap();
    let payload = |e: &DirEntry| bytes[e.offset as usize..(e.offset + e.len) as usize].to_vec();
    let mut sections: Vec<(u8, Vec<u8>)> =
        dir.entries.iter().map(|e| (e.tag, payload(e))).collect();
    edit(&mut sections.iter_mut().find(|(t, _)| *t == tag).unwrap().1);
    let refs: Vec<(u8, &[u8])> = sections.iter().map(|(t, p)| (*t, p.as_slice())).collect();
    assemble(format, preamble, &refs)
}
