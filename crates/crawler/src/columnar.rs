//! Columnar campaign store: interned struct-of-arrays record layout.
//!
//! The analyses are column scans over visit/call fields, and a row
//! store would re-deserialize the full world and re-allocate every
//! domain string once per occurrence on every `report` run. This
//! module stores a [`CampaignOutcome`] as parallel arrays with one
//! campaign-wide string-interning table for
//! [`Domain`]s: `party_domains` becomes a range into a shared id
//! vector, every call's caller/caller-site/script-source a `u32`, and
//! booleans bitsets. Rebuilding the outcome clones `Arc`s out of the
//! arena, so equal domains share storage instead of repeating their
//! bytes.
//!
//! # File layout (`campaign.col`)
//!
//! Everything is little-endian:
//!
//! ```text
//! magic "TOPICCOL" | container version u32 | schema version u32
//! started u64      | row counts 8 x u32    | section count u32
//! directory: per section { tag u8, offset u64, len u64, fnv1a u64 }
//! header checksum u64 (FNV-1a over every preceding byte)
//! section payloads, contiguous, in directory order
//! ```
//!
//! This is the sectioned container shard segments use as well (see
//! `container.rs`), with the schema version, start time and row counts
//! as its format-specific preamble. The eight sections (`strings`,
//! `errors`, `sites`, `visits`, `parties`, `calls`, `allow`, `probes`)
//! are length-prefixed by the directory and individually checksummed
//! with FNV-1a ([`topics_net::seed::fnv1a`]), so truncation, bit-rot,
//! and editing are named errors ([`ColumnarError`]).
//! Sections are decoded lazily and independently — the row counts live
//! in the header, so a reader that only needs the call columns never
//! touches the visit columns — and every decoded section is validated
//! eagerly (enum bytes, id bounds, range bounds), making the scan views
//! infallible.
//!
//! Writes are deterministic: the intern table assigns ids in first-use
//! order of a rank-order walk over the outcome, so the same seed
//! produces byte-identical files across runs, thread counts, and the
//! crawl-vs-sharded-merge paths.

use crate::container::{self, fits_u32, put_u32, put_u64, Cur, Directory, Format};
use crate::record::{
    AttestationInfo, AttestationProbe, CampaignOutcome, FaultStats, Phase, SiteOutcome,
    TopicsCallRecord, UnknownSchemaVersion, VisitRecord, CAMPAIGN_SCHEMA_VERSION,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;
use topics_browser::attestation::AllowDecision;
use topics_browser::observer::CallType;
use topics_net::clock::Timestamp;
use topics_net::domain::Domain;
use topics_net::pool;
use topics_net::seed::fnv1a;

/// First eight bytes of every columnar campaign file.
pub const COLUMNAR_MAGIC: [u8; 8] = *b"TOPICCOL";

/// Container format version; bumped on incompatible layout change.
/// Distinct from the record schema version, which travels alongside it.
pub const COLUMNAR_VERSION: u32 = 1;

/// Sentinel id for "absent" in optional id columns.
const NONE_ID: u32 = u32::MAX;

const TAG_STRINGS: u8 = 1;
const TAG_ERRORS: u8 = 2;
const TAG_SITES: u8 = 3;
const TAG_VISITS: u8 = 4;
const TAG_PARTIES: u8 = 5;
const TAG_CALLS: u8 = 6;
const TAG_ALLOW: u8 = 7;
const TAG_PROBES: u8 = 8;

/// The `campaign.col` container: its preamble carries the record
/// schema version, the start time and the eight row counts, and every
/// file holds all eight sections in this order.
static FORMAT: Format = Format {
    magic: COLUMNAR_MAGIC,
    version: COLUMNAR_VERSION,
    preamble_len: 4 + 8 + 8 * 4,
    sections: &[
        (TAG_STRINGS, "strings"),
        (TAG_ERRORS, "errors"),
        (TAG_SITES, "sites"),
        (TAG_VISITS, "visits"),
        (TAG_PARTIES, "parties"),
        (TAG_CALLS, "calls"),
        (TAG_ALLOW, "allow"),
        (TAG_PROBES, "probes"),
    ],
};

/// Everything that can be wrong with a file in the sectioned container
/// — `campaign.col`, or a shard segment, whose
/// [`SegmentError`](crate::shard::SegmentError) wraps it: named, typed,
/// and specific enough to debug a corrupt file from the message alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnarError {
    /// The buffer ends before the advertised data does.
    Truncated {
        /// Which region was being read.
        section: &'static str,
        /// Bytes the read needed.
        need: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// The file does not start with [`COLUMNAR_MAGIC`].
    BadMagic,
    /// The container version is newer than this build.
    UnsupportedVersion(u32),
    /// The record schema version is newer than this build.
    UnknownSchema(UnknownSchemaVersion),
    /// The header/directory checksum does not match.
    HeaderChecksum {
        /// Digest recorded in the file.
        expected: u64,
        /// Digest of the bytes actually present.
        actual: u64,
    },
    /// A section's payload does not match its directory checksum.
    SectionChecksum {
        /// Section name.
        section: &'static str,
        /// Digest recorded in the directory.
        expected: u64,
        /// Digest of the payload actually present.
        actual: u64,
    },
    /// A required section is absent from the directory.
    MissingSection(&'static str),
    /// A section appears twice in the directory.
    DuplicateSection(&'static str),
    /// A directory entry names a tag this build does not know.
    UnknownSection(u8),
    /// A section decoded fully but left unread bytes behind.
    TrailingData(&'static str),
    /// An enum column holds a byte outside the known variants.
    BadEnum {
        /// Section name.
        section: &'static str,
        /// Column name.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// An id column references past the end of its target table.
    IdOutOfRange {
        /// Section name.
        section: &'static str,
        /// Column name.
        field: &'static str,
        /// The offending id.
        id: u32,
        /// Length of the table it indexes.
        len: u32,
    },
    /// A (start, len) range column exceeds its target table.
    BadRange {
        /// Section name.
        section: &'static str,
        /// Column name.
        field: &'static str,
    },
    /// An interned string is referenced by no column (referential
    /// integrity: the arena must carry no dead weight).
    OrphanString(u32),
    /// A span name or field key references a string that is not a word
    /// of the span vocabulary ([`topics_obs::Word`]).
    UnknownWord {
        /// Section name.
        section: &'static str,
        /// Column name (`name` or `key`).
        field: &'static str,
        /// The string id the column holds.
        id: u32,
    },
    /// Anything else structurally wrong, with a human-readable reason.
    Malformed(String),
}

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnarError::Truncated {
                section,
                need,
                have,
            } => write!(
                f,
                "columnar {section}: truncated (need {need} bytes, have {have})"
            ),
            ColumnarError::BadMagic => write!(f, "not a columnar campaign file (bad magic)"),
            ColumnarError::UnsupportedVersion(v) => write!(
                f,
                "columnar container version {v} (this build reads <= {COLUMNAR_VERSION})"
            ),
            ColumnarError::UnknownSchema(e) => write!(f, "{e}"),
            ColumnarError::HeaderChecksum { expected, actual } => write!(
                f,
                "columnar header checksum mismatch: recorded {expected:016x}, computed {actual:016x}"
            ),
            ColumnarError::SectionChecksum {
                section,
                expected,
                actual,
            } => write!(
                f,
                "columnar section {section}: checksum mismatch (recorded {expected:016x}, computed {actual:016x})"
            ),
            ColumnarError::MissingSection(s) => write!(f, "columnar section {s}: missing"),
            ColumnarError::DuplicateSection(s) => write!(f, "columnar section {s}: duplicated"),
            ColumnarError::UnknownSection(t) => write!(f, "columnar directory: unknown section tag {t}"),
            ColumnarError::TrailingData(s) => {
                write!(f, "columnar section {s}: trailing bytes after payload")
            }
            ColumnarError::BadEnum {
                section,
                field,
                value,
            } => write!(f, "columnar {section}.{field}: invalid enum byte {value}"),
            ColumnarError::IdOutOfRange {
                section,
                field,
                id,
                len,
            } => write!(
                f,
                "columnar {section}.{field}: id {id} out of range (table holds {len})"
            ),
            ColumnarError::BadRange { section, field } => {
                write!(f, "columnar {section}.{field}: range exceeds its table")
            }
            ColumnarError::OrphanString(id) => write!(
                f,
                "columnar strings: interned string {id} is referenced by no column"
            ),
            ColumnarError::UnknownWord { section, field, id } => write!(
                f,
                "columnar {section}.{field}: string {id} is not a span vocabulary word"
            ),
            ColumnarError::Malformed(why) => write!(f, "columnar store malformed: {why}"),
        }
    }
}

impl std::error::Error for ColumnarError {}

// ---------------------------------------------------------------------------
// Bit packing.

fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Enum codes.

fn phase_code(p: Phase) -> u8 {
    match p {
        Phase::BeforeAccept => 0,
        Phase::AfterAccept => 1,
        Phase::AfterReject => 2,
    }
}

fn phase_from(b: u8) -> Option<Phase> {
    match b {
        0 => Some(Phase::BeforeAccept),
        1 => Some(Phase::AfterAccept),
        2 => Some(Phase::AfterReject),
        _ => None,
    }
}

fn call_type_code(c: CallType) -> u8 {
    match c {
        CallType::JavaScript => 0,
        CallType::Fetch => 1,
        CallType::Iframe => 2,
    }
}

fn call_type_from(b: u8) -> Option<CallType> {
    match b {
        0 => Some(CallType::JavaScript),
        1 => Some(CallType::Fetch),
        2 => Some(CallType::Iframe),
        _ => None,
    }
}

fn decision_code(d: AllowDecision) -> u8 {
    match d {
        AllowDecision::AllowedEnrolled => 0,
        AllowDecision::AllowedFailOpen => 1,
        AllowDecision::BlockedNotEnrolled => 2,
        AllowDecision::BlockedFailClosed => 3,
    }
}

fn decision_from(b: u8) -> Option<AllowDecision> {
    match b {
        0 => Some(AllowDecision::AllowedEnrolled),
        1 => Some(AllowDecision::AllowedFailOpen),
        2 => Some(AllowDecision::BlockedNotEnrolled),
        3 => Some(AllowDecision::BlockedFailClosed),
        _ => None,
    }
}

const FAULT_TIMED_OUT: u8 = 1;
const FAULT_SECOND_VISIT_FAILED: u8 = 2;

// ---------------------------------------------------------------------------
// Column groups (in-memory form of the decoded sections).

#[derive(Debug, Clone, Default)]
struct SiteCols {
    rank: Vec<u32>,
    website: Vec<u32>,
    before: Vec<u32>,
    after: Vec<u32>,
    error: Vec<u32>,
    retries: Vec<u32>,
    flags: Vec<u8>,
}

#[derive(Debug, Clone, Default)]
struct VisitCols {
    phase: Vec<u8>,
    website: Vec<u32>,
    final_website: Vec<u32>,
    party_start: Vec<u32>,
    party_len: Vec<u32>,
    object_count: Vec<u32>,
    failed_objects: Vec<u32>,
    call_start: Vec<u32>,
    call_len: Vec<u32>,
    started: Vec<u64>,
    duration_ms: Vec<u64>,
    banner: Vec<bool>,
}

#[derive(Debug, Clone, Default)]
struct CallCols {
    caller: Vec<u32>,
    caller_site: Vec<u32>,
    script_source: Vec<u32>,
    call_type: Vec<u8>,
    decision: Vec<u8>,
    topics_returned: Vec<u32>,
    timestamp: Vec<u64>,
    root_context: Vec<bool>,
}

#[derive(Debug, Clone, Default)]
struct ProbeCols {
    domain: Vec<u32>,
    issued: Vec<u64>,
    valid: Vec<bool>,
    enrollment_site: Vec<bool>,
}

// ---------------------------------------------------------------------------
// Builder.

/// Streams [`SiteOutcome`]s (in rank order) into column vectors and
/// encodes the canonical byte layout. [`push_site`](Self::push_site)
/// is the one way rows enter a builder. The shard merge streams sites
/// segment by segment into one builder without ever materialising the
/// row-struct campaign. [`ColumnarCampaign::from_outcome`] (and a shard
/// segment's store) cuts the sites into one contiguous chunk per
/// worker, fills a builder per chunk on the worker pool, and absorbs
/// the chunks in rank order into the first: a string or error first
/// seen in chunk k is absent from every earlier chunk, so interning
/// chunk k's table in its own first-use order hands out exactly the
/// ids the one-builder walk would. Both paths, at any worker count,
/// produce byte-identical files. [`finish`](Self::finish) encodes and
/// digests the eight sections on the pool as well.
#[derive(Debug, Default)]
pub struct ColumnarBuilder {
    intern: HashMap<Domain, u32>,
    arena: Vec<Domain>,
    error_ids: HashMap<String, u32>,
    errors: Vec<String>,
    sites: SiteCols,
    visits: VisitCols,
    parties: Vec<u32>,
    calls: CallCols,
}

impl ColumnarBuilder {
    /// An empty builder.
    pub fn new() -> ColumnarBuilder {
        ColumnarBuilder::default()
    }

    fn intern(&mut self, d: &Domain) -> u32 {
        if let Some(&id) = self.intern.get(d) {
            return id;
        }
        let id = fits_u32(self.arena.len(), "interned string");
        self.arena.push(d.clone());
        self.intern.insert(d.clone(), id);
        id
    }

    /// [`intern`](Self::intern) of an owned domain: one hash lookup,
    /// the key moved into the table.
    fn intern_owned(&mut self, d: Domain) -> u32 {
        match self.intern.entry(d) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = fits_u32(self.arena.len(), "interned string");
                self.arena.push(e.key().clone());
                *e.insert(id)
            }
        }
    }

    fn intern_error(&mut self, e: &str) -> u32 {
        if let Some(&id) = self.error_ids.get(e) {
            return id;
        }
        let id = fits_u32(self.errors.len(), "error string");
        self.errors.push(e.to_owned());
        self.error_ids.insert(e.to_owned(), id);
        id
    }

    /// [`intern_error`](Self::intern_error) of an owned message: one
    /// hash lookup, the key moved into the table.
    fn intern_error_owned(&mut self, e: String) -> u32 {
        match self.error_ids.entry(e) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = fits_u32(self.errors.len(), "error string");
                self.errors.push(e.key().clone());
                *e.insert(id)
            }
        }
    }

    fn push_visit(&mut self, v: &VisitRecord) -> u32 {
        let idx = fits_u32(self.visits.phase.len(), "visit");
        self.visits.phase.push(phase_code(v.phase));
        let website = self.intern(&v.website);
        self.visits.website.push(website);
        let final_website = self.intern(&v.final_website);
        self.visits.final_website.push(final_website);
        self.visits
            .party_start
            .push(fits_u32(self.parties.len(), "party id"));
        self.visits
            .party_len
            .push(fits_u32(v.party_domains.len(), "party range"));
        for d in &v.party_domains {
            let id = self.intern(d);
            self.parties.push(id);
        }
        self.visits
            .object_count
            .push(fits_u32(v.object_count, "object"));
        self.visits
            .failed_objects
            .push(fits_u32(v.failed_objects, "failed object"));
        self.visits
            .call_start
            .push(fits_u32(self.calls.caller.len(), "call"));
        self.visits
            .call_len
            .push(fits_u32(v.topics_calls.len(), "call range"));
        for c in &v.topics_calls {
            self.push_call(c);
        }
        self.visits.started.push(v.started.0);
        self.visits.duration_ms.push(v.duration_ms);
        self.visits.banner.push(v.banner_found);
        idx
    }

    fn push_call(&mut self, c: &TopicsCallRecord) {
        let caller = self.intern(&c.caller);
        self.calls.caller.push(caller);
        let caller_site = self.intern(&c.caller_site);
        self.calls.caller_site.push(caller_site);
        let script_source = match &c.script_source {
            Some(d) => self.intern(d),
            None => NONE_ID,
        };
        self.calls.script_source.push(script_source);
        self.calls.call_type.push(call_type_code(c.call_type));
        self.calls.decision.push(decision_code(c.decision));
        self.calls
            .topics_returned
            .push(fits_u32(c.topics_returned, "topics_returned"));
        self.calls.timestamp.push(c.timestamp.0);
        self.calls.root_context.push(c.root_context);
    }

    /// Append one site's rows. Call in rank order: the intern table
    /// assigns ids first-use-first, so the push order is part of the
    /// byte-identity contract.
    pub fn push_site(&mut self, site: &SiteOutcome) {
        self.sites.rank.push(fits_u32(site.rank, "rank"));
        let website = self.intern(&site.website);
        self.sites.website.push(website);
        let before = site.before.as_ref().map(|v| self.push_visit(v));
        self.sites.before.push(before.unwrap_or(NONE_ID));
        let after = site.after.as_ref().map(|v| self.push_visit(v));
        self.sites.after.push(after.unwrap_or(NONE_ID));
        let error = site.error.as_deref().map(|e| self.intern_error(e));
        self.sites.error.push(error.unwrap_or(NONE_ID));
        self.sites.retries.push(site.faults.retries);
        let mut flags = 0u8;
        if site.faults.timed_out {
            flags |= FAULT_TIMED_OUT;
        }
        if site.faults.second_visit_failed {
            flags |= FAULT_SECOND_VISIT_FAILED;
        }
        self.sites.flags.push(flags);
    }

    /// Append `chunk`, a builder filled with the sites that follow this
    /// builder's in rank order, as if its sites had been pushed here.
    /// The chunk's strings and errors are interned in its own
    /// first-use order, its ids rewritten (`NONE_ID` stays), and its
    /// visit, party and call positions offset by this builder's row
    /// counts.
    fn absorb(&mut self, chunk: ColumnarBuilder) {
        let ColumnarBuilder {
            arena,
            errors,
            sites,
            visits,
            parties,
            calls,
            ..
        } = chunk;
        self.intern.reserve(arena.len());
        let ids: Vec<u32> = arena.into_iter().map(|d| self.intern_owned(d)).collect();
        let error_ids: Vec<u32> = errors
            .into_iter()
            .map(|e| self.intern_error_owned(e))
            .collect();
        let id = |i: &u32| ids[*i as usize];
        let opt = |table: &[u32], i: u32| {
            if i == NONE_ID {
                NONE_ID
            } else {
                table[i as usize]
            }
        };
        // The offset rows must stay addressable, as `push_site` checks.
        let visit_base = fits_u32(self.visits.phase.len(), "visit");
        fits_u32(self.visits.phase.len() + visits.phase.len(), "visit");
        let party_base = fits_u32(self.parties.len(), "party id");
        fits_u32(self.parties.len() + parties.len(), "party id");
        let call_base = fits_u32(self.calls.caller.len(), "call");
        fits_u32(self.calls.caller.len() + calls.caller.len(), "call");
        let visit = |i: &u32| {
            if *i == NONE_ID {
                NONE_ID
            } else {
                i + visit_base
            }
        };

        let (s, cs) = (&mut self.sites, sites);
        s.rank.extend(cs.rank);
        s.website.extend(cs.website.iter().map(id));
        s.before.extend(cs.before.iter().map(visit));
        s.after.extend(cs.after.iter().map(visit));
        s.error.extend(cs.error.iter().map(|&e| opt(&error_ids, e)));
        s.retries.extend(cs.retries);
        s.flags.extend(cs.flags);

        let (v, cv) = (&mut self.visits, visits);
        v.phase.extend(cv.phase);
        v.website.extend(cv.website.iter().map(id));
        v.final_website.extend(cv.final_website.iter().map(id));
        v.party_start
            .extend(cv.party_start.iter().map(|p| p + party_base));
        v.party_len.extend(cv.party_len);
        v.object_count.extend(cv.object_count);
        v.failed_objects.extend(cv.failed_objects);
        v.call_start
            .extend(cv.call_start.iter().map(|c| c + call_base));
        v.call_len.extend(cv.call_len);
        v.started.extend(cv.started);
        v.duration_ms.extend(cv.duration_ms);
        v.banner.extend(cv.banner);

        self.parties.extend(parties.iter().map(id));

        let (c, cc) = (&mut self.calls, calls);
        c.caller.extend(cc.caller.iter().map(id));
        c.caller_site.extend(cc.caller_site.iter().map(id));
        c.script_source
            .extend(cc.script_source.iter().map(|&i| opt(&ids, i)));
        c.call_type.extend(cc.call_type);
        c.decision.extend(cc.decision);
        c.topics_returned.extend(cc.topics_returned);
        c.timestamp.extend(cc.timestamp);
        c.root_context.extend(cc.root_context);
    }

    /// Encode the finished campaign. `allow_list` and `probes` arrive
    /// last because the merge only has the full probe set once every
    /// segment has streamed through. The sections are encoded and
    /// digested on [`pool::available_workers`] workers.
    pub fn finish(
        self,
        schema_version: u32,
        allow_list: &[Domain],
        probes: &[AttestationProbe],
        started: Timestamp,
    ) -> ColumnarCampaign {
        let workers = pool::available_workers();
        self.finish_with(schema_version, allow_list, probes, started, workers)
    }

    /// [`finish`](Self::finish) over `workers` encode workers.
    fn finish_with(
        mut self,
        schema_version: u32,
        allow_list: &[Domain],
        probes: &[AttestationProbe],
        started: Timestamp,
        workers: usize,
    ) -> ColumnarCampaign {
        let allow: Vec<u32> = allow_list.iter().map(|d| self.intern(d)).collect();
        let mut probe_cols = ProbeCols::default();
        for p in probes {
            let id = self.intern(&p.domain);
            probe_cols.domain.push(id);
            match &p.valid {
                Some(info) => {
                    probe_cols.issued.push(info.issued.0);
                    probe_cols.valid.push(true);
                    probe_cols.enrollment_site.push(info.has_enrollment_site);
                }
                None => {
                    probe_cols.issued.push(0);
                    probe_cols.valid.push(false);
                    probe_cols.enrollment_site.push(false);
                }
            }
        }
        let counts = [
            fits_u32(self.arena.len(), "string"),
            fits_u32(self.errors.len(), "error"),
            fits_u32(self.sites.rank.len(), "site"),
            fits_u32(self.visits.phase.len(), "visit"),
            fits_u32(self.parties.len(), "party"),
            fits_u32(self.calls.caller.len(), "call"),
            fits_u32(allow.len(), "allow-list entry"),
            fits_u32(probe_cols.domain.len(), "probe"),
        ];
        // One job per section, in directory order; each encodes its
        // payload and digests it.
        let jobs: Vec<SectionJob<'_>> = vec![
            (TAG_STRINGS, Box::new(|| encode_strings(&self.arena))),
            (TAG_ERRORS, Box::new(|| encode_errors(&self.errors))),
            (TAG_SITES, Box::new(|| encode_sites(&self.sites))),
            (TAG_VISITS, Box::new(|| encode_visits(&self.visits))),
            (TAG_PARTIES, Box::new(|| encode_u32s(&self.parties))),
            (TAG_CALLS, Box::new(|| encode_calls(&self.calls))),
            (TAG_ALLOW, Box::new(|| encode_u32s(&allow))),
            (TAG_PROBES, Box::new(|| encode_probes(&probe_cols))),
        ];
        let sections = pool::run(jobs, workers, None, |(tag, encode)| {
            let payload = encode();
            let digest = fnv1a(&payload);
            (tag, payload, digest)
        })
        .results;
        let mut preamble = Vec::with_capacity(FORMAT.preamble_len);
        put_u32(&mut preamble, schema_version);
        put_u64(&mut preamble, started.0);
        for c in counts {
            put_u32(&mut preamble, c);
        }
        let sections: Vec<(u8, &[u8], u64)> = sections
            .iter()
            .map(|(tag, payload, digest)| (*tag, payload.as_slice(), *digest))
            .collect();
        let bytes = container::assemble_digested(&FORMAT, &preamble, &sections);
        ColumnarCampaign::decode(bytes)
            .expect("a freshly assembled columnar campaign always decodes")
    }
}

/// A section tag and the closure that encodes its payload.
type SectionJob<'a> = (u8, Box<dyn FnOnce() -> Vec<u8> + Send + 'a>);

fn encode_strings(arena: &[Domain]) -> Vec<u8> {
    let len = arena.iter().map(|d| 4 + d.as_str().len()).sum();
    let mut buf = Vec::with_capacity(len);
    for d in arena {
        put_u32(&mut buf, fits_u32(d.as_str().len(), "string length"));
        buf.extend_from_slice(d.as_str().as_bytes());
    }
    buf
}

fn encode_errors(errors: &[String]) -> Vec<u8> {
    let mut buf = Vec::new();
    for e in errors {
        put_u32(&mut buf, fits_u32(e.len(), "error length"));
        buf.extend_from_slice(e.as_bytes());
    }
    buf
}

fn put_u32s(buf: &mut Vec<u8>, ids: &[u32]) {
    buf.reserve(ids.len() * 4);
    for &id in ids {
        put_u32(buf, id);
    }
}

fn put_u64s(buf: &mut Vec<u8>, vals: &[u64]) {
    buf.reserve(vals.len() * 8);
    for &v in vals {
        put_u64(buf, v);
    }
}

fn encode_u32s(ids: &[u32]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32s(&mut buf, ids);
    buf
}

fn encode_sites(s: &SiteCols) -> Vec<u8> {
    let mut buf = Vec::with_capacity(s.rank.len() * (6 * 4 + 1));
    put_u32s(&mut buf, &s.rank);
    put_u32s(&mut buf, &s.website);
    put_u32s(&mut buf, &s.before);
    put_u32s(&mut buf, &s.after);
    put_u32s(&mut buf, &s.error);
    put_u32s(&mut buf, &s.retries);
    buf.extend_from_slice(&s.flags);
    buf
}

fn encode_visits(v: &VisitCols) -> Vec<u8> {
    let mut buf = Vec::with_capacity(v.phase.len() * (1 + 8 * 4 + 2 * 8 + 1));
    buf.extend_from_slice(&v.phase);
    put_u32s(&mut buf, &v.website);
    put_u32s(&mut buf, &v.final_website);
    put_u32s(&mut buf, &v.party_start);
    put_u32s(&mut buf, &v.party_len);
    put_u32s(&mut buf, &v.object_count);
    put_u32s(&mut buf, &v.failed_objects);
    put_u32s(&mut buf, &v.call_start);
    put_u32s(&mut buf, &v.call_len);
    put_u64s(&mut buf, &v.started);
    put_u64s(&mut buf, &v.duration_ms);
    buf.extend_from_slice(&pack_bits(&v.banner));
    buf
}

fn encode_calls(c: &CallCols) -> Vec<u8> {
    let mut buf = Vec::with_capacity(c.caller.len() * (3 * 4 + 2 + 4 + 8 + 1));
    put_u32s(&mut buf, &c.caller);
    put_u32s(&mut buf, &c.caller_site);
    put_u32s(&mut buf, &c.script_source);
    buf.extend_from_slice(&c.call_type);
    buf.extend_from_slice(&c.decision);
    put_u32s(&mut buf, &c.topics_returned);
    put_u64s(&mut buf, &c.timestamp);
    buf.extend_from_slice(&pack_bits(&c.root_context));
    buf
}

fn encode_probes(p: &ProbeCols) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32s(&mut buf, &p.domain);
    put_u64s(&mut buf, &p.issued);
    buf.extend_from_slice(&pack_bits(&p.valid));
    buf.extend_from_slice(&pack_bits(&p.enrollment_site));
    buf
}

// ---------------------------------------------------------------------------
// The decoded store.

/// One directory entry, as reported by [`ColumnarCampaign::section_map`]
/// (the doctor's section-by-section integrity rendering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name (`strings`, `sites`, ...).
    pub name: &'static str,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a digest recorded in the directory.
    pub fnv1a: u64,
}

// Indexes into the header's row-count array.
const C_STRINGS: usize = 0;
const C_ERRORS: usize = 1;
const C_SITES: usize = 2;
const C_VISITS: usize = 3;
const C_PARTIES: usize = 4;
const C_CALLS: usize = 5;
const C_ALLOW: usize = 6;
const C_PROBES: usize = 7;

type Lazy<T> = OnceLock<Result<T, ColumnarError>>;

/// A campaign in columnar form: the raw file bytes plus lazily decoded,
/// eagerly validated column groups. Section checksums are verified on
/// first touch, so a reader that only scans the call columns never pays
/// for (or trusts) the visit columns.
pub struct ColumnarCampaign {
    bytes: Vec<u8>,
    schema_version: u32,
    started: Timestamp,
    counts: [u32; 8],
    dir: Directory,
    arena: Lazy<Vec<Domain>>,
    errors: Lazy<Vec<String>>,
    sites: Lazy<SiteCols>,
    visits: Lazy<VisitCols>,
    parties: Lazy<Vec<u32>>,
    calls: Lazy<CallCols>,
    allow: Lazy<Vec<u32>>,
    probes: Lazy<ProbeCols>,
}

impl fmt::Debug for ColumnarCampaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColumnarCampaign")
            .field("bytes", &self.bytes.len())
            .field("schema_version", &self.schema_version)
            .field("sites", &self.counts[C_SITES])
            .field("visits", &self.counts[C_VISITS])
            .field("calls", &self.counts[C_CALLS])
            .field("strings", &self.counts[C_STRINGS])
            .finish()
    }
}

impl ColumnarCampaign {
    /// Build the columnar form of an outcome (what `crawl` writes).
    /// Deterministic: same outcome, same bytes.
    pub fn from_outcome(outcome: &CampaignOutcome) -> ColumnarCampaign {
        ColumnarCampaign::from_sites(
            outcome.schema_version,
            &outcome.sites,
            &outcome.allow_list,
            &outcome.attestation_probes,
            outcome.started,
        )
    }

    /// Encode `sites` (in rank order) with the campaign-wide allow-list,
    /// probes and start time on [`pool::available_workers`] workers:
    /// `campaign.col` for an outcome, and the stripe store of a shard
    /// segment. It runs the pool, so never call it from a pool worker.
    pub(crate) fn from_sites(
        schema_version: u32,
        sites: &[SiteOutcome],
        allow_list: &[Domain],
        probes: &[AttestationProbe],
        started: Timestamp,
    ) -> ColumnarCampaign {
        let workers = pool::available_workers();
        ColumnarCampaign::from_sites_with(
            schema_version,
            sites,
            allow_list,
            probes,
            started,
            workers,
        )
    }

    /// [`from_sites`](Self::from_sites) over `workers` workers: one
    /// contiguous chunk of sites per worker, each pushed into a builder
    /// of its own, then absorbed in rank order into the first (see
    /// [`ColumnarBuilder`]); the bytes are the same for every count.
    fn from_sites_with(
        schema_version: u32,
        sites: &[SiteOutcome],
        allow_list: &[Domain],
        probes: &[AttestationProbe],
        started: Timestamp,
        workers: usize,
    ) -> ColumnarCampaign {
        let filled = pool::run(pool::chunks(sites, workers), workers, None, |chunk| {
            let mut b = ColumnarBuilder::new();
            for site in chunk {
                b.push_site(site);
            }
            b
        });
        let mut chunks = filled.results.into_iter();
        let mut builder = chunks.next().unwrap_or_default();
        for chunk in chunks {
            builder.absorb(chunk);
        }
        builder.finish_with(schema_version, allow_list, probes, started, workers)
    }

    /// Parse and validate the header + directory of an encoded file.
    /// Section payloads stay raw until first use.
    pub fn decode(bytes: Vec<u8>) -> Result<ColumnarCampaign, ColumnarError> {
        // The container checks the magic first, so any other file (a
        // `campaign.json` from an older bundle, say) is named as such.
        let ((schema_version, started, counts), dir) = container::parse(&FORMAT, &bytes, |cur| {
            let schema_version = cur.u32()?;
            if schema_version > CAMPAIGN_SCHEMA_VERSION {
                return Err(ColumnarError::UnknownSchema(UnknownSchemaVersion {
                    found: schema_version,
                    supported: CAMPAIGN_SCHEMA_VERSION,
                }));
            }
            let started = Timestamp(cur.u64()?);
            let mut counts = [0u32; 8];
            for c in counts.iter_mut() {
                *c = cur.u32()?;
            }
            Ok((schema_version, started, counts))
        })?;
        Ok(ColumnarCampaign {
            bytes,
            schema_version,
            started,
            counts,
            dir,
            arena: OnceLock::new(),
            errors: OnceLock::new(),
            sites: OnceLock::new(),
            visits: OnceLock::new(),
            parties: OnceLock::new(),
            calls: OnceLock::new(),
            allow: OnceLock::new(),
            probes: OnceLock::new(),
        })
    }

    /// Load an encoded store from disk — [`ColumnarCampaign::decode`]
    /// over the file's bytes, with I/O errors kept distinct from
    /// corruption: a missing file surfaces as `io::ErrorKind::NotFound`,
    /// a failed decode as `InvalidData` carrying the typed
    /// [`ColumnarError`] message. This is the long-running-service load
    /// path (`topics-lab serve`), which reads the store once and then
    /// answers every query from the decoded arena.
    pub fn read_from(path: &std::path::Path) -> std::io::Result<ColumnarCampaign> {
        let bytes = std::fs::read(path)?;
        ColumnarCampaign::decode(bytes).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad {}: {e}", path.display()),
            )
        })
    }

    /// The encoded bytes, giving up the decoded sections.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The canonical encoded bytes (what `campaign.col` holds).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Record schema version from the header.
    pub fn schema_version(&self) -> u32 {
        self.schema_version
    }

    /// Campaign start time from the header.
    pub fn started(&self) -> Timestamp {
        self.started
    }

    /// Number of ranked sites.
    pub fn site_count(&self) -> usize {
        self.counts[C_SITES] as usize
    }

    /// Number of visit rows.
    pub fn visit_count(&self) -> usize {
        self.counts[C_VISITS] as usize
    }

    /// Number of topics-call rows.
    pub fn call_count(&self) -> usize {
        self.counts[C_CALLS] as usize
    }

    /// The section directory (name, payload length, checksum).
    pub fn section_map(&self) -> Vec<SectionInfo> {
        self.dir
            .entries()
            .iter()
            .map(|e| SectionInfo {
                name: self.dir.tag_name(e.tag),
                len: e.len,
                fnv1a: e.fnv1a,
            })
            .collect()
    }

    /// Checksum-verified raw payload of one section.
    fn section(&self, tag: u8) -> Result<&[u8], ColumnarError> {
        self.dir.section(&self.bytes, tag)
    }

    fn check_id(
        section: &'static str,
        field: &'static str,
        id: u32,
        len: u32,
        optional: bool,
    ) -> Result<(), ColumnarError> {
        if optional && id == NONE_ID {
            return Ok(());
        }
        if id >= len {
            return Err(ColumnarError::IdOutOfRange {
                section,
                field,
                id,
                len,
            });
        }
        Ok(())
    }

    /// The interning arena: every distinct domain, in first-use order.
    pub fn domains(&self) -> Result<&[Domain], ColumnarError> {
        self.arena
            .get_or_init(|| {
                let payload = self.section(TAG_STRINGS)?;
                let n = self.counts[C_STRINGS] as usize;
                let mut cur = Cur::new(payload, "strings");
                // Every string costs at least its 4-byte length prefix.
                let mut arena = Vec::with_capacity(n.min(payload.len() / 4));
                for i in 0..n {
                    let len = cur.u32()? as usize;
                    let raw = cur.take(len)?;
                    let s = std::str::from_utf8(raw).map_err(|_| {
                        ColumnarError::Malformed(format!("interned string {i} is not UTF-8"))
                    })?;
                    let d = Domain::parse(s).map_err(|e| {
                        ColumnarError::Malformed(format!(
                            "interned string {i} is not a valid domain: {e}"
                        ))
                    })?;
                    arena.push(d);
                }
                cur.done()?;
                Ok(arena)
            })
            .as_ref()
            .map(|v| v.as_slice())
            .map_err(Clone::clone)
    }

    fn error_table(&self) -> Result<&[String], ColumnarError> {
        self.errors
            .get_or_init(|| {
                let payload = self.section(TAG_ERRORS)?;
                let n = self.counts[C_ERRORS] as usize;
                let mut cur = Cur::new(payload, "errors");
                let mut errors = Vec::with_capacity(n.min(payload.len() / 4));
                for i in 0..n {
                    let len = cur.u32()? as usize;
                    let raw = cur.take(len)?;
                    let s = std::str::from_utf8(raw).map_err(|_| {
                        ColumnarError::Malformed(format!("error string {i} is not UTF-8"))
                    })?;
                    errors.push(s.to_owned());
                }
                cur.done()?;
                Ok(errors)
            })
            .as_ref()
            .map(|v| v.as_slice())
            .map_err(Clone::clone)
    }

    fn site_cols(&self) -> Result<&SiteCols, ColumnarError> {
        self.sites
            .get_or_init(|| {
                let payload = self.section(TAG_SITES)?;
                let n = self.counts[C_SITES] as usize;
                let mut cur = Cur::new(payload, "sites");
                let cols = SiteCols {
                    rank: cur.u32s(n)?,
                    website: cur.u32s(n)?,
                    before: cur.u32s(n)?,
                    after: cur.u32s(n)?,
                    error: cur.u32s(n)?,
                    retries: cur.u32s(n)?,
                    flags: cur.u8s(n)?,
                };
                cur.done()?;
                for &id in &cols.website {
                    Self::check_id("sites", "website", id, self.counts[C_STRINGS], false)?;
                }
                for &v in cols.before.iter().chain(&cols.after) {
                    Self::check_id("sites", "visit", v, self.counts[C_VISITS], true)?;
                }
                for &e in &cols.error {
                    Self::check_id("sites", "error", e, self.counts[C_ERRORS], true)?;
                }
                for &f in &cols.flags {
                    if f & !(FAULT_TIMED_OUT | FAULT_SECOND_VISIT_FAILED) != 0 {
                        return Err(ColumnarError::BadEnum {
                            section: "sites",
                            field: "flags",
                            value: f,
                        });
                    }
                }
                Ok(cols)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    fn visit_cols(&self) -> Result<&VisitCols, ColumnarError> {
        self.visits
            .get_or_init(|| {
                let payload = self.section(TAG_VISITS)?;
                let n = self.counts[C_VISITS] as usize;
                let mut cur = Cur::new(payload, "visits");
                let cols = VisitCols {
                    phase: cur.u8s(n)?,
                    website: cur.u32s(n)?,
                    final_website: cur.u32s(n)?,
                    party_start: cur.u32s(n)?,
                    party_len: cur.u32s(n)?,
                    object_count: cur.u32s(n)?,
                    failed_objects: cur.u32s(n)?,
                    call_start: cur.u32s(n)?,
                    call_len: cur.u32s(n)?,
                    started: cur.u64s(n)?,
                    duration_ms: cur.u64s(n)?,
                    banner: cur.bits(n)?,
                };
                cur.done()?;
                for &p in &cols.phase {
                    phase_from(p).ok_or(ColumnarError::BadEnum {
                        section: "visits",
                        field: "phase",
                        value: p,
                    })?;
                }
                for &id in cols.website.iter().chain(&cols.final_website) {
                    Self::check_id("visits", "website", id, self.counts[C_STRINGS], false)?;
                }
                for i in 0..n {
                    let pe = u64::from(cols.party_start[i]) + u64::from(cols.party_len[i]);
                    if pe > u64::from(self.counts[C_PARTIES]) {
                        return Err(ColumnarError::BadRange {
                            section: "visits",
                            field: "parties",
                        });
                    }
                    let ce = u64::from(cols.call_start[i]) + u64::from(cols.call_len[i]);
                    if ce > u64::from(self.counts[C_CALLS]) {
                        return Err(ColumnarError::BadRange {
                            section: "visits",
                            field: "calls",
                        });
                    }
                }
                Ok(cols)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    fn party_ids(&self) -> Result<&[u32], ColumnarError> {
        self.parties
            .get_or_init(|| {
                let payload = self.section(TAG_PARTIES)?;
                let n = self.counts[C_PARTIES] as usize;
                let mut cur = Cur::new(payload, "parties");
                let ids = cur.u32s(n)?;
                cur.done()?;
                for &id in &ids {
                    Self::check_id("parties", "domain", id, self.counts[C_STRINGS], false)?;
                }
                Ok(ids)
            })
            .as_ref()
            .map(|v| v.as_slice())
            .map_err(Clone::clone)
    }

    fn call_cols(&self) -> Result<&CallCols, ColumnarError> {
        self.calls
            .get_or_init(|| {
                let payload = self.section(TAG_CALLS)?;
                let n = self.counts[C_CALLS] as usize;
                let mut cur = Cur::new(payload, "calls");
                let cols = CallCols {
                    caller: cur.u32s(n)?,
                    caller_site: cur.u32s(n)?,
                    script_source: cur.u32s(n)?,
                    call_type: cur.u8s(n)?,
                    decision: cur.u8s(n)?,
                    topics_returned: cur.u32s(n)?,
                    timestamp: cur.u64s(n)?,
                    root_context: cur.bits(n)?,
                };
                cur.done()?;
                for &id in cols.caller.iter().chain(&cols.caller_site) {
                    Self::check_id("calls", "caller", id, self.counts[C_STRINGS], false)?;
                }
                for &id in &cols.script_source {
                    Self::check_id("calls", "script_source", id, self.counts[C_STRINGS], true)?;
                }
                for &t in &cols.call_type {
                    call_type_from(t).ok_or(ColumnarError::BadEnum {
                        section: "calls",
                        field: "call_type",
                        value: t,
                    })?;
                }
                for &d in &cols.decision {
                    decision_from(d).ok_or(ColumnarError::BadEnum {
                        section: "calls",
                        field: "decision",
                        value: d,
                    })?;
                }
                Ok(cols)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Allow-list intern ids, in list order — indexes into
    /// [`ColumnarCampaign::domains`].
    pub fn allow_ids(&self) -> Result<&[u32], ColumnarError> {
        self.allow
            .get_or_init(|| {
                let payload = self.section(TAG_ALLOW)?;
                let n = self.counts[C_ALLOW] as usize;
                let mut cur = Cur::new(payload, "allow");
                let ids = cur.u32s(n)?;
                cur.done()?;
                for &id in &ids {
                    Self::check_id("allow", "domain", id, self.counts[C_STRINGS], false)?;
                }
                Ok(ids)
            })
            .as_ref()
            .map(|v| v.as_slice())
            .map_err(Clone::clone)
    }

    fn probe_cols(&self) -> Result<&ProbeCols, ColumnarError> {
        self.probes
            .get_or_init(|| {
                let payload = self.section(TAG_PROBES)?;
                let n = self.counts[C_PROBES] as usize;
                let mut cur = Cur::new(payload, "probes");
                let cols = ProbeCols {
                    domain: cur.u32s(n)?,
                    issued: cur.u64s(n)?,
                    valid: cur.bits(n)?,
                    enrollment_site: cur.bits(n)?,
                };
                cur.done()?;
                for &id in &cols.domain {
                    Self::check_id("probes", "domain", id, self.counts[C_STRINGS], false)?;
                }
                Ok(cols)
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

// ---------------------------------------------------------------------------
// Query layer: zero-copy scans over the validated columns.

impl ColumnarCampaign {
    /// Scan handle over the visit columns (decodes `strings`, `visits`,
    /// `parties` on first use; never touches calls/sites/probes).
    pub fn visits(&self) -> Result<VisitScan<'_>, ColumnarError> {
        Ok(VisitScan {
            arena: self.domains()?,
            v: self.visit_cols()?,
            parties: self.party_ids()?,
        })
    }

    /// Scan handle over the call columns (decodes `strings`, `calls`).
    pub fn calls(&self) -> Result<CallScan<'_>, ColumnarError> {
        Ok(CallScan {
            arena: self.domains()?,
            c: self.call_cols()?,
        })
    }

    /// Scan handle over the per-site columns (decodes `strings`,
    /// `sites`, `errors`).
    pub fn sites(&self) -> Result<SiteScan<'_>, ColumnarError> {
        Ok(SiteScan {
            arena: self.domains()?,
            s: self.site_cols()?,
            errors: self.error_table()?,
        })
    }

    /// The allow-list, resolved through the arena.
    pub fn allow_list(&self) -> Result<Vec<&Domain>, ColumnarError> {
        let arena = self.domains()?;
        Ok(self
            .allow_ids()?
            .iter()
            .map(|&id| &arena[id as usize])
            .collect())
    }

    /// Attestation probes, resolved through the arena.
    pub fn probe_scan(&self) -> Result<ProbeScan<'_>, ColumnarError> {
        Ok(ProbeScan {
            arena: self.domains()?,
            p: self.probe_cols()?,
        })
    }
}

/// Borrowed scan over the visit columns.
#[derive(Debug, Clone, Copy)]
pub struct VisitScan<'a> {
    arena: &'a [Domain],
    v: &'a VisitCols,
    parties: &'a [u32],
}

impl<'a> VisitScan<'a> {
    /// Number of visit rows.
    pub fn len(self) -> usize {
        self.v.phase.len()
    }

    /// True when the campaign recorded no visits.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// One row.
    pub fn get(self, idx: usize) -> VisitView<'a> {
        VisitView { scan: self, idx }
    }

    /// Every visit row, in site-rank order (before-visit then
    /// after-visit per site).
    pub fn iter(self) -> impl Iterator<Item = VisitView<'a>> {
        (0..self.len()).map(move |idx| self.get(idx))
    }

    /// Filtered range scan: only visits in `phase`.
    pub fn in_phase(self, phase: Phase) -> impl Iterator<Item = VisitView<'a>> {
        let code = phase_code(phase);
        (0..self.len())
            .filter(move |&i| self.v.phase[i] == code)
            .map(move |idx| self.get(idx))
    }
}

/// One visit row, read straight out of the columns.
#[derive(Debug, Clone, Copy)]
pub struct VisitView<'a> {
    scan: VisitScan<'a>,
    idx: usize,
}

impl<'a> VisitView<'a> {
    /// Row index (the id site rows reference).
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Which visit this is.
    pub fn phase(&self) -> Phase {
        phase_from(self.scan.v.phase[self.idx]).expect("validated at decode")
    }

    /// The ranked website.
    pub fn website(&self) -> &'a Domain {
        &self.scan.arena[self.scan.v.website[self.idx] as usize]
    }

    /// The registrable domain that served the page.
    pub fn final_website(&self) -> &'a Domain {
        &self.scan.arena[self.scan.v.final_website[self.idx] as usize]
    }

    /// Arena ids of the parties present on the page.
    pub fn party_ids(&self) -> &'a [u32] {
        let start = self.scan.v.party_start[self.idx] as usize;
        let len = self.scan.v.party_len[self.idx] as usize;
        &self.scan.parties[start..start + len]
    }

    /// The parties present on the page, in first-seen order.
    pub fn parties(&self) -> impl Iterator<Item = &'a Domain> + '_ {
        let arena = self.scan.arena;
        self.party_ids().iter().map(move |&id| &arena[id as usize])
    }

    /// Total objects requested.
    pub fn object_count(&self) -> usize {
        self.scan.v.object_count[self.idx] as usize
    }

    /// Objects that failed to load.
    pub fn failed_objects(&self) -> usize {
        self.scan.v.failed_objects[self.idx] as usize
    }

    /// Row range of this visit's calls in the call columns.
    pub fn call_range(&self) -> Range<usize> {
        let start = self.scan.v.call_start[self.idx] as usize;
        start..start + self.scan.v.call_len[self.idx] as usize
    }

    /// A privacy banner was detected.
    pub fn banner_found(&self) -> bool {
        self.scan.v.banner[self.idx]
    }

    /// When the visit started.
    pub fn started(&self) -> Timestamp {
        Timestamp(self.scan.v.started[self.idx])
    }

    /// Simulated page-load duration.
    pub fn duration_ms(&self) -> u64 {
        self.scan.v.duration_ms[self.idx]
    }
}

/// Borrowed scan over the call columns.
#[derive(Debug, Clone, Copy)]
pub struct CallScan<'a> {
    arena: &'a [Domain],
    c: &'a CallCols,
}

impl<'a> CallScan<'a> {
    /// Number of call rows.
    pub fn len(self) -> usize {
        self.c.caller.len()
    }

    /// True when the campaign recorded no calls.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// One row.
    pub fn get(self, idx: usize) -> CallView<'a> {
        CallView { scan: self, idx }
    }

    /// Every call row, in visit order.
    pub fn iter(self) -> impl Iterator<Item = CallView<'a>> {
        (0..self.len()).map(move |idx| self.get(idx))
    }

    /// Range scan — pair with [`VisitView::call_range`].
    pub fn range(self, r: Range<usize>) -> impl Iterator<Item = CallView<'a>> {
        r.map(move |idx| self.get(idx))
    }
}

/// One topics call, read straight out of the columns.
#[derive(Debug, Clone, Copy)]
pub struct CallView<'a> {
    scan: CallScan<'a>,
    idx: usize,
}

impl<'a> CallView<'a> {
    /// Full host attributed as the calling party.
    pub fn caller(&self) -> &'a Domain {
        &self.scan.arena[self.scan.c.caller[self.idx] as usize]
    }

    /// The CP at registrable-domain granularity.
    pub fn caller_site(&self) -> &'a Domain {
        &self.scan.arena[self.scan.c.caller_site[self.idx] as usize]
    }

    /// Intern id of the CP — an index into [`ColumnarCampaign::domains`].
    /// Lets aggregations run in id space and defer string work to the end.
    pub fn caller_site_id(&self) -> u32 {
        self.scan.c.caller_site[self.idx]
    }

    /// Host that served the calling script, if external.
    pub fn script_source(&self) -> Option<&'a Domain> {
        match self.scan.c.script_source[self.idx] {
            NONE_ID => None,
            id => Some(&self.scan.arena[id as usize]),
        }
    }

    /// Call type.
    pub fn call_type(&self) -> CallType {
        call_type_from(self.scan.c.call_type[self.idx]).expect("validated at decode")
    }

    /// The browser's allow-list decision.
    pub fn decision(&self) -> AllowDecision {
        decision_from(self.scan.c.decision[self.idx]).expect("validated at decode")
    }

    /// Whether the call was executed.
    pub fn permitted(&self) -> bool {
        self.decision().permits()
    }

    /// True when the call came from the root context.
    pub fn root_context(&self) -> bool {
        self.scan.c.root_context[self.idx]
    }

    /// Topics returned to the caller.
    pub fn topics_returned(&self) -> usize {
        self.scan.c.topics_returned[self.idx] as usize
    }

    /// Timestamp of the call.
    pub fn timestamp(&self) -> Timestamp {
        Timestamp(self.scan.c.timestamp[self.idx])
    }
}

/// Borrowed scan over the per-site columns.
#[derive(Debug, Clone, Copy)]
pub struct SiteScan<'a> {
    arena: &'a [Domain],
    s: &'a SiteCols,
    errors: &'a [String],
}

impl<'a> SiteScan<'a> {
    /// Number of ranked sites.
    pub fn len(self) -> usize {
        self.s.rank.len()
    }

    /// True when the campaign covered no sites.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// One row.
    pub fn get(self, idx: usize) -> SiteRow<'a> {
        let s = self.s;
        SiteRow {
            rank: s.rank[idx] as usize,
            website: &self.arena[s.website[idx] as usize],
            before: (s.before[idx] != NONE_ID).then_some(s.before[idx] as usize),
            after: (s.after[idx] != NONE_ID).then_some(s.after[idx] as usize),
            error: (s.error[idx] != NONE_ID).then(|| self.errors[s.error[idx] as usize].as_str()),
            faults: FaultStats {
                retries: s.retries[idx],
                timed_out: s.flags[idx] & FAULT_TIMED_OUT != 0,
                second_visit_failed: s.flags[idx] & FAULT_SECOND_VISIT_FAILED != 0,
            },
        }
    }

    /// Every site row, in rank order.
    pub fn iter(self) -> impl Iterator<Item = SiteRow<'a>> {
        (0..self.len()).map(move |idx| self.get(idx))
    }
}

/// One site row: visit references are row indexes into the visit
/// columns ([`VisitScan::get`]).
#[derive(Debug, Clone, Copy)]
pub struct SiteRow<'a> {
    /// 0-based Tranco rank.
    pub rank: usize,
    /// The ranked domain.
    pub website: &'a Domain,
    /// Visit-row index of the Before-Accept visit.
    pub before: Option<usize>,
    /// Visit-row index of the second visit.
    pub after: Option<usize>,
    /// Failure message, if the site could not be visited.
    pub error: Option<&'a str>,
    /// Fault-layer bookkeeping.
    pub faults: FaultStats,
}

/// Borrowed scan over the attestation-probe columns.
#[derive(Debug, Clone, Copy)]
pub struct ProbeScan<'a> {
    arena: &'a [Domain],
    p: &'a ProbeCols,
}

impl<'a> ProbeScan<'a> {
    /// Number of probes.
    pub fn len(self) -> usize {
        self.p.domain.len()
    }

    /// True when nothing was probed.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Intern id of the `i`th probe's domain — an index into
    /// [`ColumnarCampaign::domains`].
    pub fn domain_id(self, i: usize) -> u32 {
        self.p.domain[i]
    }

    /// Every probe, in sorted-domain order: `(domain, valid info)`.
    pub fn iter(self) -> impl Iterator<Item = (&'a Domain, Option<AttestationInfo>)> {
        (0..self.len()).map(move |i| {
            let domain = &self.arena[self.p.domain[i] as usize];
            let valid = self.p.valid[i].then_some(AttestationInfo {
                issued: Timestamp(self.p.issued[i]),
                has_enrollment_site: self.p.enrollment_site[i],
            });
            (domain, valid)
        })
    }
}

// ---------------------------------------------------------------------------
// Reconstruction and whole-file verification.

impl ColumnarCampaign {
    fn build_visit(&self, idx: usize) -> Result<VisitRecord, ColumnarError> {
        let arena = self.domains()?;
        let v = self.visit_cols()?;
        let parties = self.party_ids()?;
        let calls = self.call_cols()?;
        let pr = v.party_start[idx] as usize..(v.party_start[idx] + v.party_len[idx]) as usize;
        let cr = v.call_start[idx] as usize..(v.call_start[idx] + v.call_len[idx]) as usize;
        Ok(VisitRecord {
            phase: phase_from(v.phase[idx]).expect("validated at decode"),
            website: arena[v.website[idx] as usize].clone(),
            final_website: arena[v.final_website[idx] as usize].clone(),
            party_domains: parties[pr]
                .iter()
                .map(|&id| arena[id as usize].clone())
                .collect(),
            object_count: v.object_count[idx] as usize,
            failed_objects: v.failed_objects[idx] as usize,
            topics_calls: cr
                .map(|c| TopicsCallRecord {
                    caller: arena[calls.caller[c] as usize].clone(),
                    caller_site: arena[calls.caller_site[c] as usize].clone(),
                    call_type: call_type_from(calls.call_type[c]).expect("validated at decode"),
                    root_context: calls.root_context[c],
                    script_source: match calls.script_source[c] {
                        NONE_ID => None,
                        id => Some(arena[id as usize].clone()),
                    },
                    decision: decision_from(calls.decision[c]).expect("validated at decode"),
                    topics_returned: calls.topics_returned[c] as usize,
                    timestamp: Timestamp(calls.timestamp[c]),
                })
                .collect(),
            banner_found: v.banner[idx],
            started: Timestamp(v.started[idx]),
            duration_ms: v.duration_ms[idx],
        })
    }

    /// Rebuild the row-struct [`CampaignOutcome`] on
    /// [`pool::available_workers`] workers. Domain strings are
    /// `Arc`-cloned out of the arena, so every repeated domain shares
    /// one allocation.
    pub fn to_outcome(&self) -> Result<CampaignOutcome, ColumnarError> {
        self.to_outcome_with(pool::available_workers())
    }

    /// [`to_outcome`](Self::to_outcome) over `workers` workers: the
    /// eight sections decode as pool jobs, in the order
    /// [`rebuild`](Self::rebuild) first reads them, each caching its
    /// result (error included), and `rebuild` then reads them back in
    /// that order. So the outcome, or the error, is the same for every
    /// worker count.
    fn to_outcome_with(&self, workers: usize) -> Result<CampaignOutcome, ColumnarError> {
        let sections: [fn(&ColumnarCampaign) -> bool; 8] = [
            |c| c.domains().is_ok(),
            |c| c.site_cols().is_ok(),
            |c| c.error_table().is_ok(),
            |c| c.visit_cols().is_ok(),
            |c| c.party_ids().is_ok(),
            |c| c.call_cols().is_ok(),
            |c| c.allow_ids().is_ok(),
            |c| c.probe_cols().is_ok(),
        ];
        pool::run(sections.to_vec(), workers, None, |decode| decode(self));
        self.rebuild()
    }

    /// The rows, rebuilt site by site on the calling thread, each
    /// section decoded when first read unless already cached. The rows
    /// stay off the pool: they are most of the outcome's heap, and
    /// allocated on workers they would land in the workers' allocator
    /// arenas, which a process that rebuilds again later may not reuse.
    fn rebuild(&self) -> Result<CampaignOutcome, ColumnarError> {
        let arena = self.domains()?;
        let s = self.site_cols()?;
        let errors = self.error_table()?;
        let mut sites = Vec::with_capacity(self.site_count());
        for i in 0..self.site_count() {
            let before = match s.before[i] {
                NONE_ID => None,
                idx => Some(self.build_visit(idx as usize)?),
            };
            let after = match s.after[i] {
                NONE_ID => None,
                idx => Some(self.build_visit(idx as usize)?),
            };
            sites.push(SiteOutcome {
                rank: s.rank[i] as usize,
                website: arena[s.website[i] as usize].clone(),
                before,
                after,
                error: match s.error[i] {
                    NONE_ID => None,
                    e => Some(errors[e as usize].clone()),
                },
                faults: FaultStats {
                    retries: s.retries[i],
                    timed_out: s.flags[i] & FAULT_TIMED_OUT != 0,
                    second_visit_failed: s.flags[i] & FAULT_SECOND_VISIT_FAILED != 0,
                },
            });
        }
        let allow_list: Vec<Domain> = self
            .allow_ids()?
            .iter()
            .map(|&id| arena[id as usize].clone())
            .collect();
        let p = self.probe_cols()?;
        let attestation_probes: Vec<AttestationProbe> = (0..p.domain.len())
            .map(|i| AttestationProbe {
                domain: arena[p.domain[i] as usize].clone(),
                valid: p.valid[i].then_some(AttestationInfo {
                    issued: Timestamp(p.issued[i]),
                    has_enrollment_site: p.enrollment_site[i],
                }),
            })
            .collect();
        Ok(CampaignOutcome {
            schema_version: self.schema_version,
            sites,
            allow_list,
            attestation_probes,
            started: self.started,
        })
    }

    /// Full integrity check: every section checksum, every column
    /// validation, plus the cross-section invariants the lazy decoders
    /// cannot see — visit ownership, range tiling, and intern-table
    /// referential integrity (every id in range, no orphan strings).
    pub fn verify(&self) -> Result<(), ColumnarError> {
        let arena = self.domains()?;
        let errors = self.error_table()?;
        let s = self.site_cols()?;
        let v = self.visit_cols()?;
        let parties = self.party_ids()?;
        let c = self.call_cols()?;
        let allow = self.allow_ids()?;
        let p = self.probe_cols()?;

        // Every visit row belongs to exactly one site slot.
        let mut owned = vec![0u32; v.phase.len()];
        for &idx in s.before.iter().chain(&s.after) {
            if idx != NONE_ID {
                owned[idx as usize] += 1;
            }
        }
        if let Some(idx) = owned.iter().position(|&n| n != 1) {
            return Err(ColumnarError::Malformed(format!(
                "visit {idx} is referenced by {} site slots (expected exactly 1)",
                owned[idx]
            )));
        }

        // Party and call ranges tile their tables contiguously in
        // visit order — no gaps, no overlaps, no tail.
        let mut party_cursor = 0u32;
        let mut call_cursor = 0u32;
        for i in 0..v.phase.len() {
            if v.party_start[i] != party_cursor || v.call_start[i] != call_cursor {
                return Err(ColumnarError::Malformed(format!(
                    "visit {i}'s ranges do not tile the party/call tables"
                )));
            }
            party_cursor += v.party_len[i];
            call_cursor += v.call_len[i];
        }
        if party_cursor as usize != parties.len() || call_cursor as usize != c.caller.len() {
            return Err(ColumnarError::Malformed(
                "party/call tables extend past the last visit's range".to_owned(),
            ));
        }

        // Error strings must all be referenced.
        let mut error_used = vec![false; errors.len()];
        for &e in &s.error {
            if e != NONE_ID {
                error_used[e as usize] = true;
            }
        }
        if let Some(idx) = error_used.iter().position(|&u| !u) {
            return Err(ColumnarError::Malformed(format!(
                "error string {idx} is referenced by no site"
            )));
        }

        // Intern-table referential integrity: no orphan strings.
        let mut used = vec![false; arena.len()];
        let mut mark = |id: u32| {
            if id != NONE_ID {
                used[id as usize] = true;
            }
        };
        for &id in &s.website {
            mark(id);
        }
        for &id in v.website.iter().chain(&v.final_website) {
            mark(id);
        }
        for &id in parties {
            mark(id);
        }
        for &id in c
            .caller
            .iter()
            .chain(&c.caller_site)
            .chain(&c.script_source)
        {
            mark(id);
        }
        for &id in allow.iter().chain(&p.domain) {
            mark(id);
        }
        if let Some(id) = used.iter().position(|&u| !u) {
            return Err(ColumnarError::OrphanString(id as u32));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        Domain::parse(s).unwrap()
    }

    fn call(caller: &str, ct: CallType, decision: AllowDecision, root: bool) -> TopicsCallRecord {
        TopicsCallRecord {
            caller: d(caller),
            caller_site: topics_net::psl::registrable_domain(&d(caller)),
            call_type: ct,
            root_context: root,
            script_source: (caller == "tag.ads.com").then(|| d("cdn.ads.com")),
            decision,
            topics_returned: 3,
            timestamp: Timestamp(42),
        }
    }

    fn visit(
        phase: Phase,
        site: &str,
        parties: &[&str],
        calls: Vec<TopicsCallRecord>,
    ) -> VisitRecord {
        VisitRecord {
            phase,
            website: d(site),
            final_website: d(site),
            party_domains: parties.iter().map(|p| d(p)).collect(),
            object_count: 7,
            failed_objects: 1,
            topics_calls: calls,
            banner_found: phase == Phase::BeforeAccept,
            started: Timestamp(1_000),
            duration_ms: 640,
        }
    }

    fn outcome() -> CampaignOutcome {
        CampaignOutcome {
            schema_version: CAMPAIGN_SCHEMA_VERSION,
            sites: vec![
                SiteOutcome {
                    rank: 0,
                    website: d("site-a.com"),
                    before: Some(visit(
                        Phase::BeforeAccept,
                        "site-a.com",
                        &["site-a.com", "ads.com"],
                        vec![call(
                            "tag.ads.com",
                            CallType::JavaScript,
                            AllowDecision::AllowedFailOpen,
                            true,
                        )],
                    )),
                    after: Some(visit(
                        Phase::AfterAccept,
                        "site-a.com",
                        &["site-a.com", "ads.com", "cdn.net"],
                        vec![
                            call(
                                "tag.ads.com",
                                CallType::Fetch,
                                AllowDecision::AllowedEnrolled,
                                false,
                            ),
                            call(
                                "frame.rogue.net",
                                CallType::Iframe,
                                AllowDecision::BlockedNotEnrolled,
                                false,
                            ),
                        ],
                    )),
                    error: None,
                    faults: FaultStats {
                        retries: 2,
                        timed_out: true,
                        second_visit_failed: false,
                    },
                },
                SiteOutcome {
                    rank: 1,
                    website: d("dead.com"),
                    before: None,
                    after: None,
                    error: Some("NXDOMAIN".into()),
                    faults: FaultStats::default(),
                },
                SiteOutcome {
                    rank: 2,
                    website: d("site-b.de"),
                    before: Some(visit(
                        Phase::BeforeAccept,
                        "site-b.de",
                        &["site-b.de"],
                        vec![],
                    )),
                    after: None,
                    error: None,
                    faults: FaultStats::default(),
                },
            ],
            allow_list: vec![d("ads.com"), d("unused-allowed.com")],
            attestation_probes: vec![
                AttestationProbe {
                    domain: d("ads.com"),
                    valid: Some(AttestationInfo {
                        issued: Timestamp(7),
                        has_enrollment_site: true,
                    }),
                },
                AttestationProbe {
                    domain: d("rogue.net"),
                    valid: None,
                },
            ],
            started: Timestamp(500),
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let original = outcome();
        let store = ColumnarCampaign::from_outcome(&original);
        let reread = ColumnarCampaign::decode(store.bytes().to_vec()).unwrap();
        let back = reread.to_outcome().unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&original).unwrap()
        );
    }

    #[test]
    fn read_from_loads_a_file_and_keeps_error_kinds_distinct() {
        let dir = std::env::temp_dir().join(format!("topics-colread-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.col");
        let store = ColumnarCampaign::from_outcome(&outcome());
        std::fs::write(&path, store.bytes()).unwrap();
        let loaded = ColumnarCampaign::read_from(&path).unwrap();
        assert_eq!(loaded.bytes(), store.bytes());
        // Missing file → NotFound; corrupt payload → InvalidData with
        // the typed decode error in the message.
        let missing = ColumnarCampaign::read_from(&dir.join("absent.col")).unwrap_err();
        assert_eq!(missing.kind(), std::io::ErrorKind::NotFound);
        // Truncation is detected eagerly (section payloads must tile
        // the file), so a clipped store fails at load, not first use.
        let corrupt = &store.bytes()[..store.bytes().len() - 1];
        std::fs::write(&path, corrupt).unwrap();
        let err = ColumnarCampaign::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encoding_is_deterministic() {
        let original = outcome();
        let a = ColumnarCampaign::from_outcome(&original);
        let b = ColumnarCampaign::from_outcome(&original);
        assert_eq!(a.bytes(), b.bytes());
    }

    /// The one-builder walk: `push_site` over every site in rank order,
    /// the way the shard merge streams sites.
    fn streamed(o: &CampaignOutcome) -> ColumnarCampaign {
        let mut b = ColumnarBuilder::new();
        for site in &o.sites {
            b.push_site(site);
        }
        b.finish(
            o.schema_version,
            &o.allow_list,
            &o.attestation_probes,
            o.started,
        )
    }

    /// A 200-site light-fault campaign, with a visit budget tight
    /// enough that some visits time out.
    fn faulty_outcome() -> CampaignOutcome {
        let world = topics_webgen::World::generate(topics_webgen::WorldConfig::scaled(67, 200));
        let config = crate::campaign::CampaignConfig {
            threads: 2,
            fault: topics_net::fault::FaultProfile::light(),
            visit_timeout_ms: 2_000,
            ..Default::default()
        };
        crate::campaign::run_campaign(&world, &config)
    }

    #[test]
    fn builder_streams_sites_like_from_outcome() {
        let faulty = faulty_outcome();
        assert!(faulty.sites.iter().any(|s| s.error.is_some()));
        assert!(faulty.sites.iter().any(|s| s.faults.retries > 0));
        assert!(faulty
            .sites
            .iter()
            .any(|s| s.faults.timed_out || s.faults.second_visit_failed));
        // Errors only in the last site, which lies in the last chunk at
        // every worker count: the error table's first entry comes from
        // the last chunk.
        let mut late_error = faulty.clone();
        late_error.sites.retain(|s| s.error.is_none());
        late_error.sites.truncate(40);
        late_error.sites.push(
            faulty
                .sites
                .iter()
                .find(|s| s.error.is_some())
                .unwrap()
                .clone(),
        );
        for (rank, site) in late_error.sites.iter_mut().enumerate() {
            site.rank = rank;
        }
        let small = outcome();
        let cases = [
            ("200-site light-fault campaign", faulty.clone()),
            (
                "empty outcome",
                CampaignOutcome {
                    sites: vec![],
                    ..small.clone()
                },
            ),
            (
                "single site",
                CampaignOutcome {
                    sites: small.sites[..1].to_vec(),
                    ..small.clone()
                },
            ),
            ("fewer sites than workers", small),
            ("first error in the last chunk", late_error),
        ];
        let calls = cases
            .iter()
            .flat_map(|(_, o)| &o.sites)
            .flat_map(|s| s.before.iter().chain(&s.after))
            .flat_map(|v| &v.topics_calls);
        assert!(calls.clone().any(|c| c.script_source.is_none()));
        assert!(calls.clone().any(|c| c.script_source.is_some()));
        for (name, o) in &cases {
            let want = streamed(o);
            want.verify().unwrap();
            assert!(
                ColumnarCampaign::from_outcome(o).bytes() == want.bytes(),
                "{name}: from_outcome"
            );
            for workers in [1, 2, 3, 8] {
                let chunked = ColumnarCampaign::from_sites_with(
                    o.schema_version,
                    &o.sites,
                    &o.allow_list,
                    &o.attestation_probes,
                    o.started,
                    workers,
                );
                assert!(chunked.bytes() == want.bytes(), "{name}: {workers} workers");
            }
        }
    }

    #[test]
    fn scans_expose_the_columns() {
        let original = outcome();
        let store = ColumnarCampaign::from_outcome(&original);
        assert_eq!(store.site_count(), 3);
        assert_eq!(store.visit_count(), 3);
        assert_eq!(store.call_count(), 3);
        assert_eq!(store.started(), Timestamp(500));
        assert_eq!(store.schema_version(), CAMPAIGN_SCHEMA_VERSION);

        let visits = store.visits().unwrap();
        assert_eq!(visits.len(), 3);
        let ba: Vec<_> = visits.in_phase(Phase::BeforeAccept).collect();
        assert_eq!(ba.len(), 2);
        assert_eq!(ba[0].website().as_str(), "site-a.com");
        assert!(ba[0].banner_found());
        assert_eq!(ba[0].party_ids().len(), 2);
        let parties: Vec<&str> = ba[0].parties().map(|p| p.as_str()).collect();
        assert_eq!(parties, vec!["site-a.com", "ads.com"]);

        let calls = store.calls().unwrap();
        let in_visit: Vec<_> = calls.range(visits.get(1).call_range()).collect();
        assert_eq!(in_visit.len(), 2);
        assert_eq!(in_visit[0].caller().as_str(), "tag.ads.com");
        assert_eq!(in_visit[0].caller_site().as_str(), "ads.com");
        assert_eq!(in_visit[0].call_type(), CallType::Fetch);
        assert!(in_visit[0].permitted());
        assert!(!in_visit[1].permitted());
        assert_eq!(in_visit[1].script_source(), None);

        let sites = store.sites().unwrap();
        let dead = sites.get(1);
        assert_eq!(dead.error, Some("NXDOMAIN"));
        assert_eq!(dead.before, None);
        let first = sites.get(0);
        assert_eq!(first.faults.retries, 2);
        assert!(first.faults.timed_out);

        let allow = store.allow_list().unwrap();
        assert_eq!(allow.len(), 2);
        let probes: Vec<_> = store.probe_scan().unwrap().iter().collect();
        assert_eq!(probes[0].0.as_str(), "ads.com");
        assert!(probes[0].1.as_ref().unwrap().has_enrollment_site);
        assert!(probes[1].1.is_none());
    }

    #[test]
    fn verify_accepts_a_healthy_store() {
        let store = ColumnarCampaign::from_outcome(&outcome());
        store.verify().unwrap();
    }

    #[test]
    fn verify_rejects_orphan_strings() {
        let original = outcome();
        let mut b = ColumnarBuilder::new();
        for site in &original.sites {
            b.push_site(site);
        }
        b.intern(&d("orphan.example.com"));
        let store = b.finish(
            original.schema_version,
            &original.allow_list,
            &original.attestation_probes,
            original.started,
        );
        assert!(matches!(
            store.verify(),
            Err(ColumnarError::OrphanString(_))
        ));
    }

    #[test]
    fn corruption_is_a_named_error() {
        let good = ColumnarCampaign::from_outcome(&outcome()).bytes().to_vec();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            ColumnarCampaign::decode(bad_magic).unwrap_err(),
            ColumnarError::BadMagic
        );

        let mut future_container = good.clone();
        future_container[8..12].copy_from_slice(&(COLUMNAR_VERSION + 1).to_le_bytes());
        assert_eq!(
            ColumnarCampaign::decode(future_container).unwrap_err(),
            ColumnarError::UnsupportedVersion(COLUMNAR_VERSION + 1)
        );

        let mut future_schema = good.clone();
        future_schema[12..16].copy_from_slice(&(CAMPAIGN_SCHEMA_VERSION + 9).to_le_bytes());
        assert!(matches!(
            ColumnarCampaign::decode(future_schema).unwrap_err(),
            ColumnarError::UnknownSchema(UnknownSchemaVersion { found, .. })
                if found == CAMPAIGN_SCHEMA_VERSION + 9
        ));

        let mut flipped_count = good.clone();
        flipped_count[24] ^= 0x01; // a row count inside the checksummed header
        assert!(matches!(
            ColumnarCampaign::decode(flipped_count).unwrap_err(),
            ColumnarError::HeaderChecksum { .. }
        ));

        let mut truncated = good.clone();
        truncated.truncate(good.len() - 3);
        assert!(matches!(
            ColumnarCampaign::decode(truncated).unwrap_err(),
            ColumnarError::Truncated { .. }
        ));

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            ColumnarCampaign::decode(trailing).unwrap_err(),
            ColumnarError::TrailingData("file")
        );
    }

    #[test]
    fn crafted_headers_are_typed_errors_not_aborts() {
        let good = ColumnarCampaign::from_outcome(&outcome()).bytes().to_vec();

        // A huge section count is read before the checksum covers it.
        let mut huge_dir = good.clone();
        huge_dir[56..60].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            ColumnarCampaign::decode(huge_dir).unwrap_err(),
            ColumnarError::Truncated { .. }
        ));

        // A section length that overflows the offset arithmetic.
        let mut huge_len = good.clone();
        huge_len[244..252].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ColumnarCampaign::decode(reseal_header(huge_len)).unwrap_err(),
            ColumnarError::Malformed(_)
        ));

        // A row count far beyond what the section holds.
        let mut huge_count = good.clone();
        huge_count[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        let store = ColumnarCampaign::decode(reseal_header(huge_count)).unwrap();
        assert!(matches!(
            store.domains().unwrap_err(),
            ColumnarError::Truncated { .. }
        ));
    }

    /// Recompute the header checksum of an edited store. Header layout:
    /// counts at 24..56, section count at 56..60, eight 25-byte
    /// directory entries at 60..260, header checksum 260..268.
    fn reseal_header(mut bytes: Vec<u8>) -> Vec<u8> {
        let sum = fnv1a(&bytes[..260]);
        bytes[260..268].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// A rebuild as comparable text: the outcome's JSON or the error's
    /// message.
    fn rebuilt(r: Result<CampaignOutcome, ColumnarError>) -> Result<String, String> {
        r.map(|o| serde_json::to_string(&o).unwrap())
            .map_err(|e| e.to_string())
    }

    /// Decode `bytes` and read every section the way `to_outcome` and
    /// `verify` do, returning the first error. On the way, the rebuild
    /// after pooled section decodes at 1, 2, 3 and 8 workers, each over
    /// a fresh decode, must give the outcome, or the error, of the
    /// serial rebuild that decodes each section when first read.
    fn full_read(bytes: Vec<u8>) -> Result<(), ColumnarError> {
        let store = ColumnarCampaign::decode(bytes.clone())?;
        let want = rebuilt(store.rebuild());
        for workers in [1, 2, 3, 8] {
            let fresh = ColumnarCampaign::decode(bytes.clone()).unwrap();
            assert_eq!(
                rebuilt(fresh.to_outcome_with(workers)),
                want,
                "{workers} workers"
            );
        }
        store.to_outcome()?;
        store.verify()
    }

    /// Mutations re-sealed behind fresh checksums reach the column
    /// decoders: every bad id, range, enum byte and row count is a
    /// typed error, and random byte edits never panic.
    #[test]
    fn resealed_column_mutations_are_typed_errors() {
        let good = ColumnarCampaign::from_outcome(&outcome()).bytes().to_vec();
        assert_eq!(full_read(good.clone()), Ok(()));
        let id = 9_999u32.to_le_bytes();
        // (section, byte offset, bytes written there, the error's
        // `section.field: kind`) over the fixture's 3 sites, 3 visits
        // and 3 calls.
        let cases: [(u8, usize, &[u8], &str); 17] = [
            (TAG_SITES, 12, &id, "sites.website: id"),
            (TAG_SITES, 24, &3u32.to_le_bytes(), "sites.visit: id"),
            (TAG_SITES, 48, &1u32.to_le_bytes(), "sites.error: id"),
            (TAG_SITES, 72, &[0x80], "sites.flags: invalid enum"),
            (TAG_VISITS, 0, &[3], "visits.phase: invalid enum"),
            (TAG_VISITS, 3, &id, "visits.website: id"),
            (
                TAG_VISITS,
                39,
                &u32::MAX.to_le_bytes(),
                "visits.parties: range",
            ),
            (TAG_VISITS, 87, &4u32.to_le_bytes(), "visits.calls: range"),
            (TAG_PARTIES, 0, &id, "parties.domain: id"),
            (TAG_CALLS, 0, &id, "calls.caller: id"),
            (TAG_CALLS, 24, &id, "calls.script_source: id"),
            (TAG_CALLS, 36, &[3], "calls.call_type: invalid enum"),
            (TAG_CALLS, 39, &[4], "calls.decision: invalid enum"),
            (TAG_ALLOW, 4, &id, "allow.domain: id"),
            (TAG_PROBES, 0, &id, "probes.domain: id"),
            (
                TAG_STRINGS,
                0,
                &u32::MAX.to_le_bytes(),
                "strings: truncated",
            ),
            (
                TAG_ERRORS,
                4,
                &[0xFF],
                "store malformed: error string 0 is not UTF-8",
            ),
        ];
        for (tag, at, bytes, want) in cases {
            let resealed = container::reseal(&FORMAT, &good, tag, |p| {
                p[at..at + bytes.len()].copy_from_slice(bytes)
            });
            let err = full_read(resealed).unwrap_err().to_string();
            assert!(
                err.starts_with(&format!("columnar {want}")),
                "{want}: {err}"
            );
        }
        // Every row count in the header one too high or one too low.
        for at in (24..56).step_by(4) {
            for delta in [1i64, -1] {
                let mut bytes = good.clone();
                let n = i64::from(u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()));
                bytes[at..at + 4].copy_from_slice(&((n + delta) as u32).to_le_bytes());
                assert!(
                    full_read(reseal_header(bytes)).is_err(),
                    "count at {at} {delta:+}"
                );
            }
        }
        // Random single-byte edits of any section: an error or a
        // campaign, never a panic.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..4_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (tag, _) = FORMAT.sections[(state >> 60) as usize % FORMAT.sections.len()];
            let bytes = container::reseal(&FORMAT, &good, tag, |p| {
                let at = (state >> 20) as usize % p.len();
                p[at] = (state >> 8) as u8;
            });
            let _ = full_read(bytes);
        }
    }

    #[test]
    fn section_checksums_are_lazy_and_independent() {
        let mut bytes = ColumnarCampaign::from_outcome(&outcome()).bytes().to_vec();
        // The probes section is last; corrupt its final byte.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let store = ColumnarCampaign::decode(bytes).unwrap();
        // Untouched sections still read fine (laziness), ...
        assert_eq!(store.calls().unwrap().len(), 3);
        assert_eq!(store.visits().unwrap().len(), 3);
        // ... the corrupted one is a named checksum error, ...
        assert!(matches!(
            store.probe_scan().unwrap_err(),
            ColumnarError::SectionChecksum {
                section: "probes",
                ..
            }
        ));
        // ... and verify refuses the store as a whole.
        assert!(store.verify().is_err());
    }

    #[test]
    fn section_map_names_every_section() {
        let store = ColumnarCampaign::from_outcome(&outcome());
        let names: Vec<&str> = store.section_map().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["strings", "errors", "sites", "visits", "parties", "calls", "allow", "probes"]
        );
    }
}
