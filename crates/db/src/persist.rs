//! Persistent zero-copy snapshots: cold-open an engine from a file.
//!
//! A [`Snapshot`] is immutable, generation-versioned, and already
//! columnar — one step from being an on-disk format. This module takes
//! that step: [`save_snapshot`] serializes the shared order-preserving
//! dictionary, every relation's normalized encoded columns, and all
//! identity metadata (generation, uid, lineage, per-relation content
//! versions) into a flat, 8-byte-aligned, little-endian layout with a
//! per-section FNV-1a checksum; and [`open_snapshot`] maps the file back
//! in and reconstructs an `Arc<Snapshot>` whose encoded columns are
//! **views into the mapped bytes** — no relation is re-encoded or
//! decoded, no column is copied, and [`crate::relation_encode_count`]
//! provably does not move. A snapshot is its code space, so the file
//! holds no value-level rows: the dictionary is the only place values
//! appear.
//!
//! Because the persisted identity (uid + ancestry) is restored
//! verbatim — and the process-wide uid counter is bumped past it — a
//! cursor token issued against the snapshot before a restart still
//! validates against the reopened one: restart cost becomes "open a
//! file" without invalidating a single resumable cursor.
//!
//! Generations persist too: [`save_delta`] writes only the dictionary
//! *extension* and the relations a [`Snapshot::freeze_delta`] dirtied;
//! [`open_delta`] replays it on top of an opened parent (clean
//! relations carry by `Arc`, exactly like the in-memory delta freeze).
//! [`SnapshotStore`] manages a directory holding one base file plus a
//! chain of delta files and replays the whole lineage on open.
//!
//! ## File layout (version 2, little-endian)
//!
//! ```text
//! header (32 bytes):
//!   magic "RDASNAP1" | version u32 | kind u32 (0 base, 1 delta)
//!   section_count u64 | FNV-1a over the previous 24 bytes
//! then section_count sections, each starting 8-byte aligned:
//!   tag u32 | reserved u32 | payload_len u64 | FNV-1a(payload) u64
//!   payload bytes, zero-padded to the next multiple of 8
//! ```
//!
//! Base sections: `META` (generation, uid, ancestry, counts), `DICT`
//! (interned values, ascending), then per relation `RMETA` (name,
//! version, arity, row count) and `RCOLS` (the normalized encoded
//! columns, column-major `u32`s — the zero-copy target, 4-byte aligned
//! by construction). Delta sections: `DMETA` (parent/child identity),
//! `DVALS` (the dictionary extension), `CARRY` (clean relation names),
//! then `RMETA`+`RCOLS` for each dirty relation. An arity above 2¹⁶
//! is refused on save and on open. Version 1 files open
//! as [`PersistError::UnsupportedVersion`].
//!
//! Every way a file can be damaged — truncation anywhere, a flipped
//! bit, a forged length, a wrong magic/version/kind — surfaces as a
//! typed [`PersistError`]; opening never panics.

use crate::database::Database;
use crate::dict::{DictDelta, Dictionary};
use crate::encoded::EncodedRelation;
use crate::snapshot::Snapshot;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First 8 bytes of every persisted snapshot file.
pub(crate) const MAGIC: [u8; 8] = *b"RDASNAP1";
/// Current on-disk format version.
pub(crate) const FORMAT_VERSION: u32 = 2;

const KIND_BASE: u32 = 0;
const KIND_DELTA: u32 = 1;

const TAG_META: u32 = 1;
const TAG_DICT: u32 = 2;
const TAG_RMETA: u32 = 3;
const TAG_RCOLS: u32 = 4;
const TAG_DMETA: u32 = 5;
const TAG_DVALS: u32 = 6;
const TAG_CARRY: u32 = 7;

const HEADER_LEN: usize = 32;
/// Widest relation the format stores. With zero rows no `RCOLS` length
/// bounds the `RMETA` arity, so this one does.
const MAX_ARITY: usize = 1 << 16;
const SECTION_HEADER_LEN: usize = 24;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a folded over little-endian u64 *words* (zero-padded tail,
/// length-finalized) rather than bytes: one sequential multiply per 8
/// bytes instead of per byte, which keeps checksum verification a
/// single-digit share of a cold open on multi-megabyte files. Any
/// flipped bit still changes the word it lives in, so detection is
/// byte-equivalent; the trailing length fold keeps zero-padded tails
/// from colliding with genuinely longer payloads.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().unwrap());
        h = h.wrapping_mul(FNV_PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(FNV_PRIME)
}

/// Why a persisted snapshot could not be written or opened. Every
/// corruption mode maps here — opening a damaged file never panics.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic bytes.
    BadMagic,
    /// The file's format version is not one this build speaks.
    UnsupportedVersion(u32),
    /// A base file was expected but the header says delta — or vice
    /// versa — or the kind field is garbage.
    WrongKind {
        /// Kind the caller needed (0 base, 1 delta).
        expected: u32,
        /// Kind the header claims.
        found: u32,
    },
    /// The file ends before a field or section it promises.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
    },
    /// A section's payload does not match its recorded checksum: the
    /// file was damaged or tampered with.
    ChecksumMismatch {
        /// Which part of the file failed verification.
        section: &'static str,
    },
    /// A structural invariant does not hold even though checksums do
    /// (e.g. a code out of the dictionary's range, an unsorted
    /// dictionary, a duplicate relation).
    Corrupt(&'static str),
    /// A delta file names a parent snapshot other than the one it is
    /// being replayed onto.
    LineageMismatch {
        /// Parent uid the delta file was written against.
        expected: u64,
        /// Uid of the snapshot actually supplied.
        found: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot persistence I/O error: {e}"),
            PersistError::BadMagic => write!(f, "not a persisted snapshot (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "snapshot format version {v} unsupported (this build speaks {FORMAT_VERSION})"
                )
            }
            PersistError::WrongKind { expected, found } => {
                write!(f, "wrong file kind: expected {expected}, found {found}")
            }
            PersistError::Truncated { what } => {
                write!(f, "snapshot file truncated while reading {what}")
            }
            PersistError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section}")
            }
            PersistError::Corrupt(what) => write!(f, "snapshot file corrupt: {what}"),
            PersistError::LineageMismatch { expected, found } => write!(
                f,
                "delta file belongs to parent uid {expected}, not {found}"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Mapped files
// ---------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    /// Map `len` bytes of `file` read-only. `len` must be non-zero.
    pub(super) fn map(file: &std::fs::File, len: usize) -> std::io::Result<*const u8> {
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if p as isize == -1 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(p as *const u8)
        }
    }

    pub(super) unsafe fn unmap(ptr: *const u8, len: usize) {
        munmap(ptr as *mut core::ffi::c_void, len);
    }
}

/// The bytes of one opened snapshot file, kept alive for as long as
/// any column view borrows from them. On unix this is a read-only
/// private `mmap` (the kernel pages data in on demand and shares clean
/// pages across processes); elsewhere the file is read into one owned,
/// 8-byte-aligned buffer — same lifetime semantics, no page sharing.
pub(crate) struct MapBuf {
    ptr: *const u8,
    len: usize,
    /// `Some` keeps the owned fallback allocation alive; `None` means
    /// the pointer is a real mapping to be unmapped on drop.
    owned: Option<Vec<u64>>,
}

// SAFETY: the mapping is read-only for its entire lifetime and the
// owned fallback is never mutated after construction; shared references
// to immutable bytes are Send + Sync.
unsafe impl Send for MapBuf {}
unsafe impl Sync for MapBuf {}

impl MapBuf {
    fn open(path: &Path) -> Result<MapBuf, PersistError> {
        let file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| PersistError::Corrupt("file larger than the address space"))?;
        if len == 0 {
            return Ok(MapBuf {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
                owned: Some(Vec::new()),
            });
        }
        #[cfg(unix)]
        {
            let ptr = sys::map(&file, len)?;
            Ok(MapBuf {
                ptr,
                len,
                owned: None,
            })
        }
        #[cfg(not(unix))]
        {
            use std::io::Read;
            let words = len.div_ceil(8);
            let mut buf: Vec<u64> = vec![0; words];
            let bytes =
                unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, words * 8) };
            let mut f = file;
            f.read_exact(&mut bytes[..len])?;
            Ok(MapBuf {
                ptr: buf.as_ptr() as *const u8,
                len,
                owned: Some(buf),
            })
        }
    }

    fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            &[]
        } else {
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }
}

impl Drop for MapBuf {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.owned.is_none() && self.len != 0 {
            unsafe { sys::unmap(self.ptr, self.len) };
        }
    }
}

impl fmt::Debug for MapBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MapBuf({} bytes, {})",
            self.len,
            if self.owned.is_some() {
                "owned"
            } else {
                "mmap"
            }
        )
    }
}

/// A `u32`-typed view into a [`MapBuf`] — the zero-copy backing of a
/// cold-opened snapshot's encoded column. Cloning shares the mapping.
#[derive(Clone)]
pub(crate) struct MappedSlice {
    buf: Arc<MapBuf>,
    /// Byte offset into the map; always 4-byte aligned.
    off: usize,
    /// Length in `u32`s.
    len: usize,
}

impl MappedSlice {
    /// View `len` u32s starting at byte `off`. Returns `None` when the
    /// range escapes the map or is misaligned.
    fn new(buf: &Arc<MapBuf>, off: usize, len: usize) -> Option<MappedSlice> {
        let bytes = len.checked_mul(4)?;
        let end = off.checked_add(bytes)?;
        if end > buf.len || !off.is_multiple_of(4) || !(buf.ptr as usize).is_multiple_of(4) {
            return None;
        }
        Some(MappedSlice {
            buf: Arc::clone(buf),
            off,
            len,
        })
    }

    pub(crate) fn as_slice(&self) -> &[u32] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: construction checked bounds and 4-byte alignment, the
        // mapping is immutable, and `buf` is kept alive by the Arc.
        unsafe { std::slice::from_raw_parts(self.buf.ptr.add(self.off) as *const u32, self.len) }
    }

    pub(crate) fn slice(&self, lo: usize, hi: usize) -> MappedSlice {
        assert!(lo <= hi && hi <= self.len, "slice {lo}..{hi} out of bounds");
        MappedSlice {
            buf: Arc::clone(&self.buf),
            off: self.off + lo * 4,
            len: hi - lo,
        }
    }
}

impl fmt::Debug for MappedSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MappedSlice(off {}, {} u32s)", self.off, self.len)
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

fn push_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(1);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn push_name(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Accumulates sections and finishes into one flat byte image.
struct FileWriter {
    kind: u32,
    body: Vec<u8>,
    sections: u64,
}

impl FileWriter {
    fn new(kind: u32) -> FileWriter {
        FileWriter {
            kind,
            body: Vec::new(),
            sections: 0,
        }
    }

    fn section(&mut self, tag: u32, payload: &[u8]) {
        self.body.extend_from_slice(&tag.to_le_bytes());
        self.body.extend_from_slice(&0u32.to_le_bytes());
        self.body
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.body.extend_from_slice(&fnv1a(payload).to_le_bytes());
        self.body.extend_from_slice(payload);
        while !self.body.len().is_multiple_of(8) {
            self.body.push(0);
        }
        self.sections += 1;
    }

    fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.body.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&self.sections.to_le_bytes());
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

/// Serialize one relation of `snap` as its RMETA + RCOLS section pair.
fn write_relation(w: &mut FileWriter, snap: &Snapshot, name: &str) -> Result<(), PersistError> {
    let enc = snap
        .encoded(name)
        .ok_or(PersistError::Corrupt("encoding missing at save"))?;
    let version = snap
        .relation_version(name)
        .ok_or(PersistError::Corrupt("version missing at save"))?;
    if enc.arity() > MAX_ARITY {
        return Err(PersistError::Corrupt("relation arity exceeds the format"));
    }
    let mut meta = Vec::new();
    push_name(&mut meta, name);
    meta.extend_from_slice(&version.to_le_bytes());
    meta.extend_from_slice(&(enc.arity() as u64).to_le_bytes());
    meta.extend_from_slice(&(enc.len() as u64).to_le_bytes());
    w.section(TAG_RMETA, &meta);

    let mut cols = Vec::with_capacity(enc.len() * enc.arity() * 4);
    for p in 0..enc.arity() {
        for &c in enc.col(p) {
            cols.extend_from_slice(&c.to_le_bytes());
        }
    }
    w.section(TAG_RCOLS, &cols);
    Ok(())
}

/// Serialize `snap` — dictionary, encoded columns, identity metadata —
/// into a single base file at `path` (atomically: written to a
/// temporary sibling, then renamed). Returns the bytes written.
pub fn save_snapshot(snap: &Snapshot, path: impl AsRef<Path>) -> Result<u64, PersistError> {
    let path = path.as_ref();
    let mut w = FileWriter::new(KIND_BASE);

    let names: Vec<&str> = snap.relation_names().collect();
    let mut meta = Vec::new();
    meta.extend_from_slice(&snap.generation().to_le_bytes());
    meta.extend_from_slice(&snap.uid().to_le_bytes());
    meta.extend_from_slice(&(snap.dict().len() as u64).to_le_bytes());
    meta.extend_from_slice(&(names.len() as u64).to_le_bytes());
    let ancestry = snap.ancestry();
    meta.extend_from_slice(&(ancestry.len() as u64).to_le_bytes());
    for &a in ancestry {
        meta.extend_from_slice(&a.to_le_bytes());
    }
    w.section(TAG_META, &meta);

    let mut dict_bytes = Vec::new();
    for c in 0..snap.dict().len() as u32 {
        push_value(&mut dict_bytes, snap.dict().value(c));
    }
    w.section(TAG_DICT, &dict_bytes);

    for name in names {
        write_relation(&mut w, snap, name)?;
    }

    write_atomically(path, &w.finish())
}

/// Serialize the generation step from `parent` to `child` (which must
/// be `parent.freeze_delta(..)`'s output: one generation later in the
/// same lineage) as a delta file holding only the dictionary extension
/// and the relations that delta dirtied. Returns the bytes written.
pub fn save_delta(
    parent: &Snapshot,
    child: &Snapshot,
    path: impl AsRef<Path>,
) -> Result<u64, PersistError> {
    if child.generation() != parent.generation() + 1 || !child.descends_from(parent.uid()) {
        return Err(PersistError::LineageMismatch {
            expected: parent.uid(),
            found: child.uid(),
        });
    }
    let mut w = FileWriter::new(KIND_DELTA);

    // Fresh values: interned by the child, unknown to the parent. The
    // replay re-runs `Dictionary::extend` on exactly this set, which
    // deterministically reproduces the child's code space (and remap).
    // Both dictionaries list their values ascending: one merge walk.
    let (old, mut at) = (parent.dict(), 0u32);
    let fresh: Vec<&Value> = (0..child.dict().len() as u32)
        .map(|c| child.dict().value(c))
        .filter(|v| {
            while (at as usize) < old.len() && old.value(at) < *v {
                at += 1;
            }
            (at as usize) == old.len() || old.value(at) != *v
        })
        .collect();

    // A relation is dirty iff this very generation encoded it.
    let mut dirty: Vec<&str> = Vec::new();
    let mut carried: Vec<&str> = Vec::new();
    for name in child.relation_names() {
        let version = child
            .relation_version(name)
            .ok_or(PersistError::Corrupt("version missing at save"))?;
        if version == child.generation() {
            dirty.push(name);
        } else {
            carried.push(name);
        }
    }

    let mut meta = Vec::new();
    meta.extend_from_slice(&parent.uid().to_le_bytes());
    meta.extend_from_slice(&child.uid().to_le_bytes());
    meta.extend_from_slice(&child.generation().to_le_bytes());
    meta.extend_from_slice(&(child.dict().len() as u64).to_le_bytes());
    meta.extend_from_slice(&(fresh.len() as u64).to_le_bytes());
    meta.extend_from_slice(&(dirty.len() as u64).to_le_bytes());
    meta.extend_from_slice(&(carried.len() as u64).to_le_bytes());
    w.section(TAG_DMETA, &meta);

    let mut vals = Vec::new();
    for v in &fresh {
        push_value(&mut vals, v);
    }
    w.section(TAG_DVALS, &vals);

    let mut carry = Vec::new();
    for name in &carried {
        push_name(&mut carry, name);
    }
    w.section(TAG_CARRY, &carry);

    for name in dirty {
        write_relation(&mut w, child, name)?;
    }

    write_atomically(path.as_ref(), &w.finish())
}

fn write_atomically(path: &Path, bytes: &[u8]) -> Result<u64, PersistError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(bytes.len() as u64)
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// A bounds-checked little-endian reader over one section payload.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8], what: &'static str) -> Rd<'a> {
        Rd { buf, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.buf.len() - self.pos < n {
            return Err(PersistError::Truncated { what: self.what });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize64(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.u64()?).map_err(|_| PersistError::Corrupt("count overflows usize"))
    }

    fn name(&mut self) -> Result<String, PersistError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt("relation name is not UTF-8"))
    }

    fn value(&mut self) -> Result<Value, PersistError> {
        match self.u8()? {
            0 => Ok(Value::Int(i64::from_le_bytes(
                self.take(8)?.try_into().unwrap(),
            ))),
            1 => {
                let len = self.u32()? as usize;
                let bytes = self.take(len)?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| PersistError::Corrupt("string value is not UTF-8"))?;
                Ok(Value::str(s))
            }
            _ => Err(PersistError::Corrupt("unknown value tag")),
        }
    }

    fn done(&self) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            return Err(PersistError::Corrupt("trailing bytes in section"));
        }
        Ok(())
    }
}

/// One verified section of an opened file.
struct Section<'a> {
    tag: u32,
    /// Absolute byte offset of the payload within the file.
    payload_off: usize,
    payload: &'a [u8],
}

/// Parse and checksum-verify the header and every section.
fn parse_file(bytes: &[u8], expected_kind: u32) -> Result<Vec<Section<'_>>, PersistError> {
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::Truncated { what: "header" });
    }
    if bytes[0..8] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let kind = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let section_count = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let claimed = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    if fnv1a(&bytes[0..24]) != claimed {
        return Err(PersistError::ChecksumMismatch { section: "header" });
    }
    if kind != expected_kind {
        return Err(PersistError::WrongKind {
            expected: expected_kind,
            found: kind,
        });
    }
    let mut sections = Vec::new();
    let mut pos = HEADER_LEN;
    for _ in 0..section_count {
        if bytes.len() - pos < SECTION_HEADER_LEN {
            return Err(PersistError::Truncated {
                what: "section header",
            });
        }
        let tag = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap());
        let sum = u64::from_le_bytes(bytes[pos + 16..pos + 24].try_into().unwrap());
        let len = usize::try_from(len)
            .ok()
            .filter(|&l| l <= bytes.len() - pos - SECTION_HEADER_LEN)
            .ok_or(PersistError::Truncated {
                what: "section payload",
            })?;
        let payload_off = pos + SECTION_HEADER_LEN;
        let payload = &bytes[payload_off..payload_off + len];
        if fnv1a(payload) != sum {
            return Err(PersistError::ChecksumMismatch { section: "section" });
        }
        sections.push(Section {
            tag,
            payload_off,
            payload,
        });
        pos = payload_off + len;
        while !pos.is_multiple_of(8) {
            if pos >= bytes.len() || bytes[pos] != 0 {
                return Err(PersistError::Corrupt("nonzero section padding"));
            }
            pos += 1;
        }
    }
    if pos != bytes.len() {
        return Err(PersistError::Corrupt("trailing bytes after last section"));
    }
    Ok(sections)
}

fn expect_tag<'a, 'b>(
    sections: &'b [Section<'a>],
    idx: usize,
    tag: u32,
) -> Result<&'b Section<'a>, PersistError> {
    sections
        .get(idx)
        .filter(|s| s.tag == tag)
        .ok_or(PersistError::Corrupt("unexpected section order"))
}

/// Everything read from one RMETA + RCOLS pair.
struct RelationParts {
    name: String,
    version: u64,
    enc: Arc<EncodedRelation>,
}

fn read_relation(
    map: &Arc<MapBuf>,
    rmeta: &Section<'_>,
    rcols: &Section<'_>,
    dict: &Dictionary,
) -> Result<RelationParts, PersistError> {
    let mut r = Rd::new(rmeta.payload, "relation metadata");
    let name = r.name()?;
    let version = r.u64()?;
    let arity = r.usize64()?;
    let enc_rows = r.usize64()?;
    r.done()?;
    if arity > MAX_ARITY {
        return Err(PersistError::Corrupt("relation arity exceeds the format"));
    }

    // Encoded columns: zero-copy views into the mapped payload
    // (column-major, 4-byte aligned by the section layout). On a
    // big-endian host the bytes are still little-endian on disk, so the
    // columns are materialized instead — correct, just not zero-copy.
    let expect_len = enc_rows
        .checked_mul(arity)
        .and_then(|c| c.checked_mul(4))
        .ok_or(PersistError::Corrupt("encoded size overflows"))?;
    if rcols.payload.len() != expect_len {
        return Err(PersistError::Corrupt("encoded column size mismatch"));
    }
    let enc = if cfg!(target_endian = "little") {
        let mut cols = Vec::with_capacity(arity);
        for p in 0..arity {
            let off = rcols.payload_off + p * enc_rows * 4;
            let col = MappedSlice::new(map, off, enc_rows)
                .ok_or(PersistError::Corrupt("encoded column misaligned"))?;
            cols.push(col);
        }
        EncodedRelation::from_mapped_columns(enc_rows, cols)
    } else {
        let mut cols: Vec<Vec<u32>> = Vec::with_capacity(arity);
        for p in 0..arity {
            let base = p * enc_rows * 4;
            cols.push(
                (0..enc_rows)
                    .map(|i| {
                        u32::from_le_bytes(
                            rcols.payload[base + i * 4..base + i * 4 + 4]
                                .try_into()
                                .unwrap(),
                        )
                    })
                    .collect(),
            );
        }
        EncodedRelation::from_owned_columns(enc_rows, cols)
    };

    // Structural validation so serving can never panic on a file that
    // checksums clean but lies: every code in range, rows normalized
    // (strictly ascending by full row). Straight slice scans — this
    // runs over every cell of every relation on the open path.
    {
        let cols: Vec<&[u32]> = (0..arity).map(|p| enc.col(p)).collect();
        for col in &cols {
            if col.iter().any(|&c| (c as usize) >= dict.len()) {
                return Err(PersistError::Corrupt("encoded code out of range"));
            }
        }
        for i in 1..enc_rows {
            let mut ord = std::cmp::Ordering::Equal;
            for col in &cols {
                ord = col[i - 1].cmp(&col[i]);
                if ord != std::cmp::Ordering::Equal {
                    break;
                }
            }
            if ord != std::cmp::Ordering::Less {
                return Err(PersistError::Corrupt("encoded rows not normalized"));
            }
        }
    }

    Ok(RelationParts {
        name,
        version,
        enc: Arc::new(enc),
    })
}

/// Open a base snapshot file written by [`save_snapshot`]: map it,
/// verify every checksum and that the dictionary ascends (lookups binary-search it as read), and reconstruct an `Arc<Snapshot>` whose encoded columns
/// read **directly from the mapped bytes**. No relation is re-encoded
/// ([`crate::relation_encode_count`] does not move) and the persisted
/// identity (generation, uid, lineage, per-relation versions) is
/// restored verbatim, so plans and cursors keyed against the original
/// snapshot still validate against the reopened one.
pub fn open_snapshot(path: impl AsRef<Path>) -> Result<Arc<Snapshot>, PersistError> {
    let map = Arc::new(MapBuf::open(path.as_ref())?);
    let sections = parse_file(map.bytes(), KIND_BASE)?;

    let meta = expect_tag(&sections, 0, TAG_META)?;
    let mut r = Rd::new(meta.payload, "snapshot metadata");
    let generation = r.u64()?;
    let uid = r.u64()?;
    let dict_len = r.usize64()?;
    let relation_count = r.usize64()?;
    let ancestry_len = r.usize64()?;
    let mut ancestry = Vec::with_capacity(ancestry_len.min(1 << 16));
    for _ in 0..ancestry_len {
        ancestry.push(r.u64()?);
    }
    r.done()?;
    if dict_len > u32::MAX as usize {
        return Err(PersistError::Corrupt("dictionary exceeds the code space"));
    }

    let dict_sec = expect_tag(&sections, 1, TAG_DICT)?;
    // Every value takes at least 5 bytes (a tag, then a string's length
    // or an integer), so the payload bounds the count before anything
    // is sized by it.
    if dict_len > dict_sec.payload.len() / 5 {
        return Err(PersistError::Truncated { what: "dictionary" });
    }
    let mut r = Rd::new(dict_sec.payload, "dictionary");
    let mut values = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        values.push(r.value()?);
    }
    r.done()?;
    if values.windows(2).any(|w| w[0] >= w[1]) {
        return Err(PersistError::Corrupt("dictionary values not ascending"));
    }
    let dict = Arc::new(Dictionary::from_sorted(values));

    if relation_count.checked_mul(2).and_then(|n| n.checked_add(2)) != Some(sections.len()) {
        return Err(PersistError::Corrupt("relation section count mismatch"));
    }
    let mut encoded: BTreeMap<String, (Arc<EncodedRelation>, u64)> = BTreeMap::new();
    for i in 0..relation_count {
        let rmeta = expect_tag(&sections, 2 + 2 * i, TAG_RMETA)?;
        let rcols = expect_tag(&sections, 3 + 2 * i, TAG_RCOLS)?;
        let parts = read_relation(&map, rmeta, rcols, &dict)?;
        if encoded.contains_key(&parts.name) {
            return Err(PersistError::Corrupt("duplicate relation"));
        }
        encoded.insert(parts.name, (parts.enc, parts.version));
    }

    Snapshot::claim_uid(uid);
    Ok(Snapshot::assemble(dict, encoded, generation, uid, ancestry))
}

/// Replay a delta file written by [`save_delta`] on top of `parent`
/// (the very snapshot — same uid — the delta was saved against):
/// extend the dictionary with the persisted fresh values, re-read only
/// the dirty relations (zero-copy, like [`open_snapshot`]), and carry
/// every clean relation's encoding from `parent` exactly as
/// [`Snapshot::freeze_delta`] would — shared verbatim, or rebased
/// through the deterministically re-derived remap.
pub fn open_delta(
    parent: &Arc<Snapshot>,
    path: impl AsRef<Path>,
) -> Result<Arc<Snapshot>, PersistError> {
    let map = Arc::new(MapBuf::open(path.as_ref())?);
    let sections = parse_file(map.bytes(), KIND_DELTA)?;

    let dmeta = expect_tag(&sections, 0, TAG_DMETA)?;
    let mut r = Rd::new(dmeta.payload, "delta metadata");
    let parent_uid = r.u64()?;
    let child_uid = r.u64()?;
    let generation = r.u64()?;
    let dict_len = r.usize64()?;
    let fresh_count = r.usize64()?;
    let dirty_count = r.usize64()?;
    let carried_count = r.usize64()?;
    r.done()?;
    if parent_uid != parent.uid() {
        return Err(PersistError::LineageMismatch {
            expected: parent_uid,
            found: parent.uid(),
        });
    }
    if generation != parent.generation() + 1 {
        return Err(PersistError::Corrupt("delta generation out of sequence"));
    }

    let dvals = expect_tag(&sections, 1, TAG_DVALS)?;
    let mut r = Rd::new(dvals.payload, "delta dictionary extension");
    let mut fresh = Vec::with_capacity(fresh_count.min(1 << 20));
    for _ in 0..fresh_count {
        fresh.push(r.value()?);
    }
    r.done()?;

    // Re-run the deterministic dictionary extension: same fresh values
    // in, same code space (and same remap) out as the original
    // `freeze_delta`.
    let (dict, remap) = match parent.dict().extend(fresh) {
        DictDelta::Unchanged => (Arc::clone(parent.dict_arc()), None),
        DictDelta::Extended(d) => (Arc::new(d), None),
        DictDelta::Rebased { dict, remap } => (Arc::new(dict), Some(remap)),
    };
    if dict.len() != dict_len {
        return Err(PersistError::Corrupt("replayed dictionary length mismatch"));
    }

    let carry_sec = expect_tag(&sections, 2, TAG_CARRY)?;
    let mut r = Rd::new(carry_sec.payload, "carried relation names");
    let mut carried = Vec::with_capacity(carried_count.min(1 << 16));
    for _ in 0..carried_count {
        carried.push(r.name()?);
    }
    r.done()?;

    if dirty_count.checked_mul(2).and_then(|n| n.checked_add(3)) != Some(sections.len()) {
        return Err(PersistError::Corrupt("relation section count mismatch"));
    }

    let mut encoded: BTreeMap<String, (Arc<EncodedRelation>, u64)> = BTreeMap::new();
    for name in carried {
        let enc = parent
            .encoded_arc(&name)
            .ok_or(PersistError::Corrupt("carried relation unknown to parent"))?;
        let version = parent
            .relation_version(&name)
            .ok_or(PersistError::Corrupt("carried relation unknown to parent"))?;
        let enc = match &remap {
            None => Arc::clone(enc),
            Some(remap) => Arc::new(enc.remapped(remap)),
        };
        encoded.insert(name, (enc, version));
    }

    for i in 0..dirty_count {
        let rmeta = expect_tag(&sections, 3 + 2 * i, TAG_RMETA)?;
        let rcols = expect_tag(&sections, 4 + 2 * i, TAG_RCOLS)?;
        let parts = read_relation(&map, rmeta, rcols, &dict)?;
        if encoded.contains_key(&parts.name) {
            return Err(PersistError::Corrupt("duplicate relation"));
        }
        if parts.version != generation {
            return Err(PersistError::Corrupt("dirty relation version mismatch"));
        }
        encoded.insert(parts.name, (parts.enc, parts.version));
    }

    let mut ancestry = parent.child_ancestry();
    ancestry.shrink_to_fit();
    Snapshot::claim_uid(child_uid);
    Ok(Snapshot::assemble(
        dict, encoded, generation, child_uid, ancestry,
    ))
}

// ---------------------------------------------------------------------
// SnapshotStore: one base + a chain of deltas in a directory
// ---------------------------------------------------------------------

/// A directory holding one persisted lineage: `base.rdas` plus
/// `delta-<generation>.rdas` files, replayed in order on open.
///
/// ```no_run
/// use rda_db::{Database, SnapshotStore};
///
/// let snap = Database::new()
///     .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2]])
///     .freeze();
/// let store = SnapshotStore::create("/var/lib/rda/q1", &snap).unwrap();
///
/// // ... later, after a restart:
/// let store = SnapshotStore::open("/var/lib/rda/q1").unwrap();
/// let reopened = store.load().unwrap();
/// assert_eq!(reopened.uid(), snap.uid());
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Start a store at `dir` (created if absent) by persisting `snap`
    /// as its base. Fails if the directory already holds a base file.
    pub fn create(dir: impl AsRef<Path>, snap: &Snapshot) -> Result<SnapshotStore, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let store = SnapshotStore { dir };
        if store.base_path().exists() {
            return Err(PersistError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("{} already holds a base snapshot", store.dir.display()),
            )));
        }
        save_snapshot(snap, store.base_path())?;
        Ok(store)
    }

    /// Attach to an existing store directory. Fails when no base file
    /// is present; nothing is loaded yet — call [`SnapshotStore::load`].
    pub fn open(dir: impl AsRef<Path>) -> Result<SnapshotStore, PersistError> {
        let store = SnapshotStore {
            dir: dir.as_ref().to_path_buf(),
        };
        if !store.base_path().is_file() {
            return Err(PersistError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{} holds no base snapshot", store.dir.display()),
            )));
        }
        Ok(store)
    }

    /// Open the base file and replay every consecutive delta file on
    /// top of it, returning the newest reachable generation.
    pub fn load(&self) -> Result<Arc<Snapshot>, PersistError> {
        let mut snap = open_snapshot(self.base_path())?;
        loop {
            let next = self.delta_path(snap.generation() + 1);
            if !next.is_file() {
                return Ok(snap);
            }
            snap = open_delta(&snap, next)?;
        }
    }

    /// Persist the step from `parent` to `child` (one
    /// [`Snapshot::freeze_delta`] apart) as the chain's next delta
    /// file. Returns the path written.
    pub fn append_delta(
        &self,
        parent: &Snapshot,
        child: &Snapshot,
    ) -> Result<PathBuf, PersistError> {
        let path = self.delta_path(child.generation());
        save_delta(parent, child, &path)?;
        Ok(path)
    }

    /// [`Snapshot::freeze_delta`] with persistence: freeze the next
    /// generation from `db` *and* append its delta file, so the store
    /// replays to exactly the returned snapshot.
    pub fn freeze_delta(
        &self,
        parent: &Snapshot,
        db: &mut Database,
    ) -> Result<Arc<Snapshot>, PersistError> {
        let child = parent.freeze_delta(db);
        self.append_delta(parent, &child)?;
        Ok(child)
    }

    /// Path of the base snapshot file.
    pub fn base_path(&self) -> PathBuf {
        self.dir.join("base.rdas")
    }

    /// Path of the delta file for `generation`.
    pub(crate) fn delta_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("delta-{generation:06}.rdas"))
    }
}
