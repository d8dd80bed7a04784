//! Opaque resumable cursors.
//!
//! A [`Cursor`] pins everything a later request needs to continue a
//! paginated scan *with the same answer sequence*: the canonical
//! request key (so the server can find the query spec and re-prepare),
//! the snapshot identity the sequence was served from, the next rank
//! to read, and the per-relation content versions the plan depends on
//! (so staleness is decided by *data*, not by generation numbers).
//!
//! On the wire a cursor is a [`Token`]: a version-prefixed,
//! checksum-suffixed byte string that clients treat as opaque. Decoding
//! never panics — every way a token can be damaged (truncation,
//! bit-flips, wrong version, trailing garbage, non-UTF-8 keys) maps to
//! a typed [`CursorError`].
//!
//! ## Wire format (version 2, little-endian)
//!
//! ```text
//! u8  version (= 2)
//! u64 snapshot uid          u64 generation          u64 next rank
//! u32 key length, then that many bytes of canonical request key
//! u32 dependency count, then per dependency:
//!     u32 name length, name bytes, u64 relation content version
//! u64 checksum over every preceding byte
//! ```
//!
//! The checksum reads the bytes before it as little-endian u64 words,
//! the last one zero-padded, and then the byte length as one more word:
//!
//! ```text
//! h = 0xcbf2_9ce4_8422_2325
//! for each word w:  h = (h ^ w) * 0x9e37_79b9_7f4a_7c15;  h ^= h >> 29
//! checksum = fmix64(h)        (MurmurHash3's 64-bit finalizer)
//! ```
//!
//! Every step is a bijection of `h` (xor, an odd multiply, an
//! xor-shift), so two payloads that differ in one word never meet
//! again; the shift carries the multiply's high bits down, so a flip of
//! bit 63 — which an odd multiply leaves alone in bit 63 — spreads, and
//! a second flip of the same bit in a later word does not cancel it by
//! construction, as it does when a step is a bare multiply. The
//! length word keeps a zero-padded tail apart from real zero bytes.
//! Version-1 tokens (a byte-wise FNV-1a checksum) are refused as
//! [`CursorError::UnsupportedVersion`]; there is no converter.
//!
//! The checksum is an integrity check against corruption and casual
//! tampering, not an authentication mechanism: tokens carry no secret,
//! and a client that forges a valid token can only name queries it
//! could have prepared anyway.

/// Current token wire-format version (the first byte of every token).
pub(crate) const TOKEN_VERSION: u8 = 2;

/// Hard cap on accepted token size. Honest tokens are small (the
/// canonical key plus a few dependency entries); anything larger is
/// rejected before allocation, so a forged length prefix cannot make
/// the server allocate unbounded memory.
pub(crate) const MAX_TOKEN_LEN: usize = 1 << 16;

/// An opaque pagination token handed to clients.
///
/// Clients hold it, copy it, and send it back; only the server and
/// [`Cursor::decode`] look inside. `Debug` prints a length and a
/// checksum-style prefix rather than the raw bytes, to keep logs from
/// becoming an accidental wire-format contract.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Token(Vec<u8>);

impl Token {
    /// Wrap raw bytes received from a client.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        Token(bytes.into())
    }

    /// The raw wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl std::fmt::Debug for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let prefix: Vec<String> = self.0.iter().take(4).map(|b| format!("{b:02x}")).collect();
        write!(f, "Token({} bytes, {}…)", self.0.len(), prefix.join(""))
    }
}

/// Why a token failed to decode. None of these abort the server; they
/// surface as [`crate::ServeError::BadCursor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CursorError {
    /// The token ends before a field it promises.
    Truncated {
        /// Bytes the current field needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The version byte names a format this server does not speak.
    UnsupportedVersion(u8),
    /// The checksum does not match the payload: the token was damaged
    /// or tampered with in transit.
    ChecksumMismatch,
    /// Decoding finished with unconsumed bytes before the checksum.
    TrailingBytes(usize),
    /// A string field is not valid UTF-8.
    MalformedUtf8,
    /// The token exceeds the 64 KiB token limit.
    Oversized(usize),
}

impl std::fmt::Display for CursorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CursorError::Truncated { needed, have } => {
                write!(
                    f,
                    "cursor token truncated: field needs {needed} bytes, {have} remain"
                )
            }
            CursorError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "cursor token version {v} unsupported (this server speaks {TOKEN_VERSION})"
                )
            }
            CursorError::ChecksumMismatch => write!(f, "cursor token checksum mismatch"),
            CursorError::TrailingBytes(n) => {
                write!(f, "cursor token has {n} trailing bytes after the payload")
            }
            CursorError::MalformedUtf8 => write!(f, "cursor token contains malformed UTF-8"),
            CursorError::Oversized(n) => {
                write!(
                    f,
                    "cursor token of {n} bytes exceeds the {MAX_TOKEN_LEN}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for CursorError {}

/// The decoded contents of a pagination token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cursor {
    /// Canonical request key (see
    /// [`rda_core::canonical_request_key`]): identifies the prepared
    /// (query, order, FDs, policy) spec in the server's registry.
    pub request_key: String,
    /// [`rda_db::Snapshot::uid`] of the snapshot the last page was
    /// validated against.
    pub snapshot_uid: u64,
    /// [`rda_db::Snapshot::generation`] of that snapshot.
    pub generation: u64,
    /// Rank of the first answer the next page should return.
    pub next_rank: u64,
    /// Per-relation content versions
    /// ([`rda_db::Snapshot::relation_version`]) the plan depends on,
    /// sorted by relation name. Resuming on a descendant snapshot is
    /// *clean* iff every entry still matches.
    pub deps: Vec<(String, u64)>,
}

/// Bytes of a token with an empty key and no dependencies: the
/// version, the three fixed u64s, the key length, the dependency count
/// and the checksum.
const FIXED_LEN: usize = 1 + 24 + 4 + 4 + 8;

/// The token checksum (see the module doc): one bijective mixing step
/// per little-endian word, the tail zero-padded, the length folded in
/// as a last word, then a final avalanche.
fn checksum(bytes: &[u8]) -> u64 {
    fn step(h: u64, w: u64) -> u64 {
        let h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 29)
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().unwrap()));
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = step(h, u64::from_le_bytes(tail));
    }
    h = step(h, bytes.len() as u64);
    // MurmurHash3's fmix64.
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A bounds-checked little-endian reader over a token payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CursorError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(CursorError::Truncated { needed: n, have });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, CursorError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CursorError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<&'a str, CursorError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CursorError::MalformedUtf8)
    }
}

/// A verified token read in place: a [`Cursor`] whose strings borrow
/// the token's bytes. The server reads tokens only through views, so a
/// page allocates nothing to read its cursor; [`Cursor::decode`] is a
/// view made owned.
pub(crate) struct CursorView<'a> {
    pub(crate) request_key: &'a str,
    pub(crate) snapshot_uid: u64,
    pub(crate) generation: u64,
    pub(crate) next_rank: u64,
    /// The dependency entries, after their count; checked by `parse`.
    deps: &'a [u8],
}

impl<'a> CursorView<'a> {
    /// Parse and verify a wire token. Rejects — never panics on — any
    /// malformed input. The checks run in this order: size cap,
    /// minimum length, version, checksum, then the fields in wire
    /// order (truncation, UTF-8, a forged dependency count), then
    /// trailing bytes.
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<Self, CursorError> {
        if bytes.len() > MAX_TOKEN_LEN {
            return Err(CursorError::Oversized(bytes.len()));
        }
        if bytes.len() < FIXED_LEN {
            return Err(CursorError::Truncated {
                needed: FIXED_LEN,
                have: bytes.len(),
            });
        }
        if bytes[0] != TOKEN_VERSION {
            return Err(CursorError::UnsupportedVersion(bytes[0]));
        }
        // Verify integrity before trusting any length prefix.
        let (payload, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let claimed = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        if checksum(payload) != claimed {
            return Err(CursorError::ChecksumMismatch);
        }
        let mut r = Reader {
            buf: payload,
            pos: 1,
        };
        let snapshot_uid = r.u64()?;
        let generation = r.u64()?;
        let next_rank = r.u64()?;
        let request_key = r.str()?;
        let dep_count = r.u32()? as usize;
        // Each dependency costs at least 12 bytes on the wire; a count
        // claiming more than the remaining bytes allow is truncation.
        let remaining = payload.len() - r.pos;
        if dep_count.saturating_mul(12) > remaining {
            return Err(CursorError::Truncated {
                needed: dep_count * 12,
                have: remaining,
            });
        }
        let deps = &payload[r.pos..];
        for _ in 0..dep_count {
            r.str()?;
            r.u64()?;
        }
        if r.pos != payload.len() {
            return Err(CursorError::TrailingBytes(payload.len() - r.pos));
        }
        Ok(CursorView {
            request_key,
            snapshot_uid,
            generation,
            next_rank,
            deps,
        })
    }

    /// The (relation name, content version) dependencies, in token
    /// order.
    pub(crate) fn deps(&self) -> impl Iterator<Item = (&'a str, u64)> {
        let mut r = Reader {
            buf: self.deps,
            pos: 0,
        };
        // `parse` walked these entries, so no read below fails.
        std::iter::from_fn(move || {
            if r.pos == r.buf.len() {
                return None;
            }
            Some((r.str().ok()?, r.u64().ok()?))
        })
    }

    /// The owned cursor this view reads.
    fn into_cursor(self) -> Cursor {
        Cursor {
            request_key: self.request_key.to_owned(),
            snapshot_uid: self.snapshot_uid,
            generation: self.generation,
            next_rank: self.next_rank,
            deps: self.deps().map(|(name, v)| (name.to_owned(), v)).collect(),
        }
    }
}

impl Cursor {
    /// Serialize into an opaque wire token (version byte, payload,
    /// checksum), allocated once at its exact size.
    pub fn encode(&self) -> Token {
        let deps_len: usize = self.deps.iter().map(|(name, _)| 12 + name.len()).sum();
        let mut out = Vec::with_capacity(FIXED_LEN + self.request_key.len() + deps_len);
        out.push(TOKEN_VERSION);
        out.extend_from_slice(&self.snapshot_uid.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.next_rank.to_le_bytes());
        push_str(&mut out, &self.request_key);
        out.extend_from_slice(&(self.deps.len() as u32).to_le_bytes());
        for (name, version) in &self.deps {
            push_str(&mut out, name);
            out.extend_from_slice(&version.to_le_bytes());
        }
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        Token(out)
    }

    /// Parse and verify a wire token. Rejects — never panics on — any
    /// malformed input: wrong version, damaged checksum, truncation,
    /// trailing bytes, bad UTF-8, oversized tokens.
    pub fn decode(token: &Token) -> Result<Cursor, CursorError> {
        Self::decode_bytes(token.as_bytes())
    }

    /// [`Cursor::decode`] over raw bytes.
    pub fn decode_bytes(bytes: &[u8]) -> Result<Cursor, CursorError> {
        CursorView::parse(bytes).map(CursorView::into_cursor)
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cursor {
        Cursor {
            request_key: "2:Q|...|lex<0,1>|{Reject}".to_string(),
            snapshot_uid: 0xdead_beef_1234,
            generation: 7,
            next_rank: 4242,
            deps: vec![("R".to_string(), 3), ("S".to_string(), 0)],
        }
    }

    #[test]
    fn round_trips() {
        let c = sample();
        assert_eq!(Cursor::decode(&c.encode()).unwrap(), c);
        let empty = Cursor {
            request_key: String::new(),
            snapshot_uid: 0,
            generation: 0,
            next_rank: 0,
            deps: vec![],
        };
        assert_eq!(Cursor::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let token = sample().encode();
        for i in 0..token.as_bytes().len() {
            for bit in 0..8 {
                let mut bytes = token.as_bytes().to_vec();
                bytes[i] ^= 1 << bit;
                let got = Cursor::decode_bytes(&bytes);
                assert!(got.is_err(), "flip byte {i} bit {bit} decoded: {got:?}");
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let token = sample().encode();
        for n in 0..token.as_bytes().len() {
            let got = Cursor::decode_bytes(&token.as_bytes()[..n]);
            assert!(got.is_err(), "prefix of {n} bytes decoded: {got:?}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().encode().as_bytes().to_vec();
        bytes.extend_from_slice(&[0, 0, 0]);
        // Appending garbage breaks the checksum (the old checksum now
        // sits mid-payload), so this surfaces as a mismatch.
        assert!(Cursor::decode_bytes(&bytes).is_err());
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = sample().encode().as_bytes().to_vec();
        bytes[0] = TOKEN_VERSION + 1;
        // Version is checked before the checksum so the error names the
        // actual problem.
        assert_eq!(
            Cursor::decode_bytes(&bytes),
            Err(CursorError::UnsupportedVersion(TOKEN_VERSION + 1))
        );
    }

    #[test]
    fn oversized_tokens_are_rejected_before_parsing() {
        let bytes = vec![TOKEN_VERSION; MAX_TOKEN_LEN + 1];
        assert_eq!(
            Cursor::decode_bytes(&bytes),
            Err(CursorError::Oversized(MAX_TOKEN_LEN + 1))
        );
    }

    #[test]
    fn forged_dep_count_cannot_demand_absurd_allocation() {
        // Hand-build a payload whose dep count claims u32::MAX entries,
        // with a *valid* checksum: the length sanity check must reject
        // it without attempting the allocation.
        let mut out = vec![TOKEN_VERSION];
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // empty key
        out.extend_from_slice(&u32::MAX.to_le_bytes()); // forged dep count
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        match Cursor::decode_bytes(&out) {
            Err(CursorError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    /// Flip the same bit of two different words of a token, for every
    /// bit and every pair of words (the checksum included): a step that
    /// were a bare multiply would let two bit-63 flips cancel.
    #[test]
    fn paired_flips_at_one_bit_offset_are_rejected() {
        let token = sample().encode();
        let bits = 8 * token.as_bytes().len();
        for first in 0..bits {
            for second in (first + 64..bits).step_by(64) {
                let mut bytes = token.as_bytes().to_vec();
                for bit in [first, second] {
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                let got = Cursor::decode_bytes(&bytes);
                assert!(got.is_err(), "flips of bits {first} and {second}: {got:?}");
            }
        }
    }

    #[test]
    fn swapped_words_are_rejected() {
        let token = sample().encode();
        let words = token.as_bytes().len() / 8;
        for i in 0..words {
            for j in i + 1..words {
                let mut bytes = token.as_bytes().to_vec();
                let (head, tail) = bytes.split_at_mut(8 * j);
                head[8 * i..8 * i + 8].swap_with_slice(&mut tail[..8]);
                if bytes == token.as_bytes() {
                    continue; // equal words: the swap changed nothing
                }
                let got = Cursor::decode_bytes(&bytes);
                assert!(got.is_err(), "swap of words {i} and {j}: {got:?}");
            }
        }
    }

    #[test]
    fn appended_zero_bytes_are_rejected() {
        let token = sample().encode();
        let payload = &token.as_bytes()[..token.as_bytes().len() - 8];
        for n in 1..=16 {
            // The zero-padded tail word alone would not tell these
            // apart; the length word does.
            let mut longer = payload.to_vec();
            longer.resize(payload.len() + n, 0);
            assert_ne!(checksum(&longer), checksum(payload), "{n} zero bytes");
            let mut bytes = token.as_bytes().to_vec();
            bytes.resize(bytes.len() + n, 0);
            assert!(Cursor::decode_bytes(&bytes).is_err(), "{n} zero bytes");
        }
    }
}
