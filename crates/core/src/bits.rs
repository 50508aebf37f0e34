//! Bit-exact label encoding.
//!
//! Label *size in bits* is the complexity measure of the model, so labels
//! are serialized through a real bit stream: booleans cost one bit, numbers
//! are nibble-varints (`4` data bits + `1` continuation bit per group), and
//! containers are length-prefixed. The experiment tables report
//! `BitWriter::bit_len` of the honest labels.

/// A growable bit sink.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Finishes and returns the raw bytes (last byte zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Appends the written bytes (last byte zero-padded) to `out`, resets
    /// the writer for reuse, and returns the flushed bit length. This is
    /// how a batch of independently-decodable labels lands in **one**
    /// contiguous buffer without a fresh allocation per label (see
    /// [`crate::EncodedLabeling::encode`]).
    pub fn flush_into(&mut self, out: &mut Vec<u8>) -> usize {
        out.extend_from_slice(&self.bytes);
        let bits = self.bit_len;
        self.bytes.clear();
        self.bit_len = 0;
        bits
    }

    /// Writes a single bit.
    pub fn put_bit(&mut self, bit: bool) {
        let pos = self.bit_len % 8;
        if pos == 0 {
            self.bytes.push(0);
        }
        if bit {
            // Index-based write: the push above guarantees a last byte,
            // without an `unwrap` in this wire-facing module.
            let last = self.bytes.len() - 1;
            self.bytes[last] |= 1 << pos;
        }
        self.bit_len += 1;
    }

    /// Writes the low `width` bits of `value` (`width <= 64`).
    ///
    /// Works a byte at a time rather than a bit at a time: label decode
    /// and encode sit on the hot path of every verification shard, and
    /// the bit loop was the single largest cost in it.
    pub fn put_bits(&mut self, value: u64, width: usize) {
        debug_assert!(width <= 64);
        let mut done = 0;
        while done < width {
            let pos = self.bit_len % 8;
            if pos == 0 {
                self.bytes.push(0);
            }
            let take = (8 - pos).min(width - done);
            let chunk = ((value >> done) & ((1u64 << take) - 1)) as u8;
            let last = self.bytes.len() - 1;
            self.bytes[last] |= chunk << pos;
            self.bit_len += take;
            done += take;
        }
    }

    /// Appends the first `bits` bits of `src`, a byte-aligned bit string
    /// such as [`BitWriter::into_bytes`] returns, at the current position
    /// whatever its alignment. Bytes and bits of `src` past `bits` are
    /// ignored, so the last byte stays zero-padded.
    ///
    /// An aligned writer copies the bytes; otherwise the source is
    /// shifted in 64 bits at a time. This is how one encoded certificate
    /// lands in every label that carries it without being re-encoded.
    pub fn append_bits(&mut self, src: &[u8], bits: usize) {
        debug_assert!(bits <= src.len() * 8);
        let bits = bits.min(src.len() * 8);
        let src = &src[..bits.div_ceil(8)];
        let shift = self.bit_len % 8;
        if shift == 0 {
            self.bytes.extend_from_slice(src);
        } else {
            // The partial last byte is re-emitted merged with the source.
            let mut carry = u64::from(self.bytes.pop().unwrap_or(0));
            let mut words = src.chunks_exact(8);
            for chunk in &mut words {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(chunk);
                let word = u64::from_le_bytes(raw);
                self.bytes
                    .extend_from_slice(&(carry | (word << shift)).to_le_bytes());
                carry = word >> (64 - shift);
            }
            // At most 7 source bytes plus `shift < 8` carried bits remain.
            let rest = words.remainder();
            let mut raw = [0u8; 8];
            raw[..rest.len()].copy_from_slice(rest);
            let tail = (carry | (u64::from_le_bytes(raw) << shift)).to_le_bytes();
            self.bytes.extend_from_slice(&tail[..rest.len() + 1]);
        }
        self.bit_len += bits;
        // Drop what lies past the new end: source padding, and a tail
        // byte that holds no written bit.
        self.bytes.truncate(self.bit_len.div_ceil(8));
        let used = self.bit_len % 8;
        if used != 0 {
            if let Some(last) = self.bytes.last_mut() {
                *last &= (1u8 << used) - 1;
            }
        }
    }

    /// Writes a nibble-varint (unsigned LEB-style, 4 bits per group).
    pub fn put_varint(&mut self, mut value: u64) {
        loop {
            let group = value & 0xF;
            value >>= 4;
            let more = (value != 0) as u64;
            // Wire order: continuation bit first, then the 4 group bits.
            self.put_bits(more | (group << 1), 5);
            if value == 0 {
                break;
            }
        }
    }
}

/// A bit-stream reader over bytes produced by [`BitWriter`].
///
/// Keeps a 64-bit look-ahead window refilled from the byte slice so the
/// common small reads (the 5-bit varint groups and 1-bit flags label
/// decoding is made of) are a shift and a mask, not a byte loop — label
/// decode is the single hottest loop of a verification shard.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next unread byte of `bytes`.
    next: usize,
    /// Bits already consumed from the stream.
    pos: usize,
    /// Look-ahead window; bit 0 is the next stream bit.
    window: u64,
    /// Number of valid bits in `window`.
    avail: usize,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            next: 0,
            pos: 0,
            window: 0,
            avail: 0,
        }
    }

    /// Tops up the window from the byte slice (best effort; the window
    /// may still hold fewer than `need` bits at the end of the stream).
    #[inline]
    fn refill(&mut self) {
        if self.next + 8 <= self.bytes.len() {
            // Fast path: splice in as many whole little-endian bytes as
            // fit, masking off the bytes that stay unconsumed.
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&self.bytes[self.next..self.next + 8]);
            let word = u64::from_le_bytes(raw);
            let take = (64 - self.avail) / 8;
            let word = if take == 8 {
                word
            } else {
                word & ((1u64 << (take * 8)) - 1)
            };
            self.window |= word << self.avail;
            self.next += take;
            self.avail += take * 8;
        } else {
            while self.avail <= 56 && self.next < self.bytes.len() {
                self.window |= (self.bytes[self.next] as u64) << self.avail;
                self.next += 1;
                self.avail += 8;
            }
        }
    }

    /// Reads one bit, or `None` past the end.
    #[inline]
    pub fn get_bit(&mut self) -> Option<bool> {
        Some(self.get_bits(1)? == 1)
    }

    /// Reads `width` bits (`width <= 64`).
    #[inline]
    pub fn get_bits(&mut self, width: usize) -> Option<u64> {
        debug_assert!(width <= 64);
        if self.avail < width {
            self.refill();
            if self.avail < width {
                if self.next < self.bytes.len() {
                    // Window full of unaligned bits but `width >= 58`
                    // still doesn't fit: take the slow byte-wise path.
                    return self.get_bits_wide(width);
                }
                // Truncated stream: fail without consuming.
                return None;
            }
        }
        let out = if width == 64 {
            self.window
        } else {
            self.window & ((1u64 << width) - 1)
        };
        self.window = if width == 64 { 0 } else { self.window >> width };
        self.avail -= width;
        self.pos += width;
        Some(out)
    }

    /// Byte-wise fallback for wide reads the window can't cover (only
    /// reachable for `width >= 58` mid-stream); resynchronizes the window
    /// afterwards.
    #[cold]
    fn get_bits_wide(&mut self, width: usize) -> Option<u64> {
        if self.pos + width > self.bytes.len() * 8 {
            return None;
        }
        let mut out = 0u64;
        let mut got = 0;
        while got < width {
            let at = self.pos + got;
            let byte = self.bytes[at / 8] as u64;
            let off = at % 8;
            let take = (8 - off).min(width - got);
            out |= ((byte >> off) & ((1u64 << take) - 1)) << got;
            got += take;
        }
        self.pos += width;
        let rem = self.pos % 8;
        if rem == 0 {
            self.next = self.pos / 8;
            self.window = 0;
            self.avail = 0;
        } else {
            // Re-seed the window with the unread high bits of the byte
            // the new position falls in.
            self.next = self.pos / 8 + 1;
            self.window = (self.bytes[self.pos / 8] as u64) >> rem;
            self.avail = 8 - rem;
        }
        Some(out)
    }

    /// Reads a nibble-varint.
    pub fn get_varint(&mut self) -> Option<u64> {
        // Fast path: parse groups straight out of the window. One refill
        // gives ≥ 57 bits = 11 whole groups, enough for any value up to
        // 2^44; the loop below only re-enters `get_bits` for the rare
        // longer values or a nearly-drained stream.
        if self.avail < 10 {
            self.refill();
        }
        let mut out = 0u64;
        let mut shift = 0;
        while self.avail >= 5 {
            let g = self.window & 0x1F;
            self.window >>= 5;
            self.avail -= 5;
            self.pos += 5;
            if shift < 64 {
                out |= (g >> 1) << shift;
            }
            shift += 4;
            if g & 1 == 0 {
                return Some(out);
            }
            if shift > 64 {
                return None;
            }
        }
        // Slow tail: window drained mid-varint.
        loop {
            let g = self.get_bits(5)?;
            if shift < 64 {
                out |= (g >> 1) << shift;
            }
            shift += 4;
            if g & 1 == 0 {
                return Some(out);
            }
            if shift > 64 {
                return None;
            }
        }
    }
}

/// Types serializable to/from the bit stream.
pub trait Enc: Sized {
    /// Appends this value to the stream.
    fn enc(&self, w: &mut BitWriter);
    /// Parses a value; `None` on malformed input.
    fn dec(r: &mut BitReader<'_>) -> Option<Self>;
}

macro_rules! enc_uint {
    ($($t:ty),*) => {$(
        impl Enc for $t {
            fn enc(&self, w: &mut BitWriter) {
                w.put_varint(*self as u64);
            }
            fn dec(r: &mut BitReader<'_>) -> Option<Self> {
                <$t>::try_from(r.get_varint()?).ok()
            }
        }
    )*};
}
enc_uint!(u8, u16, u32, u64, usize);

impl Enc for bool {
    fn enc(&self, w: &mut BitWriter) {
        w.put_bit(*self);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        r.get_bit()
    }
}

impl<T: Enc> Enc for Vec<T> {
    fn enc(&self, w: &mut BitWriter) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.enc(w);
        }
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        let len = r.get_varint()? as usize;
        if len > 1 << 24 {
            return None; // malformed length guard
        }
        // One exact-size allocation: collecting through the `Option`
        // adapter loses the length hint and reallocates log(len) times,
        // and labels are mostly many short vectors.
        let mut out = Vec::with_capacity(len.min(1 << 12));
        for _ in 0..len {
            out.push(T::dec(r)?);
        }
        Some(out)
    }
}

impl<T: Enc + Copy + Default, const N: usize> Enc for crate::inline::InlineVec<T, N> {
    fn enc(&self, w: &mut BitWriter) {
        // Wire-identical to `Vec<T>`: length varint then the items.
        w.put_varint(self.len() as u64);
        for item in self.iter() {
            item.enc(w);
        }
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        let len = r.get_varint()? as usize;
        if len > 1 << 24 {
            return None; // malformed length guard
        }
        let mut out = Self::new();
        for _ in 0..len {
            out.push(T::dec(r)?);
        }
        Some(out)
    }
}

impl<A: Enc, B: Enc> Enc for (A, B) {
    fn enc(&self, w: &mut BitWriter) {
        self.0.enc(w);
        self.1.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some((A::dec(r)?, B::dec(r)?))
    }
}

impl<T: Enc> Enc for Option<T> {
    fn enc(&self, w: &mut BitWriter) {
        match self {
            None => w.put_bit(false),
            Some(x) => {
                w.put_bit(true);
                x.enc(w);
            }
        }
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(if r.get_bit()? { Some(T::dec(r)?) } else { None })
    }
}

/// Encodes a value and returns `(bytes, bit length)`.
pub fn encode<T: Enc>(value: &T) -> (Vec<u8>, usize) {
    let mut w = BitWriter::new();
    value.enc(&mut w);
    let bits = w.bit_len();
    (w.into_bytes(), bits)
}

/// Decodes a value from bytes.
pub fn decode<T: Enc>(bytes: &[u8]) -> Option<T> {
    let mut r = BitReader::new(bytes);
    T::dec(&mut r)
}

/// Decodes a value whose encoding is exactly the first `bits` bits of
/// `bytes`: a decode that ends before them or reads past them (into the
/// zero padding of the last byte, say) is malformed.
pub fn decode_exact<T: Enc>(bytes: &[u8], bits: usize) -> Option<T> {
    let mut r = BitReader::new(bytes);
    let value = T::dec(&mut r)?;
    (r.pos == bits).then_some(value)
}

/// Bit length of a value's encoding.
pub fn bit_len<T: Enc>(value: &T) -> usize {
    encode(value).1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Enc + PartialEq + std::fmt::Debug>(v: T) {
        let (bytes, bits) = encode(&v);
        assert!(bits <= bytes.len() * 8);
        assert_eq!(decode::<T>(&bytes), Some(v));
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u64);
        roundtrip(15u64);
        roundtrip(16u64);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(42u8);
        roundtrip(usize::MAX);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip::<Vec<u32>>(vec![]);
        roundtrip(vec![1u32, 2, 3, 1 << 30]);
        roundtrip(Some(7u16));
        roundtrip::<Option<u16>>(None);
        roundtrip((5u8, vec![true, false]));
    }

    #[test]
    fn varint_is_compact() {
        // Small numbers: one 5-bit group.
        assert_eq!(bit_len(&7u64), 5);
        // A ~log n bit id costs O(log n) bits.
        assert!(bit_len(&(1u64 << 20)) <= 35);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let (bytes, _) = encode(&vec![1u64 << 40; 3]);
        assert_eq!(decode::<Vec<u64>>(&bytes[..1]), None);
    }

    /// The bit string `append_bits` must reproduce: the first `bits` bits
    /// of `src`, written one at a time after `prefix` leading bits.
    fn bitwise(prefix: usize, src: &[u8], bits: usize) -> BitWriter {
        let mut w = BitWriter::new();
        for i in 0..prefix {
            w.put_bit(i % 3 == 0);
        }
        for i in 0..bits {
            w.put_bit(src[i / 8] >> (i % 8) & 1 == 1);
        }
        w
    }

    #[test]
    fn append_bits_matches_bitwise_writes() {
        // Every destination alignment against lengths around the 64-bit
        // word boundaries; the source's padding bits are set, so the
        // result must mask them off.
        let src: Vec<u8> = (0..17u8).map(|i| i.wrapping_mul(0x9D) ^ 0xA5).collect();
        for offset in 0..8 {
            for bits in 0..=130 {
                let mut w = bitwise(offset, &src, 0);
                w.append_bits(&src, bits);
                let want = bitwise(offset, &src, bits);
                assert_eq!(w.bit_len(), want.bit_len(), "offset {offset}, {bits} bits");
                let (got, want) = (w.into_bytes(), want.into_bytes());
                assert_eq!(got, want, "offset {offset}, {bits} bits");
                assert_eq!(got.len(), (offset + bits).div_ceil(8));
            }
        }
    }

    #[test]
    fn append_bits_continues_the_stream() {
        // Writes after an append land where bit-by-bit writes would.
        let (src, bits) = encode(&vec![3u64, 1 << 40, 17]);
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.append_bits(&src, bits);
        w.put_varint(9);
        let mut r = BitReader::new(&w.bytes);
        assert_eq!(r.get_bits(3), Some(0b101));
        assert_eq!(Vec::<u64>::dec(&mut r), Some(vec![3, 1 << 40, 17]));
        assert_eq!(r.get_varint(), Some(9));
    }

    #[test]
    fn bogus_length_fails_cleanly() {
        let mut w = BitWriter::new();
        w.put_varint(u64::MAX); // absurd vector length
        let bytes = w.into_bytes();
        assert_eq!(decode::<Vec<u8>>(&bytes), None);
    }
}
