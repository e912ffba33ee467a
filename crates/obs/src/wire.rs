//! Lossless encode/decode primitives shared by every bitwise-faithful
//! serialization path in the workspace: the incident-capsule JSONL
//! writer (`roboads_core::recorder`), the versioned detector snapshot
//! format (`roboads_core::snapshot`) and the binary frame codec
//! (`roboads_wire`).
//!
//! Two families live here:
//!
//! * **Bit-equality helpers** ([`feq`], [`slice_feq`]) — the workspace's
//!   one definition of "bitwise identical" for `f64`: exact bit pattern,
//!   with every NaN payload considered equal to every other (replay and
//!   restore must treat a NaN-producing run as reproducible).
//! * **Binary primitives** — little-endian put/take for the integer and
//!   float shapes the snapshot and frame formats are built from, with a
//!   bounds-checked cursor reader ([`ByteReader`]) that returns typed
//!   errors ([`ByteError`]) instead of panicking, and length-guarded
//!   vector reads that never allocate more than the input can back
//!   (a corrupt or hostile length prefix must not over-allocate).
//!
//! Floats always travel as `f64::to_bits` so `-0.0`, subnormals and NaN
//! payloads survive a round trip exactly — the same discipline as
//! [`crate::json::write_f64_lossless`], without JSON's NaN workarounds.

use crate::json::JsonObject;

/// Bit-exact float equality with NaN ≡ NaN (any payload).
///
/// `-0.0 != 0.0` under this relation — a replayed or restored detector
/// must reproduce the *representation*, not just the value.
pub fn feq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// [`feq`] over whole slices (lengths must match too).
pub fn slice_feq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| feq(x, y))
}

/// Copies `src` into `dst`, reusing `dst`'s buffer when the lengths
/// match (the warm path of every refill-style record loop).
pub fn refill(dst: &mut Vec<f64>, src: &[f64]) {
    dst.clear();
    dst.extend_from_slice(src);
}

// --- JSON composition helpers (capsule JSONL writer) -----------------

/// Adds a lossless float field (see [`crate::json::write_f64_lossless`])
/// to a [`JsonObject`].
pub fn lossless_field(o: &mut JsonObject, key: &str, v: f64) {
    let mut buf = String::new();
    crate::json::write_f64_lossless(&mut buf, v);
    o.field_raw(key, &buf);
}

/// Encodes a float slice as a JSON array of lossless values.
pub fn lossless_array(values: &[f64]) -> String {
    let mut buf = String::from("[");
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        crate::json::write_f64_lossless(&mut buf, v);
    }
    buf.push(']');
    buf
}

/// Encodes a usize slice as a JSON array of integers.
pub fn usize_array(values: &[usize]) -> String {
    let mut buf = String::from("[");
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&v.to_string());
    }
    buf.push(']');
    buf
}

// --- Binary primitives (snapshot + frame codec) ----------------------

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its exact bit pattern, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a `bool` as one byte (0/1).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends a length-prefixed (`u32`) float slice, each value as bits.
pub fn put_f64_slice(out: &mut Vec<u8>, values: &[f64]) {
    put_u32(out, values.len() as u32);
    for &v in values {
        put_f64(out, v);
    }
}

/// Appends a length-prefixed (`u32`) bool slice, one byte each.
pub fn put_bool_slice(out: &mut Vec<u8>, values: &[bool]) {
    put_u32(out, values.len() as u32);
    for &v in values {
        put_bool(out, v);
    }
}

/// Decodes one value written by [`put_f64`] from its 8 little-endian
/// bytes (a chunk of [`ByteReader::f64_bytes`]).
///
/// # Panics
///
/// Panics unless `bytes` is exactly 8 bytes long.
pub fn f64_from_le(bytes: &[u8]) -> f64 {
    let mut le = [0u8; 8];
    le.copy_from_slice(bytes);
    f64::from_bits(u64::from_le_bytes(le))
}

/// A decode failure: byte offset and a static reason. Decoders built on
/// [`ByteReader`] surface this instead of panicking or over-reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteError {
    /// Cursor position where the failure was detected.
    pub at: usize,
    /// What was wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for ByteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "binary decode error at byte {}: {}",
            self.at, self.reason
        )
    }
}

impl std::error::Error for ByteError {}

/// Bounds-checked cursor over a byte buffer. Every read is validated
/// against the remaining input; running out returns a typed
/// [`ByteError`] — never a panic, never a read past the slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts a cursor at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor has consumed the whole buffer.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn err(&self, reason: &'static str) -> ByteError {
        ByteError {
            at: self.pos,
            reason,
        }
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`ByteError`] when fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ByteError> {
        if self.remaining() < n {
            return Err(self.err("truncated input"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes a `u8`.
    ///
    /// # Errors
    ///
    /// [`ByteError`] on truncated input.
    pub fn u8(&mut self) -> Result<u8, ByteError> {
        Ok(self.bytes(1)?[0])
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`ByteError`] on truncated input.
    pub fn u32(&mut self) -> Result<u32, ByteError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`ByteError`] on truncated input.
    pub fn u64(&mut self) -> Result<u64, ByteError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Takes an `f64` written as its bit pattern.
    ///
    /// # Errors
    ///
    /// [`ByteError`] on truncated input.
    pub fn f64(&mut self) -> Result<f64, ByteError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Takes a one-byte `bool`; any value other than 0/1 is corrupt.
    ///
    /// # Errors
    ///
    /// [`ByteError`] on truncated input or a non-0/1 byte.
    pub fn bool(&mut self) -> Result<bool, ByteError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ByteError {
                at: self.pos - 1,
                reason: "malformed bool",
            }),
        }
    }

    /// Takes a length-prefixed float slice written by [`put_f64_slice`].
    ///
    /// The declared length is validated against the bytes actually
    /// remaining *before* any allocation, so a corrupt or hostile
    /// prefix cannot over-allocate.
    ///
    /// # Errors
    ///
    /// [`ByteError`] on truncated input or a length the remaining bytes
    /// cannot back.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, ByteError> {
        Ok(self.f64_bytes()?.chunks_exact(8).map(f64_from_le).collect())
    }

    /// Takes a length-prefixed float slice written by [`put_f64_slice`]
    /// without decoding it: the `8 · n` little-endian value bytes,
    /// borrowed from the input (same validation and error offsets as
    /// [`ByteReader::f64_vec`]). [`f64_from_le`] decodes each 8-byte
    /// chunk.
    ///
    /// # Errors
    ///
    /// As [`ByteReader::f64_vec`].
    pub fn f64_bytes(&mut self) -> Result<&'a [u8], ByteError> {
        let n = self.u32()? as usize;
        if self.remaining() / 8 < n {
            return Err(self.err("float array length exceeds input"));
        }
        self.bytes(8 * n)
    }

    /// Reads a length-prefixed float slice into `dst` (same validation
    /// as [`ByteReader::f64_vec`], reusing `dst`'s buffer).
    ///
    /// # Errors
    ///
    /// As [`ByteReader::f64_vec`].
    pub fn f64_into(&mut self, dst: &mut [f64]) -> Result<(), ByteError> {
        let n = self.u32()? as usize;
        if n != dst.len() {
            return Err(self.err("float array length mismatch"));
        }
        if self.remaining() / 8 < n {
            return Err(self.err("float array length exceeds input"));
        }
        for slot in dst {
            *slot = self.f64()?;
        }
        Ok(())
    }

    /// Takes a length-prefixed bool slice written by [`put_bool_slice`].
    ///
    /// # Errors
    ///
    /// As [`ByteReader::f64_vec`], plus malformed bool bytes.
    pub fn bool_vec(&mut self) -> Result<Vec<bool>, ByteError> {
        let n = self.u32()? as usize;
        if self.remaining() < n {
            return Err(self.err("bool array length exceeds input"));
        }
        (0..n).map(|_| self.bool()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feq_distinguishes_negative_zero_and_unifies_nan() {
        assert!(feq(1.5, 1.5));
        assert!(!feq(0.0, -0.0));
        assert!(feq(f64::NAN, f64::from_bits(0x7ff8_dead_beef_0000)));
        assert!(!feq(f64::NAN, f64::INFINITY));
        assert!(slice_feq(&[1.0, f64::NAN], &[1.0, f64::NAN]));
        assert!(!slice_feq(&[1.0], &[1.0, 2.0]));
    }

    #[test]
    fn primitives_round_trip_bitwise() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 7);
        put_bool(&mut buf, true);
        let floats = [0.1, -0.0, 5e-324, f64::NAN, f64::NEG_INFINITY, f64::MAX];
        put_f64_slice(&mut buf, &floats);
        put_bool_slice(&mut buf, &[true, false, true]);

        let mut rd = ByteReader::new(&buf);
        assert_eq!(rd.u8().unwrap(), 0xAB);
        assert_eq!(rd.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(rd.u64().unwrap(), u64::MAX - 7);
        assert!(rd.bool().unwrap());
        assert!(slice_feq(&rd.f64_vec().unwrap(), &floats));
        assert_eq!(rd.bool_vec().unwrap(), vec![true, false, true]);
        assert!(rd.is_empty());
    }

    #[test]
    fn truncated_reads_return_typed_errors() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        let mut rd = ByteReader::new(&buf[..5]);
        let err = rd.u64().unwrap_err();
        assert_eq!(err.reason, "truncated input");
        assert_eq!(err.at, 0);
    }

    #[test]
    fn hostile_length_prefix_cannot_over_allocate() {
        // A 4 GiB float-count prefix with 4 bytes of payload behind it
        // must be rejected before any allocation happens.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        buf.extend_from_slice(&[0u8; 4]);
        let mut rd = ByteReader::new(&buf);
        let err = rd.f64_vec().unwrap_err();
        assert_eq!(err.reason, "float array length exceeds input");
        let mut rd = ByteReader::new(&buf);
        assert!(rd.bool_vec().is_err());
    }

    #[test]
    fn malformed_bool_is_corrupt_not_panicking() {
        let buf = [7u8];
        let mut rd = ByteReader::new(&buf);
        assert_eq!(rd.bool().unwrap_err().reason, "malformed bool");
    }

    #[test]
    fn f64_into_validates_shape() {
        let mut buf = Vec::new();
        put_f64_slice(&mut buf, &[1.0, 2.0]);
        let mut dst = [0.0; 3];
        let mut rd = ByteReader::new(&buf);
        assert_eq!(
            rd.f64_into(&mut dst).unwrap_err().reason,
            "float array length mismatch"
        );
        let mut dst = [0.0; 2];
        let mut rd = ByteReader::new(&buf);
        rd.f64_into(&mut dst).unwrap();
        assert_eq!(dst, [1.0, 2.0]);
    }

    #[test]
    fn json_helpers_compose_lossless_fields() {
        let mut o = JsonObject::new();
        lossless_field(&mut o, "x", f64::NAN);
        o.field_raw("a", &lossless_array(&[-0.0, 1.5]));
        o.field_raw("i", &usize_array(&[3, 1]));
        assert_eq!(o.finish(), r#"{"x":"NaN","a":[-0.0,1.5],"i":[3,1]}"#);
    }
}
