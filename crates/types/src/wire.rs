//! Minimal binary wire/log encoding.
//!
//! Log records and inter-site datagrams share one hand-rolled binary
//! format: little-endian fixed-width integers, length-prefixed byte
//! strings, and length-prefixed sequences. The format is deliberately
//! simple — a stable-storage log format wants explicit layout and
//! explicit versioning, not a general serialization framework.
//!
//! [`Writer`] appends to a growable buffer; [`Reader`] consumes a byte
//! slice and fails with [`CamelotError::Codec`] on truncation, so a
//! torn log tail is detected rather than misparsed.
//!
//! Every field of every message, record and control call is a [`Wire`]
//! type, so a codec is the list of its fields in wire order:
//! [`wire_struct!`](crate::wire_struct) and
//! [`wire_enum!`](crate::wire_enum) take that list once and emit the
//! type together with its `encode` and `decode`. Written by hand here
//! are only the layouts that are not a field list: the integers and
//! the ids that wrap one, the containers and [`Tid`] (whose path has a
//! bound of its own).

use crate::error::{CamelotError, Result};
use crate::ids::{Lsn, ObjectId, ServerId, SiteId, Tid};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
///
/// Shared by the WAL frame codec and the socket frame codec — both
/// guard length-prefixed payloads with the same checksum.
pub fn crc32(data: &[u8]) -> u32 {
    // Slicing-by-8: eight table lookups fold eight input bytes per
    // step, so the loop is not bound by one byte's lookup latency.
    const T: [[u32; 256]; 8] = build_crc_tables();
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][c[4] as usize]
            ^ T[2][c[5] as usize]
            ^ T[1][c[6] as usize]
            ^ T[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `T[0]` is the classic byte-at-a-time table; `T[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed (u32) byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(u32::try_from(v.len()).expect("byte string too long"));
        self.buf.extend_from_slice(v);
    }

    pub fn put<T: Wire>(&mut self, v: &T) {
        v.encode(self);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Consuming decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn short() -> CamelotError {
    CamelotError::Codec("unexpected end of input".into())
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(short());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.get_u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    pub fn get<T: Wire>(&mut self) -> Result<T> {
        T::decode(self)
    }
}

/// Types with a canonical wire encoding.
pub trait Wire: Sized {
    fn encode(&self, w: &mut Writer);
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Encodes into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_vec()
    }

    /// Decodes from a byte slice, requiring that all input is consumed.
    fn from_bytes(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        if !r.is_done() {
            return Err(CamelotError::Codec(format!(
                "{} trailing bytes",
                r.remaining()
            )));
        }
        Ok(v)
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.get_u32()
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.get_u64()
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CamelotError::Codec(format!("invalid bool byte {v}"))),
        }
    }
}

/// Length-prefixed UTF-8.
impl Wire for String {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        String::from_utf8(r.get_bytes()?)
            .map_err(|e| CamelotError::Codec(format!("invalid utf8: {e}")))
    }
}

impl Wire for Vec<u8> {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.get_bytes()
    }
}

/// Length-prefixed sequence. Sits beside `Vec<u8>` because `u8` is
/// not `Wire`: a byte string is copied whole, not item by item.
impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(u32::try_from(self.len()).expect("sequence too long"));
        for it in self {
            it.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.get_u32()? as usize;
        // Cap pre-allocation: a corrupted length must not OOM us.
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// A box is its content: boxing a large field changes nothing on the
/// wire.
impl<T: Wire> Wire for Box<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        T::decode(r).map(Box::new)
    }
}

impl Wire for SiteId {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(SiteId(r.get_u32()?))
    }
}

impl Wire for ServerId {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(ServerId(r.get_u32()?))
    }
}

impl Wire for ObjectId {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(ObjectId(r.get_u64()?))
    }
}

impl Wire for Lsn {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Lsn(r.get_u64()?))
    }
}

impl Wire for Tid {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.family);
        w.put_u32(u32::try_from(self.path.len()).expect("nesting too deep"));
        for seg in &self.path {
            w.put_u32(*seg);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let family = r.get()?;
        let n = r.get_u32()? as usize;
        let mut path = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            path.push(r.get_u32()?);
        }
        Ok(Tid { family, path })
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            v => Err(CamelotError::Codec(format!("invalid option tag {v}"))),
        }
    }
}

/// A struct whose wire layout is its fields in declaration order.
/// The one table — written as the struct itself — becomes the type and
/// its codec, so the two cannot disagree.
#[macro_export]
macro_rules! wire_struct {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty,)*
    }) => {
        $(#[$meta])*
        $vis struct $name { $($(#[$fmeta])* $fvis $field: $ty,)* }

        impl $crate::wire::Wire for $name {
            fn encode(&self, w: &mut $crate::wire::Writer) {
                $(w.put(&self.$field);)*
            }
            fn decode(r: &mut $crate::wire::Reader<'_>) -> $crate::Result<Self> {
                Ok($name { $($field: r.get()?,)* })
            }
        }
    };
}

/// A sum type on the wire: one tag byte, then the variant's fields in
/// declaration order. Each row of the one table reads
/// `tag => Variant { field: Type, … },` and the last row,
/// `_ => "label",` names the error an unassigned tag decodes to
/// (`"label {tag}"`). The table becomes the enum, its codec and
/// `kind_name`; a tag is written nowhere else.
#[macro_export]
macro_rules! wire_enum {
    ($(#[$meta:meta])* $vis:vis enum $name:ident {
        $($(#[$vmeta:meta])* $tag:literal => $variant:ident
            $({ $($(#[$fmeta:meta])* $field:ident: $ty:ty),* $(,)? })?,)*
        _ => $unknown:literal $(,)?
    }) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant $({ $($(#[$fmeta])* $field: $ty),* })?,)*
        }

        impl $name {
            /// The variant's name (trace events, diagnostics).
            pub fn kind_name(&self) -> &'static str {
                match self {
                    $(Self::$variant { .. } => stringify!($variant),)*
                }
            }
        }

        impl $crate::wire::Wire for $name {
            fn encode(&self, w: &mut $crate::wire::Writer) {
                match self {
                    $(Self::$variant $({ $($field),* })? => {
                        w.put_u8($tag);
                        $($(w.put($field);)*)?
                    })*
                }
            }
            fn decode(r: &mut $crate::wire::Reader<'_>) -> $crate::Result<Self> {
                match r.get_u8()? {
                    $($tag => Ok(Self::$variant $({ $($field: r.get()?),* })?),)*
                    v => Err($crate::CamelotError::Codec(format!(concat!($unknown, " {}"), v))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FamilyId;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let b = v.to_bytes();
        assert_eq!(T::from_bytes(&b).unwrap(), v);
    }

    #[test]
    fn crc32_matches_the_bitwise_definition_at_every_length() {
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..67u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u32);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("camelot"));
        roundtrip(String::new());
        roundtrip(vec![0u8, 1, 255]);
    }

    #[test]
    fn id_roundtrips() {
        roundtrip(SiteId(3));
        roundtrip(ServerId(9));
        roundtrip(ObjectId(u64::MAX));
        roundtrip(Lsn(123456789));
        roundtrip(FamilyId {
            origin: SiteId(2),
            seq: 77,
        });
        let t = Tid::top_level(FamilyId {
            origin: SiteId(1),
            seq: 5,
        })
        .child(1)
        .child(9);
        roundtrip(t);
        roundtrip(Tid::top_level(FamilyId {
            origin: SiteId(0),
            seq: 0,
        }));
    }

    #[test]
    fn option_roundtrips() {
        roundtrip(Option::<u32>::None);
        roundtrip(Some(42u32));
    }

    #[test]
    fn sequences() {
        let sites = vec![SiteId(1), SiteId(2), SiteId(3)];
        let mut w = Writer::new();
        w.put(&sites);
        let mut r = Reader::new(w.as_slice());
        assert_eq!(r.get::<Vec<SiteId>>().unwrap(), sites);
        assert!(r.is_done());
        roundtrip(vec![(ObjectId(1), vec![9u8, 9]), (ObjectId(2), vec![])]);
        roundtrip(Box::new(Lsn(7)));
        // A box, a pair and a byte string add nothing of their own.
        assert_eq!(Box::new(Lsn(7)).to_bytes(), Lsn(7).to_bytes());
        assert_eq!((SiteId(1), SiteId(2)).to_bytes(), [1, 0, 0, 0, 2, 0, 0, 0]);
        assert_eq!(vec![5u8, 6].to_bytes(), [2, 0, 0, 0, 5, 6]);
    }

    crate::wire_struct! {
        #[derive(Debug, PartialEq)]
        struct Leg {
            to: SiteId,
            hops: Vec<u32>,
        }
    }

    crate::wire_enum! {
        #[derive(Debug, PartialEq)]
        enum Trip {
            3 => Stay,
            /// Tags need not be dense or start at zero.
            7 => Go { leg: Leg, back: bool },
            _ => "no such trip",
        }
    }

    #[test]
    fn a_table_is_its_type_its_codec_and_its_names() {
        let go = Trip::Go {
            leg: Leg {
                to: SiteId(2),
                hops: vec![9],
            },
            back: true,
        };
        // Tag, then the fields in the order the table lists them.
        assert_eq!(go.to_bytes(), [7, 2, 0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0, 1]);
        roundtrip(go);
        assert_eq!(Trip::Stay.to_bytes(), [3]);
        roundtrip(Trip::Stay);
        assert_eq!(Trip::Stay.kind_name(), "Stay");
        match Trip::from_bytes(&[4]) {
            Err(CamelotError::Codec(detail)) => assert_eq!(detail, "no such trip 4"),
            other => panic!("tag 4 decoded to {other:?}"),
        }
        assert!(Trip::from_bytes(&[7, 2, 0, 0, 0]).is_err());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let t = Tid::top_level(FamilyId {
            origin: SiteId(1),
            seq: 5,
        })
        .child(2);
        let b = t.to_bytes();
        for cut in 0..b.len() {
            let r = Tid::from_bytes(&b[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = 7u32.to_bytes();
        b.push(0);
        assert!(u32::from_bytes(&b).is_err());
    }

    #[test]
    fn invalid_bool_and_option_tags() {
        assert!(bool::from_bytes(&[2]).is_err());
        assert!(Option::<u32>::from_bytes(&[9]).is_err());
    }

    #[test]
    fn corrupt_length_does_not_overallocate() {
        // A huge length prefix with no payload must fail cleanly.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let mut r = Reader::new(w.as_slice());
        assert!(r.get::<Vec<u64>>().is_err());
    }

    #[test]
    fn writer_utilities() {
        let mut w = Writer::with_capacity(16);
        assert!(w.is_empty());
        w.put_u32(0xBEEF);
        assert_eq!(w.len(), 4);
        let mut r = Reader::new(w.as_slice());
        assert_eq!(r.get_u32().unwrap(), 0xBEEF);
    }
}
