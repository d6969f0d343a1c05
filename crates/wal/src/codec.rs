//! Log framing: length + CRC32 envelope around encoded records.
//!
//! Each frame on stable storage is
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload bytes]
//! ```
//!
//! (little-endian). The recovery scan walks frames from the front of
//! the log and stops cleanly at the first truncated or corrupt frame —
//! a torn tail after a crash must look like "end of log", never like a
//! decode of garbage.

use camelot_types::wire::crc32;
use camelot_types::{CamelotError, Result};

/// Size of the frame header in bytes.
pub const FRAME_HEADER: usize = 8;

/// Wraps `payload` in a length+CRC frame, appending to `out`.
pub fn frame_onto(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("payload too large to frame");
    out.reserve(FRAME_HEADER + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Wraps `payload` in a fresh framed buffer.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frame_onto(&mut out, payload);
    out
}

/// Result of attempting to read one frame.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete, checksum-valid frame; `consumed` bytes were used.
    Frame { payload: Vec<u8>, consumed: usize },
    /// Input ends mid-frame: a torn tail. Recovery treats this as end
    /// of log.
    Torn,
    /// A complete frame whose checksum does not match: corruption.
    Corrupt,
}

/// One parse step over borrowed bytes; [`read_frame`] and [`frames`]
/// are its two presentations.
enum Parsed<'a> {
    Frame(&'a [u8]),
    Torn,
    Corrupt,
}

fn parse(buf: &[u8]) -> Parsed<'_> {
    if buf.len() < FRAME_HEADER {
        // Empty input and a short tail both read as Torn; callers that
        // care distinguish empty via buf.is_empty().
        return Parsed::Torn;
    }
    let word = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("four bytes"));
    let len = word(0) as usize;
    let crc = word(4);
    let Some(payload) = buf.get(FRAME_HEADER..FRAME_HEADER + len) else {
        return Parsed::Torn;
    };
    if crc32(payload) != crc {
        return Parsed::Corrupt;
    }
    Parsed::Frame(payload)
}

/// Attempts to read one frame from the front of `buf`.
pub fn read_frame(buf: &[u8]) -> FrameRead {
    match parse(buf) {
        Parsed::Frame(payload) => FrameRead::Frame {
            payload: payload.to_vec(),
            consumed: FRAME_HEADER + payload.len(),
        },
        Parsed::Torn => FrameRead::Torn,
        Parsed::Corrupt => FrameRead::Corrupt,
    }
}

/// Walks the frames of a byte region in place: `(offset, payload)`
/// with the payload borrowed from `buf`, stopping at a torn tail. A
/// checksum-valid prefix followed by corruption mid-log (not at the
/// tail) is reported as an error, because it means stable storage lost
/// data the protocol relied on; iteration ends after it.
pub fn frames(buf: &[u8]) -> impl Iterator<Item = Result<(u64, &[u8])>> {
    let mut off = 0usize;
    std::iter::from_fn(move || match parse(buf.get(off..)?) {
        Parsed::Frame(payload) => {
            let at = off as u64;
            off += FRAME_HEADER + payload.len();
            Some(Ok((at, payload)))
        }
        Parsed::Torn => None,
        Parsed::Corrupt => {
            let at = off as u64;
            off = buf.len() + 1;
            Some(Err(CamelotError::Corruption { offset: at }))
        }
    })
}

/// Re-expresses a [`frames`] error, whose offset counts from the start
/// of the scanned region, as an LSN in a log whose region starts at
/// `base`.
pub fn at_lsn(e: CamelotError, base: u64) -> CamelotError {
    match e {
        CamelotError::Corruption { offset } => CamelotError::Corruption {
            offset: base + offset,
        },
        e => e,
    }
}

/// [`frames`] with owned payloads.
pub fn scan(buf: &[u8]) -> Result<Vec<(u64, Vec<u8>)>> {
    frames(buf)
        .map(|f| f.map(|(off, payload)| (off, payload.to_vec())))
        .collect()
}

/// Length of the valid frame prefix of `buf` (everything before a torn
/// tail); an error on mid-log corruption.
pub fn valid_len(buf: &[u8]) -> Result<u64> {
    let mut end = 0;
    for f in frames(buf) {
        let (off, payload) = f?;
        end = off + (FRAME_HEADER + payload.len()) as u64;
    }
    Ok(end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip() {
        let f = frame(b"hello log");
        match read_frame(&f) {
            FrameRead::Frame { payload, consumed } => {
                assert_eq!(payload, b"hello log");
                assert_eq!(consumed, f.len());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_payload_frames() {
        let f = frame(b"");
        assert_eq!(
            read_frame(&f),
            FrameRead::Frame {
                payload: vec![],
                consumed: FRAME_HEADER
            }
        );
    }

    #[test]
    fn torn_tail_detected() {
        let f = frame(b"abcdef");
        for cut in 0..f.len() {
            assert_eq!(read_frame(&f[..cut]), FrameRead::Torn, "cut at {cut}");
        }
    }

    /// The three verdicts at the header boundary, on hand-built bytes:
    /// the header is read only once all eight bytes are there.
    #[test]
    fn header_boundary_cases() {
        let header = |len: u32, crc: u32| [len.to_le_bytes(), crc.to_le_bytes()].concat();
        let empty_ok = header(0, crc32(b""));
        let cases: [(&str, Vec<u8>, FrameRead); 5] = [
            (
                "seven bytes of a valid header",
                empty_ok[..7].to_vec(),
                FrameRead::Torn,
            ),
            (
                "exactly a header, empty payload",
                empty_ok.clone(),
                FrameRead::Frame {
                    payload: vec![],
                    consumed: FRAME_HEADER,
                },
            ),
            (
                "exactly a header, payload missing",
                header(1, 0),
                FrameRead::Torn,
            ),
            (
                "exactly a header, wrong checksum",
                header(0, 1),
                FrameRead::Corrupt,
            ),
            (
                "length field is little-endian",
                [header(1, crc32(b"x")), b"x".to_vec()].concat(),
                FrameRead::Frame {
                    payload: b"x".to_vec(),
                    consumed: FRAME_HEADER + 1,
                },
            ),
        ];
        for (what, bytes, expected) in cases {
            assert_eq!(read_frame(&bytes), expected, "{what}");
        }
    }

    #[test]
    fn corruption_detected() {
        let mut f = frame(b"abcdef");
        let last = f.len() - 1;
        f[last] ^= 0x01;
        assert_eq!(read_frame(&f), FrameRead::Corrupt);
        // Header corruption that changes the CRC field also detected.
        let mut g = frame(b"abcdef");
        g[4] ^= 0xFF;
        assert_eq!(read_frame(&g), FrameRead::Corrupt);
    }

    #[test]
    fn scan_multiple_frames_with_offsets() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&frame(b"one"));
        let second_off = buf.len() as u64;
        buf.extend_from_slice(&frame(b"two"));
        let frames = scan(&buf).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], (0, b"one".to_vec()));
        assert_eq!(frames[1], (second_off, b"two".to_vec()));
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&frame(b"good"));
        let torn = frame(b"lost in crash");
        buf.extend_from_slice(&torn[..torn.len() - 3]);
        let frames = scan(&buf).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].1, b"good");
    }

    #[test]
    fn scan_reports_midlog_corruption() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&frame(b"good"));
        let mut bad = frame(b"evil");
        bad[FRAME_HEADER] ^= 0xFF;
        buf.extend_from_slice(&bad);
        buf.extend_from_slice(&frame(b"after"));
        let err = scan(&buf).unwrap_err();
        let expected_off = frame(b"good").len() as u64;
        assert_eq!(
            err,
            CamelotError::Corruption {
                offset: expected_off
            }
        );
    }

    #[test]
    fn scan_empty_is_empty() {
        assert_eq!(scan(&[]).unwrap(), vec![]);
    }
}
