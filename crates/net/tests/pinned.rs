//! The `ABQ/2` frames of one request and one response of every kind,
//! pinned byte for byte.
//!
//! Each frame is written as three hex strings: the 16-byte header
//! (magic, version 2, kind, request id, payload length), the payload
//! and the CRC-32 trailer. Version 2 changed one payload, the cells of
//! a cell request (8 bytes each: row `u32`, attribute `u16`, bin
//! `u16`; version 1 spent 16). Every other payload below is the one
//! `ABQ/1` sent: between the two versions only the version byte and
//! the trailer differ.

use ab::Cell;
use bitmap::{AttrRange, RectQuery};
use net::frame::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, FrameError,
    FrameReader, Request, Response, Schema, CELL_LEN,
};

const ID: u64 = 0x0102_0304_0506_0708;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn query() -> RectQuery {
    RectQuery::new(
        vec![AttrRange::new(0, 1, 3), AttrRange::new(2, 0, 0)],
        10,
        4000,
    )
}

/// Each request kind with its frame's `[header, payload, trailer]`.
fn requests() -> Vec<(Request, [&'static str; 3])> {
    vec![
        (
            Request::Rect {
                deadline_ms: 250,
                query: query(),
            },
            [
                "51ab020108070605040302012e000000",
                "fa000000\
                 0a00000000000000a00f000000000000\
                 0200\
                 000000000100000003000000\
                 020000000000000000000000",
                "583bfc8c",
            ],
        ),
        (
            Request::Batch {
                deadline_ms: 9,
                queries: vec![query(), RectQuery::new(vec![], 3, 3)],
            },
            [
                "51ab0203080706050403020142000000",
                "09000000\
                 0200\
                 0a00000000000000a00f000000000000\
                 0200\
                 000000000100000003000000\
                 020000000000000000000000\
                 03000000000000000300000000000000\
                 0000",
                "3b012ba2",
            ],
        ),
        (
            // The second cell's bin at the top of its 16 bits.
            Request::Cells {
                deadline_ms: 5,
                cells: vec![Cell::new(5, 1, 3), Cell::new(70_000, 2, 65_535)],
            },
            [
                "51ab0202080706050403020118000000",
                "05000000\
                 02000000\
                 05000000\
                 0100\
                 0300\
                 70110100\
                 0200\
                 ffff",
                "db55cd96",
            ],
        ),
        (
            Request::Ping,
            ["51ab0204080706050403020100000000", "", "e91e5f1e"],
        ),
        (
            Request::Schema,
            ["51ab0205080706050403020100000000", "", "6cc7c9c3"],
        ),
    ]
}

/// Each response kind with its frame's `[header, payload, trailer]`.
fn responses() -> Vec<(Response, [&'static str; 3])> {
    vec![
        (
            Response::Rect {
                degraded: vec![1],
                rows: vec![0, 9],
            },
            [
                "51ab02810807060504030201 1e000000",
                "0100 01000000\
                 0200000000000000\
                 0000000000000000 0900000000000000",
                "98c41c00",
            ],
        ),
        (
            Response::Batch {
                degraded: vec![],
                results: vec![vec![1, 2], vec![]],
            },
            [
                "51ab0283080706050403020124000000",
                "0000\
                 0200\
                 0200000000000000 0100000000000000 0200000000000000\
                 0000000000000000",
                "6b399eaa",
            ],
        ),
        (
            Response::Cells {
                degraded: vec![],
                hits: vec![true, false, true],
            },
            [
                "51ab0282080706050403020109000000",
                "0000 03000000 010001",
                "29ab4808",
            ],
        ),
        (
            Response::Pong,
            ["51ab0284080706050403020100000000", "", "fe3b35be"],
        ),
        (
            Response::Schema(Schema {
                num_rows: 1 << 20,
                cardinalities: vec![10, 4],
            }),
            [
                "51ab0285080706050403020112000000",
                "0000100000000000 0200 0a000000 04000000",
                "56cf6f04",
            ],
        ),
        (
            Response::Error {
                code: ErrorCode::Overloaded,
                retryable: true,
                message: "full".into(),
            },
            [
                "51ab02ee080706050403020109000000",
                "0100 01 0400 66756c6c",
                "4cb9f003",
            ],
        ),
    ]
}

/// The pinned frame, with the spaces that group its fields dropped.
fn pinned(parts: [&str; 3]) -> String {
    parts.concat().replace(' ', "")
}

/// One whole frame through a [`FrameReader`].
fn read(bytes: &[u8]) -> Result<net::Frame, FrameError> {
    let mut reader = FrameReader::new();
    reader.push(bytes);
    reader.next_frame().map(|f| f.expect("a whole frame"))
}

#[test]
fn every_request_kind_encodes_to_its_pinned_bytes() {
    for (req, parts) in requests() {
        let bytes = encode_request(ID, &req);
        assert_eq!(hex(&bytes), pinned(parts), "{}", req.label());
        let frame = read(&unhex(&pinned(parts))).unwrap();
        assert_eq!(frame.request_id, ID);
        assert_eq!(decode_request(&frame).unwrap(), req);
    }
}

#[test]
fn every_response_kind_encodes_to_its_pinned_bytes() {
    for (resp, parts) in responses() {
        let bytes = encode_response(ID, &resp);
        assert_eq!(hex(&bytes), pinned(parts), "{resp:?}");
        let frame = read(&unhex(&pinned(parts))).unwrap();
        assert_eq!(decode_response(&frame).unwrap(), resp);
    }
}

/// A cell request's payload is the deadline, the count and
/// [`CELL_LEN`] bytes a cell.
#[test]
fn a_cell_is_eight_bytes_on_the_wire() {
    assert_eq!(CELL_LEN, 8);
    for n in [0, 1, 2048] {
        let req = Request::Cells {
            deadline_ms: 0,
            cells: vec![Cell::new(7, 1, 2); n],
        };
        let bytes = encode_request(1, &req);
        assert_eq!(bytes.len(), 16 + 8 + CELL_LEN * n + 4);
    }
}

/// An `ABQ/1` ping — a whole frame whose CRC holds — is refused for
/// its version: a fatal error naming version 1, before its kind or
/// payload is looked at.
#[test]
fn a_version_one_frame_is_refused() {
    let v1_ping = unhex("51ab0104080706050403020100000000323b3e62");
    let e = read(&v1_ping).unwrap_err();
    assert_eq!(e, FrameError::BadVersion(1));
    assert!(e.is_fatal());
    assert_eq!(e.code(), ErrorCode::BadVersion);
}
