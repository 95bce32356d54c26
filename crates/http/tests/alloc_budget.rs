//! Allocation budgets for HTTP framing. The numbers are what the code does
//! today, not targets: a change that adds an allocation to one of these
//! paths fails here, in tier-1.

use mirage_http::{Request, RequestParser, Response, ResponseParser};
use mirage_net::PktBuf;
use mirage_testkit::alloc::{count, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn encoding_a_message_is_one_allocation() {
    let mut req = Request::post("/tweet?k=t00001234", vec![b'x'; 140]);
    req.headers.push(("x-op".into(), format!("{:016x}", 1234)));
    req.keep_alive = false;
    assert_eq!(count(|| req.encode()).1, 1);
    let get = Request::get("/static/16k");
    assert_eq!(count(|| get.encode()).1, 1);

    let resp = Response::ok("text/plain", vec![b'x'; 140]);
    assert_eq!(count(|| resp.encode()).1, 1);
    assert_eq!(count(|| Response::status(404).encode()).1, 1);
}

#[test]
fn a_header_lookup_allocates_nothing() {
    let mut req = Request::get("/");
    req.headers.push(("X-Op".into(), "1".into()));
    assert_eq!(count(|| req.header("x-op")), (Some("1"), 0));
    let resp = Response::ok("text/plain", Vec::new());
    assert_eq!(
        count(|| resp.header("Content-Type")),
        (Some("text/plain"), 0)
    );
}

#[test]
fn taking_a_request_allocates_its_fields_and_nothing_else() {
    let mut get = Request::get("/tweet?k=t00001234");
    get.headers.push(("x-op".into(), format!("{:016x}", 1234)));
    let wire = PktBuf::from_vec(get.encode());
    let (taken, allocations) = count(|| {
        let mut parser = RequestParser::new();
        parser.feed(wire.clone());
        parser.take()
    });
    assert_eq!(
        taken.unwrap().unwrap().header("x-op"),
        Some("00000000000004d2")
    );
    // The queue's chunk slots, the path, the header vector, and the
    // header's name and value.
    assert_eq!(allocations, 5);
}

/// Feeds `pieces` to a fresh parser, calling `take()` after each feed as
/// the client does, and returns the response with the allocations made.
fn take_fed(pieces: &[PktBuf]) -> (Response, u64) {
    let (taken, allocations) = count(|| {
        let mut parser = ResponseParser::new();
        let mut taken = None;
        for piece in pieces {
            parser.feed(piece.clone());
            if let Some(resp) = parser.take().expect("well-formed") {
                taken = Some(resp);
            }
        }
        taken
    });
    (taken.expect("complete"), allocations)
}

#[test]
fn a_response_in_twelve_chunks_is_parsed_once() {
    let blob: Vec<u8> = (0..16 * 1024).map(|i| i as u8).collect();
    let wire = Response::ok("application/octet-stream", blob.clone()).encode();
    let whole = [PktBuf::from_vec(wire.clone())];
    let chunked: Vec<PktBuf> = wire
        .chunks(wire.len().div_ceil(12))
        .map(|c| PktBuf::from_vec(c.to_vec()))
        .collect();
    assert_eq!(chunked.len(), 12);

    let (one, once) = take_fed(&whole);
    let (twelve, chunked_cost) = take_fed(&chunked);
    assert_eq!(one.body, blob);
    assert_eq!(twelve, one);
    // The queue's chunk slots, the header vector, two strings for each of
    // the two headers, and the body.
    assert_eq!(once, 7);
    // The head is parsed once whatever the chunking; only the queue of
    // views grows, doubling from 4 slots to 16.
    assert_eq!(chunked_cost, once + 2);
}
