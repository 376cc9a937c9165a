//! Byte-identity round-trip tests for the trace CSV codec.
//!
//! The in-module tests check semantic equality (`parsed == trace`); these
//! go one step further and assert write → read → write reproduces the
//! exact CSV *bytes*. That pins the float formatting contract — `{}` on
//! `f64` emits the shortest representation that parses back to the same
//! bit pattern — so fixtures and archived traces stay stable across
//! re-encodes.

use ccdn_geo::{Point, Rect};
use ccdn_trace::{Hotspot, HotspotId, Request, Trace, TraceConfig, UserId, VideoId};

fn encode(trace: &Trace) -> (Vec<u8>, Vec<u8>) {
    let mut hotspots = Vec::new();
    let mut requests = Vec::new();
    trace.write_csv(&mut hotspots, &mut requests).expect("write to Vec cannot fail");
    (hotspots, requests)
}

fn decode(trace: &Trace, hotspots: &[u8], requests: &[u8]) -> Trace {
    Trace::read_csv(trace.region, trace.video_count, trace.slot_count, hotspots, requests)
        .expect("re-reading our own output")
}

/// write → read → write must be a byte-level fixed point.
fn assert_byte_fixed_point(trace: &Trace) {
    let (h1, r1) = encode(trace);
    let parsed = decode(trace, &h1, &r1);
    let (h2, r2) = encode(&parsed);
    assert_eq!(h1, h2, "hotspot CSV bytes changed across a round-trip");
    assert_eq!(r1, r2, "request CSV bytes changed across a round-trip");
}

#[test]
fn generated_trace_roundtrips_byte_identically() {
    for seed in [1u64, 42, 9_001] {
        let trace = TraceConfig::small_test().with_seed(seed).generate();
        assert_byte_fixed_point(&trace);
    }
}

#[test]
fn parallel_generation_roundtrips_byte_identically() {
    // Sharded synthesis must feed the codec the same bytes regardless of
    // worker count.
    let seq = TraceConfig::small_test().with_seed(7).with_threads(1).generate();
    let par = TraceConfig::small_test().with_seed(7).with_threads(8).generate();
    assert_eq!(encode(&seq), encode(&par), "CSV bytes must be thread-count invariant");
    assert_byte_fixed_point(&par);
}

#[test]
fn empty_trace_writes_headers_and_is_rejected_on_read() {
    let trace = Trace {
        region: Rect::paper_eval_region(),
        hotspots: Vec::new(),
        requests: Vec::new(),
        video_count: 10,
        slot_count: 24,
        slots_per_day: 24,
    };
    let (h, r) = encode(&trace);
    assert_eq!(h, b"id,x_km,y_km,service_capacity,cache_capacity\n");
    assert_eq!(r, b"user,video,timeslot,x_km,y_km\n");
    // A trace without hotspots has nothing to aggregate requests to.
    let err = Trace::read_csv(trace.region, trace.video_count, trace.slot_count, &h[..], &r[..])
        .unwrap_err();
    assert!(matches!(err, ccdn_trace::TraceIoError::Inconsistent(_)), "{err}");
}

#[test]
fn single_session_trace_roundtrips() {
    // One user, one request, one hotspot — the smallest meaningful trace,
    // with awkward float coordinates to exercise shortest-float printing.
    let trace = Trace {
        region: Rect::paper_eval_region(),
        hotspots: vec![Hotspot {
            id: HotspotId(0),
            location: Point::new(0.1 + 0.2, 1.0 / 3.0),
            service_capacity: 7,
            cache_capacity: 3,
        }],
        requests: vec![Request {
            user: UserId(0),
            video: VideoId(4),
            timeslot: 5,
            location: Point::new(f64::MIN_POSITIVE, 2.5e-10),
        }],
        video_count: 10,
        slot_count: 24,
        slots_per_day: 24,
    };
    let parsed = {
        let (h, r) = encode(&trace);
        decode(&trace, &h, &r)
    };
    assert_eq!(parsed, trace, "exotic floats must parse back to the same bits");
    assert_byte_fixed_point(&trace);
}
