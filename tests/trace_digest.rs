//! Byte-level pins of trace synthesis.
//!
//! Each case hashes the `Trace::write_csv` bytes (hotspots, then
//! requests) of one generator configuration with FNV-1a-64 and compares
//! the digest with a value recorded from the generator before its request
//! loop was restructured. The cases cover the benchmark's trace shapes
//! (the paper's one-slot day and hourly day, a week of hourly slots, a
//! metro deployment whose catalog size makes the per-cluster Feistel
//! permutation cycle-walk) and the edges of every sampler: locality 0 and
//! 1, hotspot placement purely by density or purely uniform, a single
//! user, no requests, and one request past a full generation shard.
//!
//! The worker count comes from `CCDN_THREADS`; the digests hold for every
//! value.

use crowdsourced_cdn::geo::{Point, Rect};
use crowdsourced_cdn::trace::TraceConfig;
use std::io::Write;

/// FNV-1a-64 as an `io::Write` sink, so the CSV is hashed as it is
/// written instead of being buffered.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn digest(config: &TraceConfig) -> u64 {
    let trace = config.generate();
    let mut sink = Fnv1a(0xCBF2_9CE4_8422_2325);
    let mut requests = Vec::new();
    trace.write_csv(&mut sink, &mut requests).expect("hashing cannot fail");
    sink.write_all(&requests).expect("hashing cannot fail");
    sink.0
}

fn cases() -> Vec<(&'static str, TraceConfig)> {
    let metro_side = (1_000.0f64 / (310.0 / (17.0 * 11.0))).sqrt();
    let small = TraceConfig::small_test().with_request_count(3_000).with_days(2);
    vec![
        ("paper-day", TraceConfig::paper_eval().with_slot_count(1)),
        ("paper-hourly", TraceConfig::paper_eval()),
        (
            "online-week",
            TraceConfig::paper_eval()
                .with_days(7)
                .with_request_count(30_000)
                .with_service_capacity_fraction(0.005)
                .with_cache_capacity_fraction(0.01),
        ),
        (
            "metro-sharded",
            TraceConfig::paper_eval()
                .with_slot_count(1)
                .with_region(Rect::new(Point::origin(), Point::new(metro_side, metro_side)))
                .with_hotspot_count(1_000)
                .with_request_count(9_000)
                .with_video_count(10_000)
                .with_service_capacity_fraction(0.0005)
                .with_cache_capacity_fraction(0.002)
                .with_cluster_count(40)
                .with_user_count(10_000),
        ),
        ("locality-0", small.clone().with_locality(0.0)),
        ("locality-1", small.clone().with_locality(1.0)),
        ("density-placed", small.clone().with_hotspot_uniform_fraction(0.0)),
        ("uniform-placed", small.clone().with_hotspot_uniform_fraction(1.0)),
        ("one-user", small.clone().with_user_count(1)),
        ("no-requests", small.clone().with_request_count(0)),
        ("one-past-a-shard", small.with_request_count(4_097)),
    ]
}

/// Digests recorded from the generator before the flat user table,
/// the guided CDF lookups and the timeslot bucket sort replaced its
/// request loop.
const PINNED: [(&str, u64); 11] = [
    ("paper-day", 0x9BBB_78F8_A208_BB8A),
    ("paper-hourly", 0x95C3_476F_310E_03A4),
    ("online-week", 0xC8D7_0151_436C_7509),
    ("metro-sharded", 0x44EC_39ED_D1BA_C55D),
    ("locality-0", 0x4873_F125_5027_EA40),
    ("locality-1", 0x80BF_6F69_1D68_3C8C),
    ("density-placed", 0x700B_E2AF_9E56_3C31),
    ("uniform-placed", 0x15D6_8D99_958D_4EDE),
    ("one-user", 0xE408_D2DB_64EE_5CDB),
    ("no-requests", 0x0B9A_751A_F1BC_DB02),
    ("one-past-a-shard", 0x1820_77ED_F88D_A254),
];

#[test]
fn trace_csv_digests_match_pins() {
    let got: Vec<(&str, u64)> =
        cases().iter().map(|(name, config)| (*name, digest(config))).collect();
    let table: String =
        got.iter().map(|(name, d)| format!("    (\"{name}\", 0x{d:016X}),\n")).collect();
    assert_eq!(got, PINNED, "trace bytes drifted; digests now:\n{table}");
}
