//! CSV import/export for traces.
//!
//! The synthetic generator stands in for the paper's proprietary
//! datasets, but a deployment has real logs. This module round-trips a
//! [`Trace`] through two plain CSV files, matching the paper's trace
//! schema (§II: user id, timestamp, video title, GPS location — plus the
//! AP deployment):
//!
//! - hotspots: `id,x_km,y_km,service_capacity,cache_capacity`
//! - requests: `user,video,timeslot,x_km,y_km`
//!
//! The codec is hand-rolled (no quoting — all fields are numeric) to keep
//! the workspace dependency-free.
//!
//! # Examples
//!
//! ```
//! use ccdn_trace::TraceConfig;
//!
//! let trace = TraceConfig::small_test().generate();
//! let mut hotspots = Vec::new();
//! let mut requests = Vec::new();
//! trace.write_csv(&mut hotspots, &mut requests)?;
//!
//! let parsed = ccdn_trace::Trace::read_csv(
//!     trace.region,
//!     trace.video_count,
//!     trace.slot_count,
//!     hotspots.as_slice(),
//!     requests.as_slice(),
//! )?;
//! assert_eq!(parsed, trace);
//! # Ok::<(), ccdn_trace::TraceIoError>(())
//! ```

use crate::types::bucket_sort;
use crate::{Hotspot, HotspotId, Request, Trace, UserId, VideoId};
use ccdn_geo::{Point, Rect, MAX_COORDINATE_KM};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Error produced while reading or writing trace CSV.
#[derive(Debug)]
pub enum TraceIoError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A malformed CSV line.
    Parse {
        /// Which file the line came from.
        file: &'static str,
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// Data is structurally inconsistent (e.g. hotspot ids not dense).
    Inconsistent(String),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::Parse { file, line, message } => {
                write!(f, "{file} line {line}: {message}")
            }
            TraceIoError::Inconsistent(msg) => write!(f, "inconsistent trace data: {msg}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    name: &str,
    file: &'static str,
    line: usize,
) -> Result<T, TraceIoError> {
    let raw = field.ok_or_else(|| TraceIoError::Parse {
        file,
        line,
        message: format!("missing field `{name}`"),
    })?;
    raw.trim().parse().map_err(|_| TraceIoError::Parse {
        file,
        line,
        message: format!("cannot parse `{name}` from {raw:?}"),
    })
}

/// Rejects a point outside `region`: the simulator measures the CDN
/// distance and builds its grid from the region, so a point beyond it is
/// mis-scored rather than merely far away.
fn check_in_region(
    point: Point,
    region: Rect,
    what: &str,
    file: &'static str,
    line: usize,
) -> Result<Point, TraceIoError> {
    if region.contains(point) {
        return Ok(point);
    }
    Err(TraceIoError::Parse {
        file,
        line,
        message: format!("{what} at ({}, {}) lies outside the region {region}", point.x, point.y),
    })
}

/// Parses a coordinate field, which must be a finite number of km no
/// larger in magnitude than [`MAX_COORDINATE_KM`], so that every distance
/// between two points of the trace is finite.
fn parse_coordinate(
    field: Option<&str>,
    name: &str,
    file: &'static str,
    line: usize,
) -> Result<f64, TraceIoError> {
    let value: f64 = parse_field(field, name, file, line)?;
    let message = if !value.is_finite() {
        format!("`{name}` is {value}, not finite")
    } else if value.abs() > MAX_COORDINATE_KM {
        format!("`{name}` is {value:e}, beyond ±{MAX_COORDINATE_KM:e} km, where distances overflow")
    } else {
        return Ok(value);
    };
    Err(TraceIoError::Parse { file, line, message })
}

impl Trace {
    /// Writes the trace as two CSV streams (with headers).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writers.
    pub fn write_csv<H, R>(&self, mut hotspots: H, mut requests: R) -> Result<(), TraceIoError>
    where
        H: Write,
        R: Write,
    {
        writeln!(hotspots, "id,x_km,y_km,service_capacity,cache_capacity")?;
        for h in &self.hotspots {
            writeln!(
                hotspots,
                "{},{},{},{},{}",
                h.id.0, h.location.x, h.location.y, h.service_capacity, h.cache_capacity
            )?;
        }
        writeln!(requests, "user,video,timeslot,x_km,y_km")?;
        for r in &self.requests {
            writeln!(
                requests,
                "{},{},{},{},{}",
                r.user.0, r.video.0, r.timeslot, r.location.x, r.location.y
            )?;
        }
        Ok(())
    }

    /// Reads a trace from two CSV streams previously produced by
    /// [`Trace::write_csv`] (or from converted real logs in the same
    /// schema). `region`, `video_count`, and `slot_count` are metadata the
    /// CSV does not carry.
    ///
    /// Requests are re-sorted by timeslot (stably, by the same bucket sort
    /// that orders generated traces, so memory is the requests plus one
    /// counter per slot); hotspot ids must be the dense range `0..n` (any
    /// order in the file), with at least one hotspot. Every hotspot and
    /// request must lie inside `region`, its border included. Fields past
    /// the fifth are ignored.
    ///
    /// # Errors
    ///
    /// I/O errors, per-line parse errors with file/line context (among
    /// them a NaN or infinite coordinate, one beyond
    /// [`MAX_COORDINATE_KM`] in magnitude, a point outside `region`,
    /// out-of-range videos or timeslots, and a hotspot id that repeats or
    /// is not below the hotspot row count), and
    /// [`TraceIoError::Inconsistent`] for a hotspot file with no rows.
    pub fn read_csv<H, R>(
        region: Rect,
        video_count: usize,
        slot_count: u32,
        hotspots: H,
        requests: R,
    ) -> Result<Trace, TraceIoError>
    where
        H: Read,
        R: Read,
    {
        const HFILE: &str = "hotspots.csv";
        const RFILE: &str = "requests.csv";

        let mut parsed_hotspots: Vec<Hotspot> = Vec::new();
        let mut hotspot_lines: Vec<usize> = Vec::new();
        for (idx, line) in BufReader::new(hotspots).lines().enumerate() {
            let line = line?;
            if idx == 0 || line.trim().is_empty() {
                continue; // header / blank
            }
            let lineno = idx + 1;
            let mut fields = line.split(',');
            let id: usize = parse_field(fields.next(), "id", HFILE, lineno)?;
            let x = parse_coordinate(fields.next(), "x_km", HFILE, lineno)?;
            let y = parse_coordinate(fields.next(), "y_km", HFILE, lineno)?;
            let location = check_in_region(Point::new(x, y), region, "hotspot", HFILE, lineno)?;
            let service: u32 = parse_field(fields.next(), "service_capacity", HFILE, lineno)?;
            let cache: u32 = parse_field(fields.next(), "cache_capacity", HFILE, lineno)?;
            parsed_hotspots.push(Hotspot {
                id: HotspotId(id),
                location,
                service_capacity: service,
                cache_capacity: cache,
            });
            hotspot_lines.push(lineno);
        }
        if parsed_hotspots.is_empty() {
            return Err(TraceIoError::Inconsistent(format!(
                "{HFILE} has no hotspot rows; every request needs a hotspot to aggregate to"
            )));
        }
        // `n` rows hold the dense ids `0..n` exactly when every id is below
        // `n` and none repeats, so a non-dense file always has a first row,
        // in file order, that breaks one of the two: name its line.
        let n = parsed_hotspots.len();
        let mut first_line: Vec<Option<usize>> = vec![None; n];
        for (h, &line) in parsed_hotspots.iter().zip(&hotspot_lines) {
            let id = h.id.0;
            let message = match first_line.get_mut(id) {
                None => format!("hotspot id {id} is not below the {n} hotspot rows (ids are 0..n)"),
                Some(Some(first)) => format!("duplicate hotspot id {id}, first on line {first}"),
                Some(seen) => {
                    *seen = Some(line);
                    continue;
                }
            };
            return Err(TraceIoError::Parse { file: HFILE, line, message });
        }
        let parsed_hotspots = bucket_sort(vec![parsed_hotspots], n, |h| h.id.0);

        let mut parsed_requests: Vec<Request> = Vec::new();
        for (idx, line) in BufReader::new(requests).lines().enumerate() {
            let line = line?;
            if idx == 0 || line.trim().is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let mut fields = line.split(',');
            let user: u32 = parse_field(fields.next(), "user", RFILE, lineno)?;
            let video: u32 = parse_field(fields.next(), "video", RFILE, lineno)?;
            let timeslot: u32 = parse_field(fields.next(), "timeslot", RFILE, lineno)?;
            let x = parse_coordinate(fields.next(), "x_km", RFILE, lineno)?;
            let y = parse_coordinate(fields.next(), "y_km", RFILE, lineno)?;
            let location = check_in_region(Point::new(x, y), region, "request", RFILE, lineno)?;
            if video as usize >= video_count {
                return Err(TraceIoError::Parse {
                    file: RFILE,
                    line: lineno,
                    message: format!("video {video} out of range (catalog {video_count})"),
                });
            }
            if timeslot >= slot_count {
                return Err(TraceIoError::Parse {
                    file: RFILE,
                    line: lineno,
                    message: format!("timeslot {timeslot} out of range ({slot_count} slots)"),
                });
            }
            parsed_requests.push(Request {
                user: UserId(user),
                video: VideoId(video),
                timeslot,
                location,
            });
        }
        let parsed_requests =
            bucket_sort(vec![parsed_requests], slot_count as usize, |r| r.timeslot as usize);

        Ok(Trace {
            region,
            hotspots: parsed_hotspots,
            requests: parsed_requests,
            video_count,
            slot_count,
            // Real logs rarely carry day structure; assume up to one
            // 24-slot day per day, capped by the total slot count.
            slots_per_day: slot_count.min(24),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceConfig;

    #[test]
    fn roundtrip_preserves_trace() {
        let trace = TraceConfig::small_test().with_seed(3).generate();
        let mut h = Vec::new();
        let mut r = Vec::new();
        trace.write_csv(&mut h, &mut r).unwrap();
        let parsed = Trace::read_csv(
            trace.region,
            trace.video_count,
            trace.slot_count,
            h.as_slice(),
            r.as_slice(),
        )
        .unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn shuffled_hotspot_rows_are_reordered_by_id() {
        let trace = TraceConfig::small_test().generate();
        let mut h = Vec::new();
        let mut r = Vec::new();
        trace.write_csv(&mut h, &mut r).unwrap();
        let text = String::from_utf8(h).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1..].reverse();
        let shuffled = lines.join("\n");
        let parsed = Trace::read_csv(
            trace.region,
            trace.video_count,
            trace.slot_count,
            shuffled.as_bytes(),
            r.as_slice(),
        )
        .unwrap();
        assert_eq!(parsed.hotspots, trace.hotspots);
    }

    #[test]
    fn malformed_line_reports_location() {
        let hotspots = "id,x_km,y_km,service_capacity,cache_capacity\n0,1.0,2.0,ten,5\n";
        let err = Trace::read_csv(
            ccdn_geo::Rect::paper_eval_region(),
            10,
            24,
            hotspots.as_bytes(),
            "user,video,timeslot,x_km,y_km\n".as_bytes(),
        )
        .unwrap_err();
        match err {
            TraceIoError::Parse { file, line, message } => {
                assert_eq!(file, "hotspots.csv");
                assert_eq!(line, 2);
                assert!(message.contains("service_capacity"), "{message}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn missing_field_is_reported() {
        let hotspots = "id,x_km,y_km,service_capacity,cache_capacity\n0,1.0,2.0\n";
        let err = Trace::read_csv(
            ccdn_geo::Rect::paper_eval_region(),
            10,
            24,
            hotspots.as_bytes(),
            "user,video,timeslot,x_km,y_km\n".as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(err, TraceIoError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn non_dense_hotspot_ids_are_rejected_with_their_line() {
        let header = "id,x_km,y_km,service_capacity,cache_capacity\n";
        for (rows, line, what) in [
            ("0,1,1,5,5\n2,2,2,5,5\n", 3, "hotspot id 2 is not below the 2 hotspot rows"),
            ("1,1,1,5,5\n0,2,2,5,5\n1,3,3,5,5\n", 4, "duplicate hotspot id 1, first on line 2"),
        ] {
            let err = Trace::read_csv(
                ccdn_geo::Rect::paper_eval_region(),
                10,
                24,
                format!("{header}{rows}").as_bytes(),
                "user,video,timeslot,x_km,y_km\n".as_bytes(),
            )
            .unwrap_err();
            match err {
                TraceIoError::Parse { file, line: at, message } => {
                    assert_eq!((file, at), ("hotspots.csv", line));
                    assert!(message.contains(what), "{message}");
                }
                other => panic!("unexpected error {other}"),
            }
        }
    }

    #[test]
    fn out_of_range_video_and_slot_are_rejected() {
        let hotspots = "id,x_km,y_km,service_capacity,cache_capacity\n0,1,1,5,5\n";
        let bad_video = "user,video,timeslot,x_km,y_km\n1,99,0,1,1\n";
        let err = Trace::read_csv(
            ccdn_geo::Rect::paper_eval_region(),
            10,
            24,
            hotspots.as_bytes(),
            bad_video.as_bytes(),
        )
        .unwrap_err();
        assert!(format!("{err}").contains("video"), "{err}");

        let bad_slot = "user,video,timeslot,x_km,y_km\n1,5,30,1,1\n";
        let err = Trace::read_csv(
            ccdn_geo::Rect::paper_eval_region(),
            10,
            24,
            hotspots.as_bytes(),
            bad_slot.as_bytes(),
        )
        .unwrap_err();
        assert!(format!("{err}").contains("timeslot"), "{err}");
    }

    #[test]
    fn requests_are_resorted_by_timeslot() {
        let hotspots = "id,x_km,y_km,service_capacity,cache_capacity\n0,1,1,5,5\n";
        let requests = "user,video,timeslot,x_km,y_km\n1,5,9,1,1\n2,3,2,1,1\n";
        let trace = Trace::read_csv(
            ccdn_geo::Rect::paper_eval_region(),
            10,
            24,
            hotspots.as_bytes(),
            requests.as_bytes(),
        )
        .unwrap();
        assert_eq!(trace.requests[0].timeslot, 2);
        assert_eq!(trace.requests[1].timeslot, 9);
    }

    #[test]
    fn empty_request_file_gives_no_requests() {
        let trace = Trace::read_csv(
            ccdn_geo::Rect::paper_eval_region(),
            10,
            24,
            "id,x,y,s,c\n0,1,1,5,5\n".as_bytes(),
            "user,video,timeslot,x,y\n".as_bytes(),
        )
        .unwrap();
        assert_eq!(trace.hotspots.len(), 1);
        assert!(trace.requests.is_empty());
    }

    #[test]
    fn header_only_hotspot_file_is_rejected() {
        let err = Trace::read_csv(
            ccdn_geo::Rect::paper_eval_region(),
            10,
            24,
            "id,x_km,y_km,service_capacity,cache_capacity\n".as_bytes(),
            "user,video,timeslot,x_km,y_km\n1,5,0,1,1\n".as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(err, TraceIoError::Inconsistent(_)), "{err}");
        assert!(format!("{err}").contains("no hotspot rows"), "{err}");
    }

    #[test]
    fn non_finite_hotspot_coordinate_is_rejected() {
        for (field, row) in [("x_km", "1,NaN,2,5,5"), ("y_km", "1,2,inf,5,5")] {
            let hotspots =
                format!("id,x_km,y_km,service_capacity,cache_capacity\n0,1,1,5,5\n{row}\n");
            let err = Trace::read_csv(
                ccdn_geo::Rect::paper_eval_region(),
                10,
                24,
                hotspots.as_bytes(),
                "user,video,timeslot,x_km,y_km\n".as_bytes(),
            )
            .unwrap_err();
            match err {
                TraceIoError::Parse { file, line, message } => {
                    assert_eq!(file, "hotspots.csv");
                    assert_eq!(line, 3);
                    assert!(message.contains(field), "{message}");
                }
                other => panic!("unexpected error {other}"),
            }
        }
    }

    #[test]
    fn huge_hotspot_coordinate_is_rejected() {
        for (field, row) in [("x_km", "1,1e300,2,5,5"), ("y_km", "1,2,-1e300,5,5")] {
            let hotspots =
                format!("id,x_km,y_km,service_capacity,cache_capacity\n0,1,1,5,5\n{row}\n");
            let err = Trace::read_csv(
                ccdn_geo::Rect::paper_eval_region(),
                10,
                24,
                hotspots.as_bytes(),
                "user,video,timeslot,x_km,y_km\n".as_bytes(),
            )
            .unwrap_err();
            match err {
                TraceIoError::Parse { file, line, message } => {
                    assert_eq!(file, "hotspots.csv");
                    assert_eq!(line, 3);
                    assert!(message.contains(field) && message.contains("beyond"), "{message}");
                }
                other => panic!("unexpected error {other}"),
            }
        }
    }

    #[test]
    fn huge_request_coordinate_is_rejected() {
        let hotspots = "id,x_km,y_km,service_capacity,cache_capacity\n0,1,1,5,5\n";
        for (field, row) in
            [("x_km", "1,5,0,1e300,1"), ("y_km", "1,5,0,1,-1e300"), ("x_km", "1,5,0,1e308,1")]
        {
            let requests = format!("user,video,timeslot,x_km,y_km\n1,5,0,1,1\n{row}\n");
            let err = Trace::read_csv(
                ccdn_geo::Rect::paper_eval_region(),
                10,
                24,
                hotspots.as_bytes(),
                requests.as_bytes(),
            )
            .unwrap_err();
            match err {
                TraceIoError::Parse { file, line, message } => {
                    assert_eq!(file, "requests.csv");
                    assert_eq!(line, 3);
                    assert!(message.contains(field) && message.contains("beyond"), "{message}");
                }
                other => panic!("unexpected error {other}"),
            }
        }
    }

    #[test]
    fn coordinates_at_the_bound_are_accepted() {
        let edge = MAX_COORDINATE_KM;
        let hotspots =
            format!("id,x_km,y_km,service_capacity,cache_capacity\n0,{edge},-{edge},5,5\n");
        let requests = format!("user,video,timeslot,x_km,y_km\n1,5,0,-{edge},{edge}\n");
        let trace = Trace::read_csv(
            Rect::new(Point::new(-edge, -edge), Point::new(edge, edge)),
            10,
            24,
            hotspots.as_bytes(),
            requests.as_bytes(),
        )
        .unwrap();
        let d = trace.hotspots[0].location.distance(trace.requests[0].location);
        assert!(d.is_finite(), "{d}");
    }

    #[test]
    fn points_outside_the_region_are_rejected_with_their_line() {
        let region = ccdn_geo::Rect::paper_eval_region();
        let header = "id,x_km,y_km,service_capacity,cache_capacity\n0,1,1,5,5\n";
        for (what, row) in [("hotspot", "1,1000000,2,5,5"), ("hotspot", "1,2,-0.001,5,5")] {
            let hotspots = format!("{header}{row}\n");
            let err = Trace::read_csv(
                region,
                10,
                24,
                hotspots.as_bytes(),
                "user,video,timeslot,x_km,y_km\n".as_bytes(),
            )
            .unwrap_err();
            match err {
                TraceIoError::Parse { file, line, message } => {
                    assert_eq!((file, line), ("hotspots.csv", 3));
                    assert!(message.contains(what) && message.contains("outside"), "{message}");
                }
                other => panic!("unexpected error {other}"),
            }
        }
        let requests = "user,video,timeslot,x_km,y_km\n1,5,0,1,1\n2,5,0,17.5,1\n";
        let err =
            Trace::read_csv(region, 10, 24, header.as_bytes(), requests.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse { file, line, message } => {
                assert_eq!((file, line), ("requests.csv", 3));
                assert!(message.contains("request at (17.5, 1)"), "{message}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn points_on_the_region_border_are_accepted() {
        let hotspots = "id,x_km,y_km,service_capacity,cache_capacity\n0,0,11,5,5\n";
        let requests = "user,video,timeslot,x_km,y_km\n1,5,0,17,0\n";
        let trace = Trace::read_csv(
            ccdn_geo::Rect::paper_eval_region(),
            10,
            24,
            hotspots.as_bytes(),
            requests.as_bytes(),
        )
        .unwrap();
        assert_eq!(trace.requests[0].location, Point::new(17.0, 0.0));
    }

    #[test]
    fn non_finite_request_coordinate_is_rejected() {
        let hotspots = "id,x_km,y_km,service_capacity,cache_capacity\n0,1,1,5,5\n";
        for (field, row) in [("x_km", "1,5,0,NaN,1"), ("y_km", "1,5,0,1,-inf")] {
            let requests = format!("user,video,timeslot,x_km,y_km\n1,5,0,1,1\n{row}\n");
            let err = Trace::read_csv(
                ccdn_geo::Rect::paper_eval_region(),
                10,
                24,
                hotspots.as_bytes(),
                requests.as_bytes(),
            )
            .unwrap_err();
            match err {
                TraceIoError::Parse { file, line, message } => {
                    assert_eq!(file, "requests.csv");
                    assert_eq!(line, 3);
                    assert!(message.contains(field), "{message}");
                }
                other => panic!("unexpected error {other}"),
            }
        }
    }
}
