//! `Trace::read_csv` on mutated lines of a small generated trace never
//! panics. Every case ends in a `TraceIoError::Parse` that names a line of
//! the file it blames, in `TraceIoError::Inconsistent` for a hotspot file
//! with no rows (the one error no line can carry), or in a trace every
//! later stage can take: dense hotspot ids, every point inside the region,
//! videos and timeslots in range, requests in timeslot order.

use ccdn_trace::{Trace, TraceConfig, TraceIoError};
use proptest::prelude::*;

/// Field values no generated trace holds: non-finite, huge, negative,
/// fractional where an integer belongs, empty, or two fields in one.
const ODD_VALUES: [&str; 14] = [
    "NaN",
    "inf",
    "-inf",
    "1e300",
    "-1e300",
    "1e308",
    "99999999999999999999",
    "4294967296",
    "-1",
    "-0.5",
    "2.5",
    "",
    " ",
    "3,4",
];

/// One edit of a file's lines; `a` and `b` pick lines, fields or values.
#[derive(Debug, Clone, Copy)]
enum Edit {
    SwapFields,
    DropField,
    ExtraField,
    OddValue,
    DuplicateLine,
    CopyId,
    DeleteLine,
    BlankLine,
    HeaderOnly,
    EmptyFile,
}

const EDITS: [Edit; 10] = [
    Edit::SwapFields,
    Edit::DropField,
    Edit::ExtraField,
    Edit::OddValue,
    Edit::DuplicateLine,
    Edit::CopyId,
    Edit::DeleteLine,
    Edit::BlankLine,
    Edit::HeaderOnly,
    Edit::EmptyFile,
];

/// Applies `edit` to `lines` (the header is line 0).
fn apply(edit: Edit, a: usize, b: usize, lines: &mut Vec<String>) {
    let rows = lines.len().saturating_sub(1);
    // A data line, or `None` when the file has none.
    let row = |pick: usize| (rows > 0).then(|| 1 + pick % rows);
    let edit_fields = |line: &mut String, f: &dyn Fn(&mut Vec<String>)| {
        let mut fields: Vec<String> = line.split(',').map(str::to_owned).collect();
        f(&mut fields);
        *line = fields.join(",");
    };
    match edit {
        Edit::SwapFields => {
            if let Some(r) = row(a) {
                edit_fields(&mut lines[r], &|fields| {
                    let n = fields.len();
                    fields.swap(b % n, (b / n) % n);
                });
            }
        }
        Edit::DropField => {
            if let Some(r) = row(a) {
                edit_fields(&mut lines[r], &|fields| {
                    let n = fields.len();
                    fields.remove(b % n);
                });
            }
        }
        Edit::ExtraField => {
            if let Some(r) = row(a) {
                edit_fields(&mut lines[r], &|fields| {
                    let at = b % (fields.len() + 1);
                    fields.insert(at, ODD_VALUES[b % ODD_VALUES.len()].replace(',', "7"));
                });
            }
        }
        Edit::OddValue => {
            if let Some(r) = row(a) {
                edit_fields(&mut lines[r], &|fields| {
                    let n = fields.len();
                    fields[b % n] = ODD_VALUES[(b / n) % ODD_VALUES.len()].to_owned();
                });
            }
        }
        Edit::DuplicateLine => {
            if let Some(r) = row(a) {
                let copy = lines[r].clone();
                lines.insert(1 + b % rows.max(1), copy);
            }
        }
        Edit::CopyId => {
            if let (Some(to), Some(from)) = (row(a), row(b)) {
                let id = lines[from].split(',').next().unwrap_or_default().to_owned();
                edit_fields(&mut lines[to], &|fields| fields[0] = id.clone());
            }
        }
        Edit::DeleteLine => {
            if let Some(r) = row(a) {
                lines.remove(r);
            }
        }
        Edit::BlankLine => {
            let at = 1 + a % (rows + 1);
            lines.insert(at.min(lines.len()), [String::new(), "   ".to_owned()][b % 2].clone());
        }
        Edit::HeaderOnly => lines.truncate(1),
        Edit::EmptyFile => lines.clear(),
    }
}

fn text(lines: &[String]) -> String {
    lines.iter().map(|line| format!("{line}\n")).collect()
}

/// Whether a hotspot file has no row `read_csv` would parse.
fn has_no_rows(lines: &[String]) -> bool {
    lines.iter().skip(1).all(|line| line.trim().is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_csv_gives_a_located_error_or_a_valid_trace(
        seed in 0u64..1_000,
        edits in prop::collection::vec((0usize..EDITS.len(), any::<bool>(), 0usize..10_000, 0usize..10_000), 0..4),
    ) {
        let trace = TraceConfig::small_test()
            .with_seed(seed)
            .with_hotspot_count(6)
            .with_request_count(40)
            .with_video_count(20)
            .with_slot_count(4)
            .generate();
        let (mut hotspot_bytes, mut request_bytes) = (Vec::new(), Vec::new());
        trace.write_csv(&mut hotspot_bytes, &mut request_bytes).unwrap();
        let lines_of = |bytes: &[u8]| -> Vec<String> {
            String::from_utf8_lossy(bytes).lines().map(str::to_owned).collect()
        };
        let mut files = [lines_of(&hotspot_bytes), lines_of(&request_bytes)];
        for &(kind, in_requests, a, b) in &edits {
            apply(EDITS[kind], a, b, &mut files[usize::from(in_requests)]);
        }
        let [hotspots, requests] = &files;

        let read = Trace::read_csv(
            trace.region,
            trace.video_count,
            trace.slot_count,
            text(hotspots).as_bytes(),
            text(requests).as_bytes(),
        );
        match read {
            Ok(parsed) => {
                if edits.is_empty() {
                    prop_assert_eq!(&parsed, &trace);
                }
                prop_assert!(!parsed.hotspots.is_empty());
                for (i, h) in parsed.hotspots.iter().enumerate() {
                    prop_assert_eq!(h.id.0, i, "hotspot ids are dense and in order");
                    prop_assert!(parsed.region.contains(h.location), "{:?}", h);
                }
                for r in &parsed.requests {
                    prop_assert!(parsed.region.contains(r.location), "{:?}", r);
                    prop_assert!((r.video.0 as usize) < parsed.video_count, "{:?}", r);
                    prop_assert!(r.timeslot < parsed.slot_count, "{:?}", r);
                }
                prop_assert!(parsed.requests.windows(2).all(|w| w[0].timeslot <= w[1].timeslot));
            }
            Err(TraceIoError::Parse { file, line, message }) => {
                let blamed = if file == "hotspots.csv" { hotspots } else { requests };
                prop_assert!(
                    (2..=blamed.len()).contains(&line),
                    "{} line {} of {}: {}", file, line, blamed.len(), message
                );
                prop_assert!(!blamed[line - 1].trim().is_empty(), "blank line {} blamed", line);
            }
            Err(TraceIoError::Inconsistent(message)) => {
                prop_assert!(has_no_rows(hotspots), "{} with {:?}", message, edits);
            }
            Err(other) => prop_assert!(false, "unexpected error {}", other),
        }
    }
}
