//! The `ccdn` binary, driven as a user would: exit codes and messages.

use std::path::Path;
use std::process::{Command, Output};

fn ccdn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccdn")).args(args).output().expect("ccdn runs")
}

/// A hotspot far outside the region is rejected on import with its line
/// number and exit code 1, instead of being scored as a distant hotspot.
#[test]
fn out_of_region_hotspot_exits_1_with_its_line() {
    let dir = std::env::temp_dir().join(format!("ccdn-cli-exit-{}", std::process::id()));
    let dir_str = dir.to_str().expect("utf-8 temp dir");
    let generated = ccdn(&["generate", "--out-dir", dir_str, "--preset", "small", "--seed", "5"]);
    assert!(generated.status.success(), "{generated:?}");

    let hotspots = Path::new(dir_str).join("hotspots.csv");
    let text = std::fs::read_to_string(&hotspots).expect("generated hotspots");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    // Line 4 of the file: hotspot 2, moved to x_km = 1e6.
    let fields: Vec<&str> = lines[3].split(',').collect();
    lines[3] = format!("{},1000000,{},{},{}", fields[0], fields[2], fields[3], fields[4]);
    std::fs::write(&hotspots, lines.join("\n") + "\n").expect("rewrite hotspots");

    let hotspots = hotspots.to_str().expect("utf-8 path");
    let requests = format!("{dir_str}/requests.csv");
    let run = ccdn(&[
        "run",
        "--hotspots",
        hotspots,
        "--requests",
        &requests,
        "--videos",
        "200",
        "--slots",
        "24",
        "--scheme",
        "nearest",
    ]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("hotspots.csv line 4: hotspot at (1000000, ")
            && stderr.contains("outside the region"),
        "{stderr}"
    );
}
