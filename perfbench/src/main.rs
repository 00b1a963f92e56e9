//! Runs one workload once, untraced or traced, and prints what it
//! measured as one JSON object. `run.py` starts one process per run,
//! so each process's peak RSS is that of a single run.
//!
//! ```sh
//! flexcast-perfbench <geo12|wide128|repl12-hunt> <seed> <untraced|traced>
//! ```

mod host;
mod probe;
mod report;
#[cfg(test)]
mod tests;
mod workload;

use workload::{Size, Workload};

/// Timed set-ups per untraced run; `run.py` reports the median of all.
const SETUP_REPS: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: flexcast-perfbench <geo12|wide128|repl12-hunt> <seed> <untraced|traced>";
    let (Some(w), Some(seed), Some(mode)) = (
        args.first().and_then(|a| Workload::parse(a)),
        args.get(1).and_then(|a| a.parse::<u64>().ok()),
        args.get(2),
    ) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let traced = match mode.as_str() {
        "untraced" => false,
        "traced" => true,
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let (out, rss, calibration) = if traced {
        let out = workload::run_traced(w, seed, Size::Full);
        (out, host::peak_rss_mb(), Vec::new())
    } else {
        // The host's speed, sampled on both sides of the run.
        let mut calibration = vec![host::calibrate(), host::calibrate()];
        let out = workload::run_untraced(w, seed, Size::Full, SETUP_REPS);
        let rss = host::peak_rss_mb();
        calibration.extend([host::calibrate(), host::calibrate()]);
        (out, rss, calibration)
    };
    println!("{}", report::record(w, seed, &out, rss, &calibration));
}
