//! `perfbench` — the end-to-end and per-layer benchmark of the RoMe
//! reproduction.
//!
//! ```text
//! perfbench --workload <repro|sim-rw|serve-mix|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run prints a host block, human-readable report lines, and as its
//! last line one JSON object with exactly the keys `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `README.md` beside this package.

mod layers;
mod measure;
mod per_layer;
mod repro;
mod serve;
mod simrw;

use measure::Outcome;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <repro|sim-rw|serve-mix|all> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Peak resident memory so far; a host without `/proc` makes the run
/// invalid rather than reporting a made-up number.
pub fn peak_rss(out: &mut Outcome) -> f64 {
    measure::peak_rss_mib().unwrap_or_else(|| {
        out.invalid("peak RSS unavailable (no /proc/self/status VmHWM)");
        0.0
    })
}

fn run_one(args: &Args) -> Option<Outcome> {
    Some(match args.workload.as_str() {
        "repro" => repro::run(args),
        "sim-rw" => simrw::run(args),
        "serve-mix" => serve::run(args),
        _ => return None,
    })
}

fn print(workload: &str, out: &Outcome) {
    println!("workload {workload}");
    for line in &out.lines {
        println!("  {line}");
    }
    for problem in &out.problems {
        println!("  FAILED: {problem}");
    }
    println!(
        "  attempted {} failed {} correct {}",
        out.attempted,
        out.failed,
        out.correct()
    );
    for m in &out.metrics {
        println!("  {:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.json_line());
}

fn main() {
    measure::reexec_without_aslr();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.workload == "serve-mix" {
        // Client and server share one CPU: on a small host, where the
        // scheduler places the client, connection and writer threads moves
        // light-class latency more than any change to the serving path would.
        match measure::pin_to_one_cpu() {
            Some(cpu) => println!("pinned to CPU {cpu}"),
            None => println!("not pinned: CPU affinity unavailable"),
        }
    }
    println!("host {}", measure::host_block());
    let workloads: Vec<&str> = if args.workload == "all" {
        vec!["repro", "sim-rw", "serve-mix"]
    } else {
        vec![args.workload.as_str()]
    };
    for workload in workloads {
        let one = Args {
            workload: workload.to_string(),
            ..args.clone()
        };
        match run_one(&one) {
            Some(out) => print(workload, &out),
            None => {
                eprintln!("unknown workload {workload:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
}
