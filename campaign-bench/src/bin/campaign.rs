//! `campaign` — the campaign benchmark of record.
//!
//! ```text
//! campaign --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! ```
//!
//! Runs one workload (`fig9-cold`, `fig8-lockstep`, `fig9-warm`,
//! `table1-search`) in this process and prints a header, result lines,
//! and — as the last line — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--seed S` picks the seed block: cells use
//! seeds `S·1e6 ..`. `--trace 1` adds a traced phase and reports
//! per-layer metrics instead of end-to-end ones, writing the spans to
//! `work/<workload>.trace.json`. `--smoke` runs at 1/50 size. Exits 0
//! when every op and check passed, 1 on a failed op or check, 2 on a
//! usage error.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use harvest_campaign_bench::{header, run, CountingAlloc, Options, Workload, SEED_BLOCK};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: campaign --workload fig9-cold|fig8-lockstep|fig9-warm|table1-search \
                     [--seed S] [--seconds T] [--trace 0|1] [--smoke]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects a non-negative integer".to_owned())?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or("--seconds expects a number of seconds in [0, 3600]")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                };
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed_base = seed.checked_mul(SEED_BLOCK).ok_or("--seed is too large")?;
    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    Ok(Options {
        workload,
        seed_base,
        seeds: if smoke {
            (workload.seeds() / 50).max(2)
        } else {
            workload.seeds()
        },
        budget: Duration::from_secs_f64(seconds),
        trace,
        work_dir: work.join(format!("{}-{}", workload.name(), std::process::id())),
        trace_out: trace.then(|| work.join(format!("{}.trace.json", workload.name()))),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("campaign: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for line in header(&opts) {
        println!("{line}");
    }
    match run(&opts) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            for failure in &report.failures {
                eprintln!("campaign: failed: {failure}");
            }
            println!("{}", report.json());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("campaign: {e}");
            ExitCode::FAILURE
        }
    }
}
