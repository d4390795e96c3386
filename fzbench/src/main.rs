//! `fzbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Generates the workload's inputs from the seed, sets the system up,
//! measures for about `--seconds`, checks every answer and prints the
//! result as one JSON object on the last line of standard output. The
//! run's fingerprint is printed before it, and written with the trace
//! under `.bench_out/` in the working directory.

use fzbench::common::Ctx;
use fzbench::report::{fingerprint, nproc};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fzbench: {e}");
            eprintln!("usage: fzbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".bench_out");
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: nproc(),
        work: work.clone(),
        out: out.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&work).and_then(|_| std::fs::create_dir_all(&out)) {
        eprintln!("fzbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let threads = [
        ("server_workers", ctx.nproc),
        ("connections", ctx.nproc),
        ("batch_threads", ctx.nproc),
        ("churn_readers", 1),
        ("churn_writers", 1),
    ];
    let fp = fingerprint(&args.workload, args.seed, args.trace, &threads);
    println!("fingerprint {fp}");
    let outcome = fzbench::run(&args.workload, &ctx, fzbench::Size::Full);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(outcome) => {
            let line = outcome.result_line(args.trace);
            let record = out.join(format!(
                "{}-seed{}-trace{}.json",
                args.workload, args.seed, args.trace as u8
            ));
            let _ =
                std::fs::write(&record, format!("{{\"fingerprint\": {fp}, \"result\": {line}}}\n"));
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fzbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
