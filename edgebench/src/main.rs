//! edgebench: the workspace benchmark, driven from outside through public
//! calls only.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path edgebench/Cargo.toml -- \
//!     --workload <kws-stream|fmt8-gemm|approx-retrain> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no benchmark spans
//! inside the requests; `--trace 1` times the calls into each layer and
//! reports the per-layer metrics. Both print a table, the check verdicts
//! and, as the last line, one JSON object. See `README.md`.

#![forbid(unsafe_code)]

mod checks;
mod gemm;
mod golden;
mod kws;
mod report;
mod retrain;
mod rng;
mod stats;
mod sys;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use checks::Checks;
use gemm::{Gemm, GemmRun};
use golden::{Entry, DEFAULT_SEED};
use kws::{Kws, KwsRun};
use report::{Metric, Report};
use retrain::{Retrain, RetrainRun};
use stats::median;

/// A run measures all three loops, each for its share of `--seconds`
/// (`Workload::share`), interleaved in this many slices so that every
/// metric samples the host over the whole run rather than over one
/// stretch of it. A loop runs whole rounds, blocks or jobs; its budget is
/// cumulative, so a slice that overshoots shortens (or skips) the loop's
/// next one.
const SLICES: u32 = 20;
/// Set-up of all three loops is repeated in this many processes (this one
/// included) and the median reported, since one cold start is noisy.
const SETUP_SAMPLES: usize = 5;
/// Share of `--seconds` the traced run spends on the untraced reference
/// loop that `trace.overhead_pct` compares against.
const TRACE_REFERENCE_SHARE: f64 = 0.5;
/// Passes over the utterances in the traced KWS run.
const TRACE_KWS_ROUNDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    KwsStream,
    Fmt8Gemm,
    ApproxRetrain,
}

impl Workload {
    const ALL: [Self; 3] = [Self::KwsStream, Self::Fmt8Gemm, Self::ApproxRetrain];

    fn name(self) -> &'static str {
        match self {
            Self::KwsStream => "kws-stream",
            Self::Fmt8Gemm => "fmt8-gemm",
            Self::ApproxRetrain => "approx-retrain",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Share of `--seconds` that an untraced run of this workload spends
    /// on the loop of `of`. Its own loop gets half; of the rest,
    /// fmt8-gemm, whose rates spread least from run to run, gets less.
    fn share(self, of: Self) -> f64 {
        match (self, of) {
            (a, b) if a == b => 0.5,
            (_, Self::Fmt8Gemm) => 0.2,
            (Self::Fmt8Gemm, _) => 0.25,
            _ => 0.3,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set up all three loops, print the set-up time, exit (the extra
    /// set-up samples).
    setup_only: bool,
    /// Print the golden-file lines of this seed instead of checking them.
    print_golden: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::KwsStream,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        print_golden: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            "--print-golden" => args.print_golden = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The three workloads' state, each set up on demand.
#[derive(Default)]
struct Bench {
    kws: Option<Kws>,
    gemm: Option<Gemm>,
    retrain: Option<Retrain>,
}

/// One workload's end-to-end measurement.
enum E2e {
    Kws(KwsRun),
    Gemm(GemmRun),
    Retrain(RetrainRun),
}

impl E2e {
    fn metrics(&self) -> Vec<(&'static str, Option<f64>, &'static str)> {
        match self {
            Self::Kws(r) => r.metrics(),
            Self::Gemm(r) => r.metrics(),
            Self::Retrain(r) => r.metrics(),
        }
    }

    /// The workload's overall throughput, which `trace.overhead_pct`
    /// compares between the untraced and the traced run.
    fn rate(&self) -> Option<f64> {
        match self {
            Self::Kws(r) => r.rate(),
            Self::Gemm(r) => r.rate(),
            Self::Retrain(r) => r.rate(),
        }
    }

    fn merge(&mut self, other: Self) {
        match (self, other) {
            (Self::Kws(a), Self::Kws(b)) => a.merge(b),
            (Self::Gemm(a), Self::Gemm(b)) => a.merge(b),
            (Self::Retrain(a), Self::Retrain(b)) => a.merge(b),
            _ => unreachable!("only slices of one workload are merged"),
        }
    }

    /// Measured time of the run, the part its budget counts.
    fn secs(&self) -> f64 {
        match self {
            Self::Kws(r) => r.secs(),
            Self::Gemm(r) => r.secs(),
            Self::Retrain(r) => r.secs(),
        }
    }

    fn describe(&self) -> String {
        match self {
            Self::Kws(r) => format!("{} utterances", r.samples()),
            Self::Gemm(r) => format!("{} format blocks", r.blocks()),
            Self::Retrain(r) => format!("{} jobs", r.jobs()),
        }
    }
}

impl Bench {
    /// The timed set-up of one workload: everything up to its first timed
    /// request, except the reference computation.
    fn setup(&mut self, w: Workload, seed: u64) {
        match w {
            Workload::KwsStream => self.kws = Some(Kws::setup(seed)),
            Workload::Fmt8Gemm => self.gemm = Some(Gemm::setup(seed)),
            Workload::ApproxRetrain => self.retrain = Some(Retrain::setup(seed)),
        }
    }

    /// The untimed reference pass (the retraining warms up each
    /// multiplier lazily, on its first job).
    fn warm_up(&mut self, w: Workload, checks: &mut Checks) -> Vec<Entry> {
        match w {
            Workload::KwsStream => self.kws_mut().warm_up(),
            Workload::Fmt8Gemm => self.gemm_mut().warm_up(checks),
            Workload::ApproxRetrain => Vec::new(),
        }
    }

    fn run(&mut self, w: Workload, budget: Duration, checks: &mut Checks) -> E2e {
        match w {
            Workload::KwsStream => E2e::Kws(self.kws_mut().run(budget, checks)),
            Workload::Fmt8Gemm => E2e::Gemm(self.gemm_mut().run(budget, checks)),
            Workload::ApproxRetrain => E2e::Retrain(self.retrain_mut().run(budget, checks)),
        }
    }

    fn kws_mut(&mut self) -> &mut Kws {
        self.kws.as_mut().expect("kws-stream is set up first")
    }

    fn gemm_mut(&mut self) -> &mut Gemm {
        self.gemm.as_mut().expect("fmt8-gemm is set up first")
    }

    fn retrain_mut(&mut self) -> &mut Retrain {
        self.retrain
            .as_mut()
            .expect("approx-retrain is set up first")
    }
}

/// One more cold set-up of all three loops, in a fresh process: returns
/// its set-up time.
fn setup_in_child(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--setup-only",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "set-up process printed no setup_s line".to_string())
}

fn push_e2e(report: &mut Report, e: &E2e) {
    for (name, value, unit) in e.metrics() {
        report.push_opt(name, value, unit, "too few samples beyond the percentile");
    }
}

fn untraced(
    args: &Args,
    bench: &mut Bench,
    mut setup_s: f64,
    checks: &mut Checks,
    golden: &mut Vec<Entry>,
    report: &mut Report,
) {
    let w = args.workload;
    // The run's own loop first: its first slice runs, and the peak RSS is
    // read, before the other loops are set up in this process.
    let order: Vec<Workload> = std::iter::once(w)
        .chain(Workload::ALL.into_iter().filter(|&o| o != w))
        .collect();
    let mut runs: Vec<Option<E2e>> = order.iter().map(|_| None).collect();
    let mut spent = vec![0.0; order.len()];
    let mut rss = None;
    for slice in 1..=SLICES {
        for (j, &o) in order.iter().enumerate() {
            if slice == 1 && j == 1 {
                rss = sys::peak_rss_mib();
                for &other in &order[1..] {
                    let t0 = Instant::now();
                    bench.setup(other, args.seed);
                    setup_s += t0.elapsed().as_secs_f64();
                    golden.extend(bench.warm_up(other, checks));
                }
            }
            let due = args.seconds * w.share(o) * f64::from(slice) / f64::from(SLICES);
            if due <= spent[j] {
                continue;
            }
            let e = bench.run(o, Duration::from_secs_f64(due - spent[j]), checks);
            spent[j] += e.secs();
            match &mut runs[j] {
                Some(r) => r.merge(e),
                r => *r = Some(e),
            }
        }
    }

    for (o, r) in order.iter().zip(&runs) {
        let Some(r) = r else { continue };
        println!("{}: {} measured", o.name(), r.describe());
        push_e2e(report, r);
    }
    report.push_opt("peak_rss_mib", rss, "MiB", "no VmHWM in /proc/self/status");

    let mut setups = vec![setup_s];
    for _ in 1..SETUP_SAMPLES {
        match setup_in_child(w, args.seed) {
            Ok(s) => setups.push(s),
            Err(e) => {
                checks.check(false, || format!("set-up sample: {e}"));
            }
        }
    }
    report.push_opt("setup_s", median(&setups), "s", "no set-up sample");
}

fn traced(
    args: &Args,
    bench: &mut Bench,
    checks: &mut Checks,
    golden: &mut Vec<Entry>,
    report: &mut Report,
) {
    let w = args.workload;
    for other in Workload::ALL.into_iter().filter(|&o| o != w) {
        bench.setup(other, args.seed);
        golden.extend(bench.warm_up(other, checks));
    }
    let budget = Duration::from_secs_f64(args.seconds * TRACE_REFERENCE_SHARE);
    let untraced_rate = bench.run(w, budget, checks).rate();

    let (kws_metrics, kws_rate) = bench.kws_mut().trace(TRACE_KWS_ROUNDS, checks);
    let (gemm_metrics, gemm_rate) = bench.gemm_mut().trace(checks);
    let (retrain_metrics, retrain_rate) = bench.retrain_mut().trace(checks);
    report.extend(kws_metrics);
    report.extend(gemm_metrics);
    report.extend(retrain_metrics);

    let traced_rate = match w {
        Workload::KwsStream => kws_rate,
        Workload::Fmt8Gemm => gemm_rate,
        Workload::ApproxRetrain => retrain_rate,
    };
    report.push_opt(
        "trace.overhead_pct",
        untraced_rate.map(|u| (u / traced_rate - 1.0) * 100.0),
        "%",
        "no untraced reference rate",
    );
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("edgebench: {e}");
            eprintln!(
                "usage: edgebench --workload <kws-stream|fmt8-gemm|approx-retrain> \
                 [--seed N] [--seconds S] [--trace 0|1] [--print-golden]"
            );
            return ExitCode::from(2);
        }
    };
    let mut bench = Bench::default();
    bench.setup(args.workload, args.seed);
    let setup_s = start.elapsed().as_secs_f64();
    if args.setup_only {
        for other in Workload::ALL.into_iter().filter(|&o| o != args.workload) {
            bench.setup(other, args.seed);
        }
        println!("setup_s {}", start.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }
    println!(
        "edgebench {} seed={} seconds={} trace={} threads={} tier={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nga_kernels::num_threads(),
        nga_kernels::KernelTier::from_env(),
    );

    let mut checks = Checks::default();
    let mut golden = bench.warm_up(args.workload, &mut checks);
    let mut report = Report::default();
    if args.trace {
        traced(&args, &mut bench, &mut checks, &mut golden, &mut report);
    } else {
        untraced(
            &args,
            &mut bench,
            setup_s,
            &mut checks,
            &mut golden,
            &mut report,
        );
    }
    golden.extend(bench.retrain_mut().golden(args.print_golden));

    if args.print_golden {
        println!("# golden outputs of seed {}", args.seed);
        for e in &golden {
            println!("{}", e.line());
        }
        return ExitCode::SUCCESS;
    }
    if args.seed == DEFAULT_SEED {
        for e in &golden {
            golden::check(&mut checks, e);
        }
    }
    if !args.trace {
        let ok = checks.attempted() - checks.failed();
        report.push(Metric::new(
            "ok_frac",
            ok as f64 / checks.attempted().max(1) as f64,
            "ratio",
        ));
    }
    let correct = checks.failed() == 0 && checks.attempted() > 0;
    report.print(&checks, correct);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload fmt8-gemm --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::Fmt8Gemm);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 3").is_err(), "workload is required");
        assert!(args("--workload kws-stream --trace 2").is_err());
        assert!(args("--workload kws-stream --seconds 0").is_err());
    }

    #[test]
    fn the_same_seed_generates_the_same_inputs() {
        assert_eq!(kws::input_digest(5), kws::input_digest(5));
        assert_ne!(kws::input_digest(5), kws::input_digest(6));
        assert_eq!(gemm::input_digest(5), gemm::input_digest(5));
        assert_ne!(gemm::input_digest(5), gemm::input_digest(6));
        assert_eq!(retrain::input_digest(5), retrain::input_digest(5));
        assert_ne!(retrain::input_digest(5), retrain::input_digest(6));
    }
}
