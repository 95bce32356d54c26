//! The one benchmark: six live-path workloads on two clocks.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload (the builder contract): metric lines, then the JSON result
//!   as the last line of stdout. Every repetition of the run is a process
//!   of its own (`--rep-seed`), run one after the other.
//! * no `--workload` — the full set: every workload, both trace modes;
//!   `--check` runs two sets and compares them.
//! * `component` — the component pass alone, at a longer budget.
//! * `manifest` / `interactions` — print `BENCHMARK.json` /
//!   `benchmark/interactions.json` from the tables in `metrics.rs`.

mod alloc;
mod component;
mod hist;
mod metrics;
mod rep;
mod report;
mod span;
mod workloads;
mod world;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use metrics::Clock;
use rep::Rep;
use report::Values;
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Repetitions per second of `--seconds`: a repetition's measured phase
/// is sized to take 0.5–0.7 s of host time, set-up excluded. Many short
/// repetitions rather than a few long ones: a burst of interference on
/// the host then spoils one value of ten, and the median ignores it.
const REPS_PER_SECOND: f64 = 10.0 / 6.0;

/// How many timed repetitions a run of `seconds` makes: a function of the
/// argument alone, never of the clock, so that the pooled virtual figures
/// are the same on a fast host and a slow one.
fn repetitions(seconds: f64) -> usize {
    ((seconds * REPS_PER_SECOND).round() as usize).clamp(2, 20)
}

/// The inputs of repetition `i` of a run: an independent draw from `seed`.
fn rep_seed(seed: u64, i: usize) -> u64 {
    let mut state = seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    mirage_testkit::rng::splitmix64(&mut state)
}

struct Args {
    workload: Option<String>,
    /// Set in a repetition's own process: the inputs to draw.
    rep_seed: Option<u64>,
    trace_file: Option<PathBuf>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    out: PathBuf,
    command: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        rep_seed: None,
        trace_file: None,
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        check: false,
        out: PathBuf::from("benchmark/results"),
        command: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--rep-seed" => {
                args.rep_seed = Some(
                    value("--rep-seed")?
                        .parse()
                        .map_err(|e| format!("--rep-seed: {e}"))?,
                );
            }
            "--trace-file" => args.trace_file = Some(PathBuf::from(value("--trace-file")?)),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--check" => args.check = true,
            "component" | "manifest" | "interactions" if args.command.is_none() => {
                args.command = Some(arg)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mirage-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), &args.workload) {
        (Some("manifest"), _) => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        (Some("interactions"), _) => {
            print!("{}", metrics::interactions_json());
            ExitCode::SUCCESS
        }
        (Some("component"), _) => {
            for (name, v) in component::run(Duration::from_millis(250)) {
                print_metric("component", name, v);
            }
            ExitCode::SUCCESS
        }
        (_, Some(name)) => match workloads::find(name) {
            Some(w) if args.rep_seed.is_some() => run_repetition(w, &args),
            Some(w) => run_workload(w, &args),
            None => {
                eprintln!("mirage-benchmark: no workload named {name}");
                ExitCode::from(2)
            }
        },
        (_, None) => run_sets(&args),
    }
}

fn print_metric(scope: &str, name: &str, v: f64) {
    let unit = metrics::find(name).map_or("", |m| m.unit);
    println!("{scope} {name} {} {unit}", report::json_number(v));
}

// ------------------------------------------------------------ one workload

/// A repetition's own process: one world, one record on stdout.
fn run_repetition(w: &Workload, args: &Args) -> ExitCode {
    let seed = args.rep_seed.expect("checked by the caller");
    match rep::run(w, seed, args.trace, args.trace_file.as_deref()) {
        Ok(rep) => {
            println!("{}", rep.encode());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{} (inputs {seed}): {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

/// Runs one repetition in a process of its own and reads its record
/// back. Worlds are not reclaimed when dropped (every parked task keeps
/// its runtime alive, and the runtime its tasks), so repetitions sharing
/// a process would pile up in `VmHWM` and fault in fresh pages each time;
/// a process apiece also gives each its own heap layout and hash seeds,
/// so a run's figures average over those as well.
fn spawn_rep(
    w: &Workload,
    seed: u64,
    traced: bool,
    trace_file: Option<&Path>,
) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe);
    child.args([
        "--workload",
        w.name,
        "--rep-seed",
        &seed.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if let Some(path) = trace_file {
        child.arg("--trace-file").arg(path);
    }
    let output = child
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a repetition: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().and_then(Rep::decode) {
        Some(rep) if output.status.success() => Ok(rep),
        _ => Err(format!(
            "repetition with inputs {seed} failed ({})",
            output.status
        )),
    }
}

/// Whether two repetitions of the same inputs left the same fingerprint:
/// the built-in determinism check.
fn identical(what: &str, a: &Rep, b: &Rep) -> bool {
    let (fa, fb) = (a.fingerprint(), b.fingerprint());
    if fa != fb {
        eprintln!("{what} of the same inputs differ:\n  {fa}\n  {fb}");
    }
    fa == fb
}

fn run_workload(w: &Workload, args: &Args) -> ExitCode {
    let outcome = if args.trace {
        traced_run(w, args)
    } else {
        timed_run(w, args)
    };
    match outcome {
        Ok((correct, attempted, failed, values)) => {
            for (name, v) in &values {
                print_metric(w.name, name, *v);
            }
            println!(
                "{}",
                report::result_line(correct, attempted, failed, &values)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            println!("{}", report::result_line(false, 1, 1, &Vec::new()));
            ExitCode::FAILURE
        }
    }
}

type RunResult = Result<(bool, u64, u64, Values), String>;

fn tally(reps: &[&Rep]) -> (u64, u64) {
    let attempted = reps.iter().map(|r| r.outcome.measured.attempted).sum();
    let failed = reps.iter().map(|r| r.outcome.measured.failed).sum();
    (attempted, failed)
}

/// `--trace 0`: the timed repetitions, tracing and allocation counting
/// off, after a twin of the first: same inputs, so its fingerprint must
/// match; run first, so it also takes the host's cold start.
fn timed_run(w: &Workload, args: &Args) -> RunResult {
    let twin = spawn_rep(w, rep_seed(args.seed, 0), false, None)?;
    let reps = (0..repetitions(args.seconds))
        .map(|i| spawn_rep(w, rep_seed(args.seed, i), false, None))
        .collect::<Result<Vec<Rep>, String>>()?;
    let all: Vec<&Rep> = reps.iter().collect();
    let (attempted, failed) = tally(&all);
    let lat = &report::pool(&all).outcome.measured.lat;
    println!(
        "# {}: {} timed repetitions; latency samples n={}; p99 has {} samples beyond it; \
         highest percentile with >=10 beyond: {}",
        w.name,
        reps.len(),
        lat.n(),
        (lat.n() as f64 * 0.01).floor(),
        lat.tail_quantile()
            .map_or("none".into(), |q| format!("p{}", q * 100.0)),
    );
    let per_rep: Vec<String> = reps
        .iter()
        .map(|r| format!("{:.0}", report::wall_ns_per_op([r])))
        .collect();
    println!(
        "# {}: wall ns/op of each repetition (lower quartile of its windows): {}",
        w.name,
        per_rep.join(" ")
    );
    println!(
        "{} fail_ratio {} ratio",
        w.name,
        failed as f64 / attempted.max(1) as f64
    );
    let correct = failed == 0
        && attempted > 0
        && lat.supports(0.99)
        && identical("two repetitions", &twin, &reps[0]);
    Ok((correct, attempted, failed, report::end_to_end(&reps)))
}

/// `--trace 1`: half the repetitions, each run untraced (counts, the
/// overhead baseline) and then again traced (spans, allocations), then
/// the component pass.
fn traced_run(w: &Workload, args: &Args) -> RunResult {
    let n = repetitions(args.seconds).div_ceil(2);
    let path = args.out.join(format!("{}.trace.json", w.name));
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    // Untraced and traced turn about, so that a slow minute on the host
    // falls on both sides of the overhead ratio.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..n {
        let inputs = rep_seed(args.seed, i);
        plain.push(spawn_rep(w, inputs, false, None)?);
        traced.push(spawn_rep(
            w,
            inputs,
            true,
            Some(path.as_path()).filter(|_| i == 0),
        )?);
    }
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let (attempted, failed) = tally(&all);

    let pooled = report::pool(&plain.iter().collect::<Vec<_>>());
    let plain_ns = report::wall_ns_per_op(&plain);
    let per_step = |r: &Rep| r.outcome.measured.wall_ns as f64 / r.counters.steps.max(1) as f64;
    // Same inputs, traced over untraced, pair by pair.
    let overhead = report::median(
        plain
            .iter()
            .zip(&traced)
            .map(|(p, t)| report::wall_ns_per_op([t]) / report::wall_ns_per_op([p]) - 1.0)
            .collect(),
    );
    let mut summary = span::Summary::default();
    let (mut allocs, mut traced_ops) = ((0, 0), 0);
    for t in &traced {
        summary.add(&t.summary);
        allocs = (allocs.0 + t.allocs.0, allocs.1 + t.allocs.1);
        traced_ops += t.outcome.measured.attempted;
    }
    let component = component::run(Duration::from_millis(30));

    let mut values = report::layer_counts(
        &pooled,
        report::median(plain.iter().map(per_step).collect()),
    );
    values.extend(report::layer_spans(
        w, allocs, traced_ops, &summary, overhead,
    ));
    let attributed = report::wall_attributed_ratio(w, &pooled, &values, &component, plain_ns);
    values.extend(component);
    values.push(("trace.wall_attributed_ratio", attributed));
    // Report in the order BENCHMARK.json lists them.
    values.sort_by_key(|v| metrics::PER_LAYER.iter().position(|m| m.name == v.0));

    println!(
        "# {}: {n} untraced + {n} traced repetitions; {} spans over {} ops; mean op {} us virtual; \
         untraced {} ns/op",
        w.name,
        summary.by_name.iter().map(|e| e.1).sum::<u64>(),
        summary.roots,
        report::json_number(summary.mean_root_us()),
        report::json_number(plain_ns),
    );
    // Tracing must not change what the program does: each traced
    // repetition carries the fingerprint of its untraced twin.
    let untouched = plain
        .iter()
        .zip(&traced)
        .all(|(p, t)| identical("untraced and traced repetition", p, t));
    let correct = failed == 0 && attempted > 0 && summary.unattributed_virt_ns == 0 && untouched;
    Ok((correct, attempted, failed, values))
}

// ------------------------------------------------------------ the full set

/// `workload → metric → (value as printed, unit)`.
type Set = BTreeMap<String, BTreeMap<String, (String, String)>>;

/// Runs one workload in its own process and files the metric lines it
/// prints.
fn run_child(w: &Workload, args: &Args, trace: bool, set: &mut Set) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [scope, name, value, unit] = fields[..] {
            if scope == w.name {
                println!("{line}");
                set.entry(scope.into())
                    .or_default()
                    .insert(name.into(), (value.into(), unit.into()));
            }
        } else if line.starts_with('#') {
            println!("{line}");
        }
    }
    Ok(output.status.success())
}

fn run_set(args: &Args) -> Result<(Set, bool), String> {
    let mut set = Set::new();
    let mut ok = true;
    for w in workloads::ALL {
        ok &= run_child(w, args, false, &mut set)?;
        ok &= run_child(w, args, true, &mut set)?;
    }
    Ok((set, ok))
}

fn set_json(set: &Set) -> String {
    let workloads: Vec<String> = set
        .iter()
        .map(|(w, metrics)| {
            let metrics: Vec<String> = metrics
                .iter()
                .map(|(name, (value, unit))| {
                    format!("      \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                })
                .collect();
            format!("    \"{w}\": {{\n{}\n    }}", metrics.join(",\n"))
        })
        .collect();
    format!("{{\n{}\n  }}", workloads.join(",\n"))
}

/// Every pairing of workload and metric on which two sets of the same
/// code and seed disagree: exact metrics must be identical, end-to-end
/// host-clock metrics within their bound (`setup_s`: 25 % or 0.05 s).
/// Per-layer host-clock figures are printed, not compared: on a shared
/// host a microsecond loop reads 2× apart from one minute to the next.
fn disagreements(a: &Set, b: &Set) -> Vec<String> {
    let mut out = Vec::new();
    for (w, metrics) in a {
        for (name, (va, _)) in metrics {
            let Some((vb, _)) = b.get(w).and_then(|m| m.get(name)) else {
                out.push(format!("{w} {name}: missing from the second set"));
                continue;
            };
            let (clock, bound) =
                metrics::find(name).map_or((Clock::Exact, 0.0), |m| (m.clock, m.bound));
            let (fa, fb): (f64, f64) = (
                va.parse().unwrap_or(f64::NAN),
                vb.parse().unwrap_or(f64::NAN),
            );
            let within = match clock {
                Clock::Exact => va == vb,
                Clock::Host => {
                    let slack = if name == "setup_s" { 0.05 } else { 0.0 };
                    (fa - fb).abs() <= (bound * fa.abs().min(fb.abs())).max(slack)
                }
            };
            if !within {
                out.push(format!(
                    "{w} {name}: {va} vs {vb} ({clock:?}, bound {bound})"
                ));
            }
        }
    }
    out
}

fn run_sets(args: &Args) -> ExitCode {
    let sets = if args.check { 2 } else { 1 };
    let mut done: Vec<Set> = Vec::new();
    let mut ok = true;
    for i in 0..sets {
        println!("# set {} of {sets}, seed {}", i + 1, args.seed);
        match run_set(args) {
            Ok((set, set_ok)) => {
                ok &= set_ok;
                done.push(set);
            }
            Err(e) => {
                eprintln!("mirage-benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = write_latest(&args.out, args.seed, &done) {
        eprintln!("mirage-benchmark: {e}");
        ok = false;
    }
    if let [a, b] = &done[..] {
        let diffs = disagreements(a, b);
        for d in &diffs {
            println!("# CHECK FAILED {d}");
        }
        println!(
            "# check: {} disagreements between the two sets",
            diffs.len()
        );
        ok &= diffs.is_empty();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_latest(out: &Path, seed: u64, sets: &[Set]) -> Result<(), String> {
    let sets: Vec<String> = sets.iter().map(set_json).collect();
    let doc = format!(
        "{{\n  \"seed\": {seed},\n  \"clock_note\": \"virt_* and counts are the cost-table model and repeat exactly; \
         wall_*, *_ns, setup_s, peak_rss_mb and host.* are this host\",\n  \"sets\": [\n  {}\n  ]\n}}\n",
        sets.join(",\n  ")
    );
    let path = out.join("latest.json");
    std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
