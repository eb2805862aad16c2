//! Command line of the SIMBA benchmark.
//!
//! ```text
//! simba-benchmark run [--workload <name>] [--seed N] [--seconds S] [--trace 0|1] [--repeat N]
//! simba-benchmark agree <a.json> <b.json>
//! simba-benchmark record-golden
//! ```
//!
//! `run` with both `--workload` and `--trace` is one run in this process
//! (what `BENCHMARK.json`'s command amounts to). Any other `run` is the
//! whole benchmark: every selected workload, untraced then traced, each in
//! a fresh process, merged into `benchmark/out/results.json`.

use serde::Content;
use simba_benchmark::check::{self, Golden};
use simba_benchmark::env::Environment;
use simba_benchmark::report::{self, entries, number, object, text, Contract};
use simba_benchmark::run::{self, Options, Parts};
use simba_benchmark::stats::{iqr_share, median};
use simba_benchmark::workloads::{self, Workload, DEFAULT_SEED, WORKLOADS};
use simba_benchmark::{agree, DEFAULT_SECONDS};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: simba-benchmark run [--workload <name>] [--seed N] [--seconds S] [--trace 0|1] [--repeat N]
       simba-benchmark agree <a.json> <b.json>
       simba-benchmark record-golden";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => RunArgs::parse(rest).and_then(|a| match a.single() {
            Some(opts) => run_one(&opts),
            None => run_all(&a),
        }),
        Some((cmd, [a, b])) if cmd == "agree" => Contract::load()
            .and_then(|contract| agree::agree(a, b, &contract))
            .map(|(table, ok)| {
                print!("{table}");
                ok
            }),
        Some((cmd, [])) if cmd == "record-golden" => record_golden().map(|()| true),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("simba-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: u64,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut parsed = RunArgs {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: None,
            repeat: 1,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    parsed.workload = Some(workloads::by_name(value).ok_or_else(|| {
                        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload `{value}` (one of {})", names.join(", "))
                    })?)
                }
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    parsed.seconds = value.parse().ok().filter(|s| *s >= 0.0).ok_or_else(bad)?
                }
                "--trace" => {
                    parsed.trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--repeat" => {
                    parsed.repeat = value.parse().ok().filter(|n| *n >= 1).ok_or_else(bad)?
                }
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        Ok(parsed)
    }

    /// The one run this invocation asks for, if it names both a workload
    /// and a pass.
    fn single(&self) -> Option<Options> {
        Some(Options {
            workload: self.workload?.clone(),
            seed: self.seed,
            seconds: self.seconds,
            trace: self.trace?,
        })
    }
}

fn pass_name(trace: bool) -> &'static str {
    if trace {
        "per_layer"
    } else {
        "end_to_end"
    }
}

/// One run in this process: metric lines, result file, trace, result line.
fn run_one(opts: &Options) -> Result<bool, String> {
    let env = Environment::capture();
    let result = run::run(opts)?;
    print!("{}", report::metric_lines(&result));
    for problem in &result.verdict.problems {
        eprintln!("{}: INCORRECT: {problem}", result.workload);
    }
    let file = report::result_file(&result, &env, opts.seconds);
    let name = format!("{}.{}.json", result.workload, pass_name(opts.trace));
    let mut written = report::write_out(&name, &file).map(|_| ());
    if opts.trace {
        written = written.and(report::write_trace(&result).map(|_| ()));
    }
    if let Err(e) = written {
        // The result line below still carries every number.
        eprintln!("simba-benchmark: {e}");
    }
    println!("{}", report::result_line(&result));
    Ok(result.correct())
}

/// The whole benchmark: each workload untraced then traced, each run a
/// fresh process, `--repeat` times on consecutive seeds; medians, spreads
/// and the environment go to `out/results.json`.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let contract = Contract::load()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let selected: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let passes: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut all_correct = true;
    let mut env = None;
    let mut workloads_out = Vec::new();
    for w in selected {
        let mut sections = Vec::new();
        let mut correct = true;
        for &trace in &passes {
            // metric name → (unit, one value per repeat)
            let mut runs: Vec<(String, String, Vec<f64>)> = Vec::new();
            for seed in args.seed..args.seed + args.repeat {
                let status = Command::new(&exe)
                    .args(["run", "--workload", w.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .status()
                    .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
                correct &= status.success();
                let path = report::out_dir().join(format!("{}.{}.json", w.name, pass_name(trace)));
                let Ok(body) = std::fs::read_to_string(&path) else {
                    correct = false;
                    continue;
                };
                let file: Content = serde_json::from_str(&body).map_err(|e| e.to_string())?;
                env = env.or_else(|| file.get("env").cloned());
                for (name, m) in file.get("metrics").map(entries).unwrap_or_default() {
                    let value = m.get("value").and_then(number).unwrap_or(f64::NAN);
                    match runs.iter_mut().find(|(n, _, _)| n == name) {
                        Some((_, _, values)) => values.push(value),
                        None => {
                            let unit = m.get("unit").and_then(report::string).unwrap_or("");
                            runs.push((name.clone(), unit.to_string(), vec![value]));
                        }
                    }
                }
            }
            let metrics = runs
                .into_iter()
                .map(|(name, unit, values)| {
                    let mut fields = vec![
                        ("value", Content::F64(median(&values))),
                        ("unit", text(&unit)),
                    ];
                    if values.len() > 1 {
                        let spread = iqr_share(&values).unwrap_or(0.0);
                        fields.push(("spread", Content::F64(spread)));
                        fields.push((
                            "runs",
                            Content::Seq(values.into_iter().map(Content::F64).collect()),
                        ));
                    }
                    (name, object(fields))
                })
                .collect();
            sections.push((pass_name(trace), Content::Map(metrics)));
        }
        sections.push(("correct", Content::Bool(correct)));
        all_correct &= correct;
        workloads_out.push((w.name.to_string(), object(sections)));
    }
    let results = object(vec![
        ("env", env.unwrap_or(Content::Null)),
        ("seed", Content::U64(args.seed)),
        ("repeat", Content::U64(args.repeat)),
        ("seconds", Content::F64(args.seconds)),
        ("workloads", Content::Map(workloads_out)),
    ]);
    let path = report::write_out("results.json", &results)?;
    print!("{}", summary(&results, &contract));
    println!("results: {}", path.display());
    Ok(all_correct)
}

/// End-to-end medians (and, with `--repeat`, spreads against the bounds).
fn summary(results: &Content, contract: &Contract) -> String {
    let mut out = String::new();
    for (workload, sections) in results.get("workloads").map(entries).unwrap_or_default() {
        for m in &contract.end_to_end {
            let Some(entry) = sections.get("end_to_end").and_then(|s| s.get(&m.name)) else {
                continue;
            };
            let value = entry.get("value").and_then(number).unwrap_or(f64::NAN);
            out += &format!("{workload:<20} {:<14} {value:>12.4} {:<4}", m.name, m.unit);
            if let (Some(spread), Some(bound)) = (entry.get("spread").and_then(number), m.bound) {
                let flag = if spread > bound / 3.0 {
                    "  <- over a third of the bound"
                } else {
                    ""
                };
                out += &format!(
                    " spread {:>5.1}% of bound {:>3.0}%{flag}",
                    spread * 100.0,
                    bound * 100.0
                );
            }
            out.push('\n');
        }
    }
    out
}

/// Re-pin `golden.json` from one traced round of every workload at the
/// default seed. Legal only in a benchmark-archetype change (see README).
fn record_golden() -> Result<(), String> {
    let mut golden = Golden {
        seed: DEFAULT_SEED,
        entries: Vec::new(),
    };
    for w in &WORKLOADS {
        let parts = Parts::build(w, DEFAULT_SEED)?;
        let round = run::run_round(&parts, w, DEFAULT_SEED, true);
        let verdict = check::verify(w, DEFAULT_SEED, &parts, &[round], None);
        if !verdict.problems.is_empty() {
            return Err(format!(
                "{}: refusing to pin incorrect outputs: {}",
                w.name,
                verdict.problems.join("; ")
            ));
        }
        println!(
            "{} digest {:#018x} prefix {:#018x} ({} oracle checks)",
            w.name, verdict.digest, verdict.prefix_digest, verdict.oracle_checked
        );
        golden.entries.push(verdict.golden_entry(w));
    }
    check::twins_agree(&golden)?;
    let path = report::bench_dir().join("golden.json");
    let body = serde_json::to_string_pretty(&golden).map_err(|e| e.to_string())?;
    std::fs::write(&path, body + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "pinned {} (rebuild to compile the new pins in)",
        path.display()
    );
    Ok(())
}
