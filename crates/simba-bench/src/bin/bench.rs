//! The single benchmark entry point: run any scenario — built-in or from a
//! JSON spec file — through `Driver::execute`, or one of the paper's
//! experiments (`paper/<name>`, see `simba_bench::paper`).
//!
//! The usage text lives in `src/bench_usage.txt` — one file backs `--help`
//! *and* the `simba_bench` crate docs, so they cannot drift apart.
//!
//! Flags override scenario defaults; nothing else does. With `--spec`, the
//! file is authoritative and a flag rewrites it: `--rows`, `--seed`,
//! `--steps`, `--workers`, `--think-ms` rewrite every spec in the file,
//! `--addr` re-points remote engine specs, and `--users` is rejected
//! because a sweep does not map onto explicit per-spec fields. A `paper/`
//! scenario takes `--rows`, `--seed` and `--runs` and nothing else.

use simba_bench::paper::{self, Knobs, EXPERIMENTS};
use simba_bench::scenario_cli::{
    check_max_degraded, emit_json, enable_tracing, parse_users, run_specs, write_trace,
};
use simba_driver::{
    all_scenarios, scenario, validate_addr, EngineSpec, ScenarioParams, ScenarioSpec, ThinkTime,
};
use std::io::Write;

/// Every flag `bench` accepts, and whether it takes a value: what
/// `parse_args` matches against and what the usage text must list.
const FLAGS: [(&str, bool); 18] = [
    ("--scenario", true),
    ("--spec", true),
    ("--engine", true),
    ("--list", false),
    ("--dump", false),
    ("--json-out", true),
    ("--trace-out", true),
    ("--trace-sample", true),
    ("--metrics", false),
    ("--max-degraded", true),
    ("--rows", true),
    ("--seed", true),
    ("--users", true),
    ("--steps", true),
    ("--workers", true),
    ("--think-ms", true),
    ("--addr", true),
    ("--runs", true),
];

/// What a `paper/` scenario accepts; any other flag typed with one is an
/// error.
const PAPER_FLAGS: [&str; 4] = ["--scenario", "--rows", "--seed", "--runs"];

#[derive(Debug, Default)]
struct Args {
    scenario: Option<String>,
    spec_file: Option<String>,
    engine: Option<String>,
    list: bool,
    dump: bool,
    json_out: Option<String>,
    trace_out: Option<String>,
    trace_sample: Option<u64>,
    metrics: bool,
    max_degraded: Option<f64>,
    rows: Option<usize>,
    seed: Option<u64>,
    users: Option<Vec<usize>>,
    steps: Option<usize>,
    workers: Option<usize>,
    think_ms: Option<u64>,
    addr: Option<String>,
    runs: Option<u64>,
    /// Every flag on the command line, in order.
    typed: Vec<&'static str>,
}

fn usage() -> ! {
    eprint!("{}", include_str!("../bench_usage.txt"));
    std::process::exit(2);
}

/// Parse the command line, strictly: an unknown flag, a missing value or a
/// value that does not parse whole is an error naming the flag.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            usage();
        }
        let Some(&(name, takes_value)) = FLAGS.iter().find(|(name, _)| *name == flag) else {
            return Err(format!("unknown flag `{flag}`"));
        };
        args.typed.push(name);
        // A switch must not pull the next token: it is the next flag.
        let value = if takes_value {
            it.next()
                .ok_or_else(|| format!("missing value for {flag}"))?
        } else {
            String::new()
        };
        let invalid = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--scenario" => args.scenario = Some(value),
            "--spec" => args.spec_file = Some(value),
            "--engine" => args.engine = Some(value),
            "--list" => args.list = true,
            "--dump" => args.dump = true,
            "--json-out" => args.json_out = Some(value),
            "--trace-out" => args.trace_out = Some(value),
            "--trace-sample" => {
                args.trace_sample = Some(
                    simba_obs::trace::parse_sample(&value)
                        .ok_or_else(|| format!("{} (want \"N\", \"1/N\", or \"0\")", invalid()))?,
                )
            }
            "--metrics" => args.metrics = true,
            "--max-degraded" => match value.parse::<f64>() {
                Ok(p) if (0.0..=100.0).contains(&p) => args.max_degraded = Some(p),
                _ => return Err(format!("{} (want 0..=100)", invalid())),
            },
            "--rows" => args.rows = Some(value.parse().map_err(|_| invalid())?),
            "--seed" => args.seed = Some(value.parse().map_err(|_| invalid())?),
            "--users" => args.users = Some(parse_users(&value).ok_or_else(invalid)?),
            "--steps" => args.steps = Some(value.parse().map_err(|_| invalid())?),
            "--workers" => args.workers = Some(value.parse().map_err(|_| invalid())?),
            "--think-ms" => args.think_ms = Some(value.parse().map_err(|_| invalid())?),
            "--addr" => {
                // The same rule spec validation applies, run here so a typo
                // fails before any dataset is generated or socket dialed.
                validate_addr(&value).map_err(|e| e.to_string())?;
                args.addr = Some(value);
            }
            "--runs" => match value.parse::<u64>() {
                Ok(n) if n > 0 => args.runs = Some(n),
                _ => return Err(format!("{} (want a positive count)", invalid())),
            },
            _ => unreachable!("every FLAGS entry has an arm"),
        }
    }
    Ok(args)
}

/// Reject flags that parse but do not fit together: a `paper/` scenario
/// with any flag but its own, `--runs` without one, and `--trace-sample`
/// without a trace to sample.
fn check_combinations(args: &Args) -> Result<(), String> {
    if paper_name(args).is_some() {
        if let Some(flag) = args.typed.iter().find(|f| !PAPER_FLAGS.contains(f)) {
            return Err(format!(
                "{flag} does not apply to paper/ scenarios (they take --rows, --seed and --runs)"
            ));
        }
    } else if args.runs.is_some() {
        return Err("--runs applies to paper/ scenarios only".into());
    }
    if args.trace_sample.is_some() && args.trace_out.is_none() {
        return Err("--trace-sample needs --trace-out".into());
    }
    Ok(())
}

/// The experiment a `--scenario paper/<name>` names, if one does.
fn paper_name(args: &Args) -> Option<&str> {
    args.scenario.as_deref()?.strip_prefix("paper/")
}

/// Run the paper experiment `name` (the part after `paper/`) to stdout.
fn run_paper(name: &str, args: &Args) {
    let Some(experiment) = paper::experiment(name) else {
        let known: Vec<String> = EXPERIMENTS
            .iter()
            .map(|e| format!("paper/{}", e.name))
            .collect();
        fail(format!(
            "unknown scenario `paper/{name}`; known: {}",
            known.join(", ")
        ))
    };
    let knobs = Knobs {
        rows: args.rows,
        runs: args.runs,
        seed: args.seed.unwrap_or(0),
    };
    let mut out = std::io::stdout().lock();
    if let Err(e) = (experiment.run)(&knobs, &mut out).and_then(|()| out.flush()) {
        eprintln!("error: paper/{name}: {e}");
        std::process::exit(1);
    }
}

/// The scale knobs of a built-in scenario: a flag where one was typed, the
/// scenario default otherwise.
fn params(args: &Args) -> ScenarioParams {
    let defaults = ScenarioParams::default();
    ScenarioParams {
        rows: args.rows.unwrap_or(defaults.rows),
        seed: args.seed.unwrap_or(defaults.seed),
        users: args.users.clone().unwrap_or(defaults.users),
        steps: args.steps.unwrap_or(defaults.steps),
        workers: args.workers.unwrap_or(defaults.workers),
        think_ms: args.think_ms.unwrap_or(defaults.think_ms),
        addr: args.addr.clone().unwrap_or(defaults.addr),
    }
}

/// Apply the flags the user typed onto specs loaded from a `--spec` file.
fn apply_spec_overrides(specs: &mut [ScenarioSpec], args: &Args) -> Result<(), String> {
    if args.users.is_some() {
        return Err(
            "--users cannot be combined with --spec (edit the file's `sessions` fields)".into(),
        );
    }
    if let Some(addr) = &args.addr {
        // Re-point remote specs at a different server; a file with no
        // remote specs has nothing for the flag to do, so reject it
        // rather than silently run everything in-process.
        let mut rewrote = false;
        for spec in specs.iter_mut() {
            if let EngineSpec::Remote { addr: a, .. } = &mut spec.engine {
                a.clone_from(addr);
                rewrote = true;
            }
        }
        if !rewrote {
            return Err("--addr has no effect: no spec in the file uses a remote engine".into());
        }
    }
    for spec in specs.iter_mut() {
        if let Some(rows) = args.rows {
            // A `size` label wins over `rows` at resolution time; clear
            // it so the explicit flag actually takes effect.
            spec.rows = rows;
            spec.size = None;
        }
        if let Some(seed) = args.seed {
            spec.seed = seed;
        }
        if let Some(steps) = args.steps {
            spec.steps_per_session = steps;
        }
        if let Some(workers) = args.workers {
            spec.workers = workers;
        }
        if let Some(millis) = args.think_ms {
            spec.think = if millis == 0 {
                ThinkTime::None
            } else {
                ThinkTime::Fixed { millis }
            };
        }
    }
    Ok(())
}

/// Load specs from a JSON file holding either one spec object or an array.
/// The first non-whitespace character decides which shape to parse, so a
/// field typo surfaces that shape's diagnostic rather than a misleading
/// "expected array" from the wrong attempt.
fn load_spec_file(path: &str) -> Result<Vec<ScenarioSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if text.trim_start().starts_with('[') {
        serde_json::from_str::<Vec<ScenarioSpec>>(&text).map_err(|e| e.to_string())
    } else {
        ScenarioSpec::from_json(&text)
            .map(|spec| vec![spec])
            .map_err(|e| e.to_string())
    }
    .map_err(|e| format!("{path}: invalid scenario spec file: {e}"))
}

/// Print a command-line error and exit with the usage status.
fn fail(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    check_combinations(&args).unwrap_or_else(|e| fail(e));
    if let Some(name) = paper_name(&args) {
        return run_paper(name, &args);
    }
    let params = params(&args);

    if args.list {
        println!("built-in scenarios:");
        for sc in all_scenarios(&params) {
            // Flag suites whose specs dial out, so nobody launches one
            // without a simba-server listening at the configured addr.
            let note = if sc.specs.iter().any(|s| s.engine.needs_external_server()) {
                format!(" [needs a running simba-server at {}]", params.addr)
            } else {
                String::new()
            };
            println!(
                "  {:<20} {} ({} specs){note}",
                sc.name,
                sc.description,
                sc.specs.len()
            );
        }
        println!("paper experiments (--rows, --seed, --runs only):");
        for e in &EXPERIMENTS {
            println!("  {:<28} {}", format!("paper/{}", e.name), e.about);
        }
        return;
    }

    let (mut specs, banner): (Vec<ScenarioSpec>, String) = match (&args.scenario, &args.spec_file) {
        (Some(name), None) => match scenario(name, &params) {
            Some(sc) => {
                let banner = format!(
                    "{} — {} (rows {}, seed {}, users {:?}, {} steps/session)\n",
                    sc.name, sc.description, params.rows, params.seed, params.users, params.steps
                );
                (sc.specs, banner)
            }
            None => fail(format!(
                "unknown scenario `{name}`; known: {}",
                simba_driver::SCENARIO_NAMES.join(", ")
            )),
        },
        (None, Some(path)) => {
            let mut specs = load_spec_file(path).unwrap_or_else(|e| fail(e));
            apply_spec_overrides(&mut specs, &args).unwrap_or_else(|e| fail(e));
            (specs, format!("specs from {path}\n"))
        }
        _ => usage(),
    };

    if let Some(engine) = &args.engine {
        if simba_engine::EngineKind::from_name(engine).is_none() {
            fail(format!("unknown engine `{engine}`"));
        }
        specs.retain(|s| s.engine.kind_name().eq_ignore_ascii_case(engine));
        if specs.is_empty() {
            eprintln!("no specs left after --engine {engine} filter");
            std::process::exit(1);
        }
    }

    if args.metrics {
        for spec in &mut specs {
            spec.collect_metrics = true;
        }
    }

    if args.dump {
        println!(
            "{}",
            serde_json::to_string_pretty(&specs).expect("specs serialize")
        );
        if specs.iter().any(|s| s.engine.needs_external_server()) {
            eprintln!(
                "note: these specs use remote engines; running them needs a \
                 simba-server listening at each spec's `addr`"
            );
        }
        return;
    }

    if args.trace_out.is_some() {
        enable_tracing(args.trace_sample);
    }

    println!("{banner}");
    let suite = run_specs(&specs);
    // Write whatever spans were collected even when a late spec fails, so
    // a partial trace is still there to debug the failure with.
    let mut errors = Vec::new();
    if let Some(path) = &args.trace_out {
        errors.extend(write_trace(path).err());
    }
    // Emit the report JSON before deciding the exit status: a failed or
    // over-budget run is exactly the one someone will want to inspect.
    if !suite.reports.is_empty() {
        errors.extend(emit_json(&suite.reports, args.json_out.as_deref()).err());
    }
    errors.extend(suite.error);
    if !errors.is_empty() {
        for e in errors {
            eprintln!("error: {e}");
        }
        std::process::exit(1);
    }
    if let Some(max) = args.max_degraded {
        if let Err(e) = check_max_degraded(&suite.reports, max) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<Args, String> {
        parse_args(line.iter().map(|s| s.to_string()))
    }

    /// `--flag` tokens in the usage text (the `--help` and crate-doc
    /// source), deduplicated.
    fn documented_flags() -> Vec<&'static str> {
        let mut flags: Vec<&str> = include_str!("../bench_usage.txt")
            .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .filter(|t| t.starts_with("--") && t.len() > 2)
            .collect();
        flags.sort_unstable();
        flags.dedup();
        flags
    }

    #[test]
    fn usage_text_and_parser_list_the_same_flags() {
        let mut accepted: Vec<&str> = FLAGS.iter().map(|(name, _)| *name).collect();
        accepted.sort_unstable();
        assert_eq!(documented_flags(), accepted);
        for flag in ["--runs", "--json-out", "--trace-sample"] {
            assert!(accepted.contains(&flag), "{flag}");
        }
        // ... and the table is what the parser really accepts: each entry
        // reaches its own `match` arm (a missing arm would panic here) and
        // a value flag refuses to go without its value.
        for (flag, takes_value) in FLAGS {
            if takes_value {
                assert_eq!(
                    parse(&[flag]).unwrap_err(),
                    format!("missing value for {flag}")
                );
                let value = if flag == "--addr" { "loopback" } else { "1" };
                parse(&[flag, value]).unwrap_or_else(|e| panic!("{flag} {value}: {e}"));
            } else {
                parse(&[flag]).unwrap_or_else(|e| panic!("{flag}: {e}"));
            }
        }
        assert_eq!(
            parse(&["--sizes", "1M"]).unwrap_err(),
            "unknown flag `--sizes`"
        );
    }

    #[test]
    fn switches_do_not_swallow_the_next_flag() {
        let args = parse(&[
            "--metrics",
            "--scenario",
            "smoke",
            "--dump",
            "--rows",
            "5",
            "--list",
        ])
        .unwrap();
        assert!(args.metrics && args.dump && args.list);
        assert_eq!(args.scenario.as_deref(), Some("smoke"));
        assert_eq!(args.rows, Some(5));

        let args = parse(&["--dump", "--metrics"]).unwrap();
        assert!(args.dump && args.metrics);
    }

    #[test]
    fn malformed_values_are_usage_errors() {
        for (flag, value) in [
            ("--users", "4,x"),
            ("--users", "4,,8"),
            ("--users", "0"),
            ("--seed", "7up"),
            ("--seed", "-1"),
            ("--rows", "1e6"),
            ("--think-ms", ""),
            ("--max-degraded", "101"),
            ("--runs", "0"),
            ("--runs", "two"),
            ("--trace-sample", "1/x"),
        ] {
            let err = parse(&[flag, value]).unwrap_err();
            assert!(
                err.starts_with(&format!("invalid value `{value}` for {flag}")),
                "{flag} {value}: {err}"
            );
        }
        assert!(parse(&["--addr", "nohost"]).is_err());

        let ok = parse(&["--users", "1, 8,64", "--seed", "7", "--addr", "loopback"]).unwrap();
        assert_eq!(ok.users, Some(vec![1, 8, 64]));
        assert_eq!(ok.seed, Some(7));
        assert_eq!(params(&ok).users, vec![1, 8, 64]);
        assert_eq!(params(&ok).rows, ScenarioParams::default().rows);
        assert_eq!(
            parse(&["--trace-sample", "1/8"]).unwrap().trace_sample,
            Some(8)
        );
    }

    fn combination(line: &[&str]) -> Result<(), String> {
        check_combinations(&parse(line).unwrap())
    }

    #[test]
    fn paper_scenarios_take_rows_seed_and_runs_only() {
        let paper = ["--scenario", "paper/ablation_interleave"];
        combination(&[&paper[..], &["--rows", "600", "--seed", "5", "--runs", "1"]].concat())
            .unwrap();
        for extra in [
            &["--users", "2"][..],
            &["--dump"],
            &["--engine", "duckdb-like"],
            &["--spec", "f.json"],
            &["--json-out", "r.json"],
            &["--trace-out", "t.json"],
        ] {
            let err = combination(&[&paper[..], extra].concat()).unwrap_err();
            assert!(
                err.starts_with(&format!("{} does not apply", extra[0])),
                "{err}"
            );
        }
    }

    #[test]
    fn runs_and_trace_sample_need_their_context() {
        assert_eq!(
            combination(&["--scenario", "smoke", "--runs", "2"]).unwrap_err(),
            "--runs applies to paper/ scenarios only"
        );
        assert!(combination(&["--spec", "f.json", "--runs", "2"]).is_err());
        assert_eq!(
            combination(&["--scenario", "smoke", "--trace-sample", "8"]).unwrap_err(),
            "--trace-sample needs --trace-out"
        );
        combination(&[
            "--scenario",
            "smoke",
            "--trace-out",
            "t.json",
            "--trace-sample",
            "8",
        ])
        .unwrap();
    }
}
