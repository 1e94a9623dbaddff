//! `perfbench` — the repository benchmark for the `psserve` solver service.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --psserve PATH [--spans PATH]
//! ```
//!
//! Generates both clients' scripts from the seed, computes the sequential
//! reference transcripts and the naive re-decisions (outside every timed
//! phase), then runs closed-loop rounds against fresh `psserve` processes
//! until `--seconds` have passed.  With `--trace 0` the last stdout line
//! carries the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics of the traced in-process replay.  Every metric is
//! also printed by name with its unit.  Any mismatch exits non-zero.

#![forbid(unsafe_code)]

mod check;
mod load;
mod script;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use script::{Workload, CLIENTS};
use stats::{label, median, tail};

/// Rounds per run: at least this many, however long they take.
const MIN_ROUNDS: usize = 5;
/// Rounds per run: at most this many, however short they are.
const MAX_ROUNDS: usize = 200;
/// Extra set-up-only samples after each round (`setup_s` is the median of
/// every set-up of the run).
const SETUP_PROBES: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    psserve: PathBuf,
    spans: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload implies_stream|bulk_check \
    --seed N --seconds S --trace 0|1 --psserve PATH [--spans PATH]";

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1).cloned())
    };
    let workload = get("--workload").ok_or(USAGE)?;
    let workload =
        Workload::from_name(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let number = |v: Option<String>, flag: &str| -> Result<f64, String> {
        v.ok_or_else(|| format!("{flag} is required\n{USAGE}"))?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seed = get("--seed")
        .ok_or(USAGE)?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = number(get("--seconds"), "--seconds")?;
    let trace = match get("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err(format!("--trace must be 0 or 1\n{USAGE}")),
    };
    let psserve = PathBuf::from(get("--psserve").ok_or(USAGE)?);
    let spans = get("--spans").map(PathBuf::from);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        psserve,
        spans,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What the untraced rounds measured, reduced to medians over rounds.
struct Untraced {
    metrics: Vec<Metric>,
    query_p50_ms: f64,
    timed_s: f64,
    attempted: u64,
    failed: u64,
    rounds: usize,
    query_tail: u64,
    query_samples: usize,
}

fn untraced(
    args: &Args,
    scripts: &[script::ClientScript],
    reference: &check::Reference,
) -> Result<Untraced, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut setups = Vec::new();
    while rounds.len() < MIN_ROUNDS
        || (start.elapsed().as_secs_f64() < args.seconds && rounds.len() < MAX_ROUNDS)
    {
        let round =
            load::round(&args.psserve, scripts).map_err(|e| format!("round failed: {e}"))?;
        setups.push(round.setup_s);
        rounds.push(round);
        for _ in 0..SETUP_PROBES {
            let setup = load::setup_probe(&args.psserve, scripts)
                .map_err(|e| format!("set-up probe failed: {e}"))?;
            setups.push(setup);
        }
    }
    if rounds.len() >= 2 {
        let rps: Vec<f64> = rounds
            .iter()
            .map(|r| r.responses as f64 / r.timed_s)
            .collect();
        println!(
            "round-to-round spread (IQR / median): throughput {:.4}, set-up {:.4}",
            stats::spread(&rps),
            stats::spread(&setups)
        );
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in &rounds {
        failed += check::compare(&r.replies, reference)? + r.lost;
        attempted += r.sent;
    }
    let per = |f: &dyn Fn(&load::Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let tail_of = |samples: &[f64]| tail(samples).ok_or("too few samples for a tail percentile");
    // The p50 pools every round's samples; the tail is per round (fixed
    // script length, so a fixed percentile), then the median over rounds.
    let (query_tail, _) = tail_of(&rounds[0].query_ms)?;
    let tails = rounds
        .iter()
        .map(|r| tail_of(&r.query_ms).map(|(_, v)| v))
        .collect::<Result<Vec<_>, _>>()?;
    let query_tail_ms = median(&tails);
    let pooled: Vec<f64> = rounds.iter().flat_map(|r| r.query_ms.clone()).collect();
    let query_p50_ms = median(&pooled);
    let metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric(
            "throughput_rps",
            per(&|r| r.responses as f64 / r.timed_s),
            "1/s",
        ),
        metric("query_p50_ms", query_p50_ms, "ms"),
        metric("query_tail_ms", query_tail_ms, "ms"),
        metric("ok_ratio", 1.0 - failed as f64 / attempted as f64, "ratio"),
        metric("server_peak_rss_mb", per(&|r| r.peak_rss_mb), "MiB"),
    ];
    Ok(Untraced {
        metrics,
        query_p50_ms,
        timed_s: per(&|r| r.timed_s),
        attempted,
        failed,
        rounds: rounds.len(),
        query_tail,
        query_samples: rounds[0].query_ms.len(),
    })
}

/// Sum of span durations per name, in milliseconds.
fn span_ms(spans: &[stats::Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e6)
        .sum()
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn traced(
    args: &Args,
    scripts: &[script::ClientScript],
    reference: &check::Reference,
    live: &Untraced,
) -> Result<Vec<Metric>, String> {
    let plain = trace::service_pass(scripts, reference, false)?;
    let service = trace::service_pass(scripts, reference, true)?;
    let layers = trace::layer_pass(scripts, reference)?;
    if let Some(path) = &args.spans {
        trace::write_spans(
            path,
            &[("service", &service.spans), ("layers", &layers.spans)],
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    }
    let s = &service.spans;
    let l = &layers.spans;
    let st = &layers.stats;
    let resolve_ms = span_ms(s, "server.resolve");
    let layer_request_ms = span_ms(l, "request");
    let layer_cover = stats::coverage(l, "request");
    let mut uncovered: Vec<(&str, f64)> = Vec::new();
    let selfs = stats::self_times(l);
    for (span, own) in l.iter().zip(&selfs) {
        let ms = *own as f64 / 1e6;
        match uncovered.iter_mut().find(|(n, _)| *n == span.name) {
            Some(entry) => entry.1 += ms,
            None => uncovered.push((span.name, ms)),
        }
    }
    uncovered.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "layer pass self time by span (ms): {}",
        uncovered
            .iter()
            .map(|(n, ms)| format!("{n}={ms:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "span coverage: service pass {:.4}, layer pass {:.4}; uncovered remainder of \
         the layer pass's request spans: {:.3} ms of {:.3} ms",
        stats::coverage(s, "request"),
        layer_cover,
        (1.0 - layer_cover) * layer_request_ms,
        layer_request_ms,
    );
    Ok(vec![
        metric("server.parse_ms", span_ms(s, "server.parse"), "ms"),
        metric("server.encode_ms", span_ms(s, "server.encode"), "ms"),
        metric("server.bytes_in", service.bytes_in as f64, "bytes"),
        metric("server.bytes_out", service.bytes_out as f64, "bytes"),
        metric("server.resolve_ms", resolve_ms, "ms"),
        metric(
            "server.writer_share",
            resolve_ms / 1e3 / live.timed_s,
            "ratio",
        ),
        metric("server.compute_ms", span_ms(s, "server.compute"), "ms"),
        metric(
            "server.wait_ratio",
            stats::wait_ratio(live.query_p50_ms, &service.query_service_ms),
            "ratio",
        ),
        metric("session.freeze_ms", span_ms(l, "session.freeze"), "ms"),
        metric("session.freezes", st.freezes as f64, "count"),
        metric("session.intern_ms", span_ms(l, "session.intern"), "ms"),
        metric("session.engine_hits", service.engine_hits as f64, "count"),
        metric(
            "session.engine_misses",
            service.engine_misses as f64,
            "count",
        ),
        metric("lattice.build_ms", span_ms(l, "lattice.build"), "ms"),
        metric("lattice.extend_ms", span_ms(l, "lattice.extend"), "ms"),
        metric("lattice.lookup_ms", span_ms(l, "lattice.lookup"), "ms"),
        metric("lattice.rule_firings", st.rule_firings as f64, "count"),
        metric("lattice.row_ops", st.row_ops as f64, "count"),
        metric(
            "lattice.arcs_per_row_op",
            ratio(st.arcs_added, st.row_ops),
            "ratio",
        ),
        metric("lattice.vocab_terms", st.vocab_terms as f64, "count"),
        metric("lattice.arcs", st.arcs as f64, "count"),
        metric(
            "lattice.true_share",
            ratio(st.goals_true, st.goals),
            "ratio",
        ),
        metric("core.normalize_ms", span_ms(l, "core.normalize"), "ms"),
        metric("core.close_ms", span_ms(l, "core.close"), "ms"),
        metric("core.closed_fds", st.closed_fds as f64, "count"),
        metric("core.materialize_ms", span_ms(l, "core.materialize"), "ms"),
        metric("core.repair_ms", span_ms(l, "core.repair"), "ms"),
        metric("relation.chase_ms", span_ms(l, "relation.chase"), "ms"),
        metric("relation.row_visits", st.row_visits as f64, "count"),
        metric("relation.steps", st.steps as f64, "count"),
        metric(
            "relation.steps_per_visit",
            ratio(st.steps, st.row_visits),
            "ratio",
        ),
        metric("relation.tuples", st.tuples as f64, "count"),
        metric(
            "relation.consistent_share",
            ratio(st.consistent, st.checks),
            "ratio",
        ),
        metric("graph.components_ms", span_ms(l, "graph.components"), "ms"),
        metric("graph.edges", st.edges as f64, "count"),
        metric("trace.overhead", service.wall_s / plain.wall_s, "ratio"),
        metric("trace.coverage", layer_cover, "ratio"),
        metric(
            "trace.coverage_service",
            stats::coverage(s, "request"),
            "ratio",
        ),
        metric(
            "trace.layer_pass_ratio",
            layers.wall_s / plain.wall_s,
            "ratio",
        ),
    ])
}

/// The verdict split of the reference transcripts: the workload's shape.
fn shape(reference: &check::Reference) -> String {
    use ps_server::proto::Payload;
    let (mut goals, mut goals_true, mut checks, mut consistent) = (0u64, 0u64, 0u64, 0u64);
    for r in reference.responses.iter().flatten() {
        match &r.result {
            Ok((Payload::Implies { implied }, _)) => {
                goals += 1;
                goals_true += u64::from(*implied);
            }
            Ok((Payload::ImpliesMany { implied }, _)) => {
                goals += implied.len() as u64;
                goals_true += implied.iter().filter(|&&b| b).count() as u64;
            }
            Ok((Payload::Consistent { consistent: c, .. }, _))
            | Ok((Payload::WeakInstance { satisfiable: c, .. }, _)) => {
                checks += 1;
                consistent += u64::from(*c);
            }
            _ => {}
        }
    }
    format!(
        "lattice.true_share={:.4} ({goals_true}/{goals} goals) \
         relation.consistent_share={:.4} ({consistent}/{checks} checks)",
        ratio(goals_true, goals),
        ratio(consistent, checks)
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let scripts = script::generate(args.workload, args.seed);
    let frames: usize = scripts.iter().map(|s| s.setup.len() + s.timed.len()).sum();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {}: {CLIENTS} clients, {frames} frames per round, \
         {cores} cores available",
        args.workload.name(),
        args.seed
    );

    let t = Instant::now();
    let reference = check::replay(&scripts)?;
    let naive = check::naive(&scripts, &reference)?;
    println!(
        "correctness gate: sequential replay and {naive} naive re-decisions in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    println!("shape: {}", shape(&reference));

    let live = untraced(&args, &scripts, &reference)?;
    println!(
        "untraced: {} rounds, every reply identical to the sequential replay; \
         {} failed of {} frames (failed_ratio {})",
        live.rounds,
        live.failed,
        live.attempted,
        json_number(ratio(live.failed, live.attempted))
    );
    println!(
        "samples per round: {} queries (tail {}); {} rounds",
        live.query_samples,
        label(live.query_tail),
        live.rounds
    );
    let metrics = if args.trace {
        let t = Instant::now();
        let m = traced(&args, &scripts, &reference, &live)?;
        println!("traced run: {:.2} s", t.elapsed().as_secs_f64());
        m
    } else {
        live.metrics
    };
    for m in &metrics {
        println!("metric {} = {} {}", m.name, json_number(m.value), m.unit);
    }
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        live.attempted, live.failed
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
