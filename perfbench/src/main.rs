//! Benchmark command line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One process runs one workload on this thread. `--seed` names a set of
//! seeds (`Workload::seeds_per_run` of them). After one discarded warm-up
//! set-up, the process runs the workload's fixed work in rounds, cycling
//! through the seeds: every seed at least once, and more rounds while
//! they fit in `--seconds`. A round times a batch of set-ups on its seed,
//! so set-up samples are spread over the whole run, then runs the work on
//! the last one. Every round must pass its correctness checks, and a seed
//! run twice must reproduce its simulated results and completion
//! fingerprint exactly. `setup_s` is the median set-up sample, simulated
//! metrics are first quartiles over the seeds, and host speed is the
//! median over rounds of each round's ops per host second, scaled to a
//! reference host by a calibration kernel timed before every round.
//!
//! The last line of standard output is one JSON object. With `--trace 0`
//! its metrics are the end-to-end metrics. With `--trace 1` rounds
//! alternate untraced and traced, and the metrics are the per-layer
//! spans and counts plus the tracing overhead.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::ledger::quantile_sorted;
use perfbench::{Outcome, Prepared, Probe, Span, Tracer, Untraced, Workload, LAYER_COUNTS};

/// Set-ups timed before each round, besides the round's own: more while
/// fewer than this many...
const SETUP_BATCH_REPS: usize = 20;
/// ...and while the batch has taken less host time than this.
const SETUP_BATCH_BUDGET: Duration = Duration::from_millis(40);

/// The host speed `host_ops_per_s` is scaled to: `calibration_rate` at
/// 10 M iterations per second, about what an unloaded 2-core x86-64
/// host gives.
const REFERENCE_CALIBRATION_RATE: f64 = 10_000_000.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <read_evict|write_commit|meta_walk|fleet_30k> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace {value}: expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The process's high-water resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Host speed probe, run before every round: iterations per second of a
/// fixed kernel of hash-map updates and heap churn. It shares no code
/// with the simulator, so a change to the simulator cannot move it, while
/// other load on a shared host slows it as it slows the rounds: on a
/// 2-core host whose identical rounds ran up to 1.7 times slower in
/// phases of several seconds, scaling by it cut the spread of the fleet's
/// host speed over ten runs from 0.17 to 0.09.
fn calibration_rate() -> f64 {
    const ITERS: u64 = 200_000;
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    let mut acc = 0u64;
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 50_000).or_insert(0) += i;
        heap.push(Reverse(x >> 20));
        if heap.len() > 4_096 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |Reverse(v)| v));
        }
        acc = acc.wrapping_add(map.get(&(x % 60_000)).copied().unwrap_or(0));
    }
    black_box(acc);
    ITERS as f64 / t0.elapsed().as_secs_f64()
}

/// Times one set-up, returning it and its host seconds.
fn timed_setup<P: Probe>(w: Workload, seed: u64, p: &mut P) -> (Prepared, f64) {
    let t0 = Instant::now();
    let prepared = w.setup(seed, p);
    (prepared, t0.elapsed().as_secs_f64())
}

/// One round on `seed`: a batch of timed set-ups, the last one kept,
/// then the fixed work timed on the host. Set-up samples go to `setups`.
fn round<P: Probe>(w: Workload, seed: u64, p: &mut P, setups: &mut Vec<f64>) -> (Outcome, f64) {
    let (mut prepared, dt) = timed_setup(w, seed, p);
    let (mut batch, mut spent) = (vec![dt], dt);
    while batch.len() < SETUP_BATCH_REPS && spent < SETUP_BATCH_BUDGET.as_secs_f64() {
        drop(prepared);
        let (next, dt) = timed_setup(w, seed, p);
        prepared = next;
        batch.push(dt);
        spent += dt;
    }
    setups.extend(batch);
    let t0 = Instant::now();
    let out = prepared.run(p);
    let host = t0.elapsed().as_secs_f64();
    drop(prepared);
    (out, host)
}

/// Differences between a round's deterministic results and the first
/// round's on the same seed.
fn divergence(first: &Outcome, o: &Outcome) -> Option<String> {
    let mut diff = Vec::new();
    if o.fingerprint != first.fingerprint {
        diff.push(format!(
            "fingerprint {:#018x} vs {:#018x}",
            o.fingerprint, first.fingerprint
        ));
    }
    let sim = [
        ("attempted", o.attempted as f64, first.attempted as f64),
        ("failed", o.failed as f64, first.failed as f64),
        ("sim_p50_ms", o.p50_ms, first.p50_ms),
        ("sim_p999_ms", o.p999_ms, first.p999_ms),
        ("sim_elapsed_s", o.elapsed_s, first.elapsed_s),
    ];
    let layers = o
        .layers
        .iter()
        .zip(&first.layers)
        .filter(|((n, _), _)| !perfbench::is_estimate(n));
    for (name, a, b) in sim
        .into_iter()
        .chain(layers.map(|(&(n, a), &(_, b))| (n, a, b)))
    {
        if a.to_bits() != b.to_bits() {
            diff.push(format!("{name} {a} vs {b}"));
        }
    }
    (!diff.is_empty()).then(|| format!("a rerun diverged: {}", diff.join(", ")))
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// One timed round: its seed's index, ops, host seconds, and whether it
/// was traced.
struct Round {
    k: usize,
    ops: u64,
    secs: f64,
    traced: bool,
}

/// Median ops per host second over the rounds `pick` selects.
fn median_rate(rounds: &[Round], pick: impl Fn(&Round) -> bool) -> f64 {
    let rates: Vec<f64> = rounds
        .iter()
        .filter(|r| pick(r))
        .map(|r| r.ops as f64 / r.secs)
        .collect();
    median(&rates)
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let seeds: Vec<u64> = (0..w.seeds_per_run())
        .map(|k| Workload::sub_seed(args.seed, k))
        .collect();
    let budget = Duration::from_secs(args.seconds);
    let mut tracer = Tracer::default();
    // A discarded warm-up set-up: first-touch page faults and allocator
    // growth are paid once per process, not per set-up.
    drop(w.setup(seeds[0], &mut Untraced));

    // Rounds cycle through the seeds, each seed at least once. Traced
    // runs pair an untraced and a traced round per seed, so both rates
    // come from the same process and the same work.
    let started = Instant::now();
    let mut firsts: Vec<Option<Outcome>> = vec![None; seeds.len()];
    let mut errors: Vec<String> = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let (mut setup_times, mut traced_setups) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut calibration = Vec::new();
    let min_rounds = if args.trace { 2 } else { seeds.len() };
    loop {
        let r = rounds.len();
        // Past the minimum, start a round only if it should end in time.
        let mean_round = started.elapsed() / r.max(1) as u32;
        if r >= min_rounds && started.elapsed() + mean_round > budget {
            break;
        }
        let (k, traced) = if args.trace {
            ((r / 2) % seeds.len(), r % 2 == 1)
        } else {
            (r % seeds.len(), false)
        };
        calibration.push(calibration_rate());
        let (out, secs) = if traced {
            round(w, seeds[k], &mut tracer, &mut traced_setups)
        } else {
            round(w, seeds[k], &mut Untraced, &mut setup_times)
        };
        rounds.push(Round {
            k,
            ops: out.attempted,
            secs,
            traced,
        });
        attempted += out.attempted;
        failed += out.failed;
        errors.extend(
            out.check_failures
                .iter()
                .map(|e| format!("seed {}: {e}", seeds[k])),
        );
        match &firsts[k] {
            None => firsts[k] = Some(out),
            Some(f) => errors.extend(divergence(f, &out)),
        }
    }
    let correct = errors.is_empty();

    let name = w.name();
    println!(
        "# {name} seed={} seeds={seeds:?} setups={} rounds={} ops={attempted} failed={failed} ops_failed_frac={}",
        args.seed,
        setup_times.len() + traced_setups.len(),
        rounds.len(),
        failed as f64 / attempted.max(1) as f64,
    );
    let ran: Vec<&Outcome> = firsts.iter().flatten().collect();
    for (seed, o) in seeds.iter().zip(&firsts) {
        if let Some(o) = o {
            println!(
                "# {name} seed={seed} fingerprint={:#018x} sim_elapsed_s={} sim_p50_ms={} sim_p999_ms={} samples={}",
                o.fingerprint, o.elapsed_s, o.p50_ms, o.p999_ms, o.samples
            );
        }
    }
    let list = |xs: Vec<String>| xs.join(", ");
    println!(
        "# {name} rounds(seed:ops:host_s)=[{}]",
        list(
            rounds
                .iter()
                .map(|r| format!("{}:{}:{}", seeds[r.k], r.ops, r.secs))
                .collect()
        )
    );
    println!(
        "# {name} setup_s_samples=[{}]",
        list(setup_times.iter().map(f64::to_string).collect())
    );
    for e in &errors {
        println!("# {name} CHECK FAILED: {e}");
    }
    let (raw_rate, host_speed) = (median_rate(&rounds, |_| true), median(&calibration));
    println!("# {name} unscaled_host_ops_per_s={raw_rate} calibration_per_s={host_speed}");

    let metrics = if args.trace {
        let per_round = rounds.iter().filter(|r| r.traced).count().max(1) as f64;
        let per_setup = traced_setups.len().max(1) as f64;
        let mut m = Vec::new();
        for s in Span::ALL {
            let per = if s.is_setup() { per_setup } else { per_round };
            m.push(metric(format!("{}_s", s.name()), tracer.secs(s) / per, "s"));
        }
        for s in [Span::Issue, Span::Advance, Span::NextEvent] {
            let calls = tracer.calls(s) as f64 / per_round;
            m.push(metric(format!("{}_calls", s.name()), calls, "count"));
        }
        let advance_ns =
            1e9 * tracer.secs(Span::Advance) / tracer.calls(Span::Advance).max(1) as f64;
        m.push(metric("nfssim.advance_ns_per_call", advance_ns, "ns"));
        for (layer, unit) in LAYER_COUNTS {
            let v = ran[0]
                .layers
                .iter()
                .find(|(n, _)| *n == layer)
                .map_or(0.0, |&(_, v)| v);
            m.push(metric(layer, v, unit));
        }
        let untraced = median_rate(&rounds, |r| !r.traced);
        let traced = median_rate(&rounds, |r| r.traced);
        m.push(metric("tracing.untraced_host_ops_per_s", untraced, "1/s"));
        m.push(metric("tracing.traced_host_ops_per_s", traced, "1/s"));
        m.push(metric(
            "tracing.overhead_host_ops_per_s",
            untraced - traced,
            "1/s",
        ));
        m.push(metric(
            "tracing.overhead_frac",
            (untraced - traced) / untraced,
            "ratio",
        ));
        for x in &m {
            println!("# {name} {} = {} {}", x.name, x.value, x.unit);
        }
        m
    } else {
        // Simulated results: the first quartile over the seeds. About one
        // fleet seed in ten tips into a shedding storm whose p99.9 is 5 to
        // 60 times the others', and the median of 13 seeds falls where
        // partial storms start; the first quartile sits below them.
        let q1 = |f: fn(&Outcome) -> f64| {
            let mut v: Vec<f64> = ran.iter().map(|o| f(o)).collect();
            v.sort_by(f64::total_cmp);
            quantile_sorted(&v, 0.25)
        };
        vec![
            metric("setup_s", median(&setup_times), "s"),
            metric(
                "host_ops_per_s",
                raw_rate * REFERENCE_CALIBRATION_RATE / host_speed,
                "1/s",
            ),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
            metric("sim_elapsed_s", q1(|o| o.elapsed_s), "s"),
            metric("sim_p50_ms", q1(|o| o.p50_ms), "ms"),
            metric("sim_p999_ms", q1(|o| o.p999_ms), "ms"),
        ]
    };
    Ok(json_line(correct, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
