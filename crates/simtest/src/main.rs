//! Seed-sweep driver for the simulation-test harness.
//!
//! ```text
//! cargo run -p simtest --release -- --seeds 200      # sweep seeds 0..200
//! cargo run -p simtest --release -- --seed 17        # one seed, verbose
//! SIMTEST_SEED=17 cargo run -p simtest --release     # same, via env
//! cargo run -p simtest -- --seeds 50 --start 1000    # shifted sweep
//! cargo run -p simtest -- --seeds 50 --clients 2     # 2-host cluster
//! NFS_CLUSTER_CLIENTS=4 cargo run -p simtest         # same, via env
//! cargo run -p simtest -- --seeds 50 --overlap       # fault pairs
//! cargo run -p simtest -- --seeds 50 --disk-faults   # + disk faults
//! cargo run -p simtest -- --seeds 50 --transport tcp # force TCP (+blackout)
//! cargo run -p simtest -- --seeds 50 --write-loss    # async writes + crashes
//! cargo run -p simtest -- --seeds 50 --meta-storm    # metadata mix + attr cache
//! cargo run -p simtest -- --seeds 50 --hist-oracle   # + latency-hist oracle
//! ```
//!
//! Flags on the command line win over the environment. A bad argument
//! prints a message and exits with status 2 before anything runs.
//!
//! Every seed is run twice (the determinism oracle compares fingerprints).
//! The first oracle failure prints a one-line reproduction command and
//! exits non-zero.
//!
//! Seeds fan out across `NFS_BENCH_JOBS` worker threads through the
//! `simfleet` run engine; reports are collected by seed index and printed
//! in seed order, so stdout is byte-identical at any job count.

use std::process::ExitCode;

use simtest::{run_seed_checked, Axes, FaultKind, Workload};

fn main() -> ExitCode {
    // Environment defaults go first, so a flag given later overrides them.
    let mut args: Vec<String> = Vec::new();
    if let Some(n) = nfscluster::clients_from_env() {
        args.extend(["--clients".into(), n.to_string()]);
    }
    if let Ok(seed) = std::env::var("SIMTEST_SEED") {
        args.extend(["--seed".into(), seed]);
    }
    args.extend(std::env::args().skip(1));
    let (axes, seeds) = match Axes::from_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("simtest: {e}");
            return ExitCode::from(2);
        }
    };

    let results = simfleet::map_indexed(&seeds, |&seed| run_seed_checked(seed, &axes));

    let mut failures = 0u64;
    let mut total_ops = 0u64;
    let mut total_timeouts = 0u64;
    let mut total_lost = 0u64;
    let mut total_rewritten = 0u64;
    let mut kinds_seen: Vec<FaultKind> = Vec::new();
    for res in results {
        match res {
            Ok(r) => {
                total_ops += r.ops;
                total_timeouts += r.timed_out_ops;
                total_lost += r.dirty_blocks_lost;
                total_rewritten += r.blocks_rewritten;
                for k in &r.faults {
                    if !kinds_seen.contains(k) {
                        kinds_seen.push(*k);
                    }
                }
                let faults: Vec<&str> = r.faults.iter().map(|k| k.label()).collect();
                let mode = match axes.workload {
                    Workload::Read => String::new(),
                    Workload::WriteLoss => format!(
                        " lost={:<3} mism={:<2} rewr={:<3}",
                        r.dirty_blocks_lost, r.verifier_mismatches, r.blocks_rewritten
                    ),
                    Workload::MetaStorm => format!(
                        " gattr={:<4} hits={:<4} stale={:<3}",
                        r.getattr_rpcs, r.attr_cache_hits, r.attr_stale_detected
                    ),
                };
                let tail = if axes.hist_oracle {
                    format!(
                        " p99={:>7.2}ms p999={:>7.2}ms",
                        r.lat_p99_ns as f64 / 1e6,
                        r.lat_p999_ns as f64 / 1e6
                    )
                } else {
                    String::new()
                };
                println!(
                    "seed {:>6} [{:?}] ops={:<4} ok={:<4} timeout={:<3} eio={:<3} retx={:<4} rpc_to={:<3}{}{} sim={:>8.1}s fp={:#018x} faults={}",
                    r.seed,
                    r.transport,
                    r.ops,
                    r.ok_ops,
                    r.timed_out_ops,
                    r.eio_ops,
                    r.retransmits,
                    r.rpc_timeouts,
                    mode,
                    tail,
                    r.sim_nanos as f64 / 1e9,
                    r.fingerprint,
                    faults.join(",")
                );
            }
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }
    let labels: Vec<&str> = kinds_seen.iter().map(|k| k.label()).collect();
    let crash_books = if axes.workload == Workload::WriteLoss {
        format!(", {total_lost} blocks crash-lost, {total_rewritten} rewritten")
    } else {
        String::new()
    };
    println!(
        "swept {} seed(s) [{axes}]: {failures} failed, {total_ops} ops, {total_timeouts} timed out{crash_books}, fault kinds exercised: {}",
        seeds.len(),
        labels.join(",")
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
