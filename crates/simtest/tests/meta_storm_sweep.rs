//! Bounded CI sweep for the metadata-storm mode: storm runs arm the
//! client attribute cache at the classic `acregmin=3s`/`acregmax=60s`
//! timeouts and drive a GETATTR/LOOKUP/READDIR-heavy mix with
//! open()-style forced revalidations. The sweep must prove the cache is
//! *live* — getattr-class ops really are answered locally — while the
//! attrcache-books oracle balances every hit, miss, and revalidation on
//! every seed, and non-storm runs keep the machinery provably dormant.
//! Long sweeps run via the binary:
//! `cargo run -p simtest --release -- --seeds 1000 --meta-storm`.

use std::sync::Mutex;

use netsim::TransportKind;
use simtest::{plan, run_plan, run_seed_checked, Axes, Workload};

const CI_SEEDS: u64 = 10;

/// `--meta-storm` plus the `extra` flags.
fn storm(extra: &str) -> Axes {
    format!("--meta-storm {extra}")
        .parse()
        .expect("valid flags")
}

/// The jobs override is process-global; serialize tests that flip it.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// Every storm seed passes all oracles twice (determinism included), and
/// across the sweep the attribute cache demonstrably fires: getattr-class
/// ops are answered locally, wire GETATTRs still flow (misses and
/// revalidations), and at least one revalidation catches the server's
/// attributes having moved under a storm write.
#[test]
fn meta_storm_sweep_holds_all_oracles_and_the_cache_fires() {
    let mut hits = 0u64;
    let mut wire = 0u64;
    let mut revalidations = 0u64;
    let mut stale = 0u64;
    for seed in 0..CI_SEEDS {
        let r = run_seed_checked(seed, &storm("")).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.axes.workload, Workload::MetaStorm);
        assert_eq!(
            r.ok_ops + r.timed_out_ops + r.eio_ops,
            r.ops,
            "seed {seed}: every op completes with a typed outcome"
        );
        assert!(
            r.getattr_rpcs > 0,
            "seed {seed}: a storm run must put GETATTRs on the wire"
        );
        hits += r.attr_cache_hits;
        wire += r.getattr_rpcs;
        revalidations += r.attr_revalidations;
        stale += r.attr_stale_detected;
    }
    assert!(hits > 0, "the attribute cache must answer some ops locally");
    assert!(
        revalidations > 0,
        "expired and open-forced entries must revalidate over the wire"
    );
    assert!(
        stale > 0,
        "some revalidation must catch the server's attributes moving \
         (storm writes bump them): {wire} wire GETATTRs, {revalidations} revalidations"
    );
}

/// A non-storm run never wakes the attribute cache: the report's cache
/// counters are all zero, and the in-run `attrcache-dormancy` oracle
/// backs the same claim inside `run_plan` (including the entry table).
#[test]
fn clean_runs_keep_the_attr_cache_dormant() {
    for seed in 0..4u64 {
        let r = run_seed_checked(seed, &Axes::DEFAULT).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.axes.workload, Workload::Read, "seed {seed}");
        assert_eq!(r.attr_cache_hits, 0, "seed {seed}");
        assert_eq!(r.attr_revalidations, 0, "seed {seed}");
        assert_eq!(r.attr_stale_detected, 0, "seed {seed}");
    }
}

/// The attrcache books compose with the rest of the matrix: a 2-client
/// cluster and overlapping fault pairs both hold, and the 2-client run
/// diverges from the single-client run (the per-op client draw changes
/// the stream).
#[test]
fn meta_storm_composes_with_cluster_and_overlap() {
    let mut diverged = false;
    for seed in 0..4u64 {
        let single = run_seed_checked(seed, &storm("")).unwrap_or_else(|e| panic!("{e}"));
        let cluster =
            run_seed_checked(seed, &storm("--clients 2")).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(cluster.axes.clients, 2, "seed {seed}");
        if cluster.fingerprint != single.fingerprint {
            diverged = true;
        }
        let paired = run_seed_checked(seed, &storm("--overlap")).unwrap_or_else(|e| panic!("{e}"));
        assert!(paired.axes.overlap, "seed {seed}");
        assert!(paired.attr_cache_hits > 0, "seed {seed}");
    }
    assert!(diverged, "2-client storm runs must explore different runs");
}

/// Storm mode composes with the disk-fault schedule: the full
/// `DISK_BATCHES` matrix runs with the cache armed, and both the
/// attrcache books and the disk books hold on every seed.
#[test]
fn meta_storm_composes_with_disk_faults() {
    for seed in 0..3u64 {
        let axes = storm("--disk-faults");
        let r = run_seed_checked(seed, &axes).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.axes, axes, "seed {seed}");
        assert!(r.attr_cache_hits > 0, "seed {seed}");
    }
}

/// Forced TCP: the metadata mix rides the timed segment engine — hits
/// stay local, wire GETATTRs flow in order, and the books hold with zero
/// RPC-layer retransmissions.
#[test]
fn meta_storm_holds_under_forced_tcp() {
    for seed in 0..3u64 {
        let axes = storm("--transport tcp");
        let r = run_plan(&plan(seed, &axes), 0).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.transport, TransportKind::Tcp, "seed {seed}");
        assert_eq!(r.retransmits, 0, "seed {seed}: TCP never retransmits RPCs");
        assert!(r.attr_cache_hits > 0, "seed {seed}");
        assert!(r.getattr_rpcs > 0, "seed {seed}");
    }
}

/// Mutation check: a sabotaged (swallowed) reply under meta-storm must
/// still be caught, and the reproduction command must carry the
/// `--meta-storm` flag so the printed line reproduces the failing mode.
#[test]
fn meta_storm_failures_print_the_mode_flag() {
    let seed = (0..100)
        .find(|&s| plan(s, &storm("")).transport == TransportKind::Udp)
        .expect("a UDP seed among the first 100");
    let err =
        run_plan(&plan(seed, &storm("")), 1).expect_err("a swallowed reply must trip an oracle");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("SIMTEST_SEED={seed}")),
        "failure must print a reproduction command: {msg}"
    );
    assert!(msg.contains("--meta-storm"), "missing mode flag: {msg}");
}

/// The storm sweep is bit-identical whether the seeds run serially or
/// fan out across `simfleet` worker threads: the attribute cache adds no
/// hidden cross-run state.
#[test]
fn meta_storm_sweep_is_bit_identical_across_job_counts() {
    let seeds: Vec<u64> = (0..6).collect();
    let sweep = |jobs| {
        let _guard = JOBS_LOCK.lock().unwrap();
        simfleet::set_jobs_override(Some(jobs));
        let out = simfleet::map_indexed(&seeds, |&seed| {
            let r = run_seed_checked(seed, &storm("")).unwrap_or_else(|e| panic!("{e}"));
            (
                r.fingerprint,
                r.ops,
                r.getattr_rpcs,
                r.attr_cache_hits,
                r.attr_stale_detected,
                r.sim_nanos,
            )
        });
        simfleet::set_jobs_override(None);
        out
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(
        serial, parallel,
        "meta-storm sweep diverged between jobs=1 and jobs=4"
    );
}
