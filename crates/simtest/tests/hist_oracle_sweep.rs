//! The latency-histogram oracle (`--hist-oracle`) holds across a small
//! fault sweep: the streaming `LogHist` the tail-latency instrumentation
//! is built on reconciles with exact order statistics on every seed, the
//! reported tail quantiles are sane, and turning the oracle on does not
//! move the world's fingerprint (observation is passive).

use simtest::{run_seed_checked, Axes};

const CI_SEEDS: u64 = 8;

#[test]
fn hist_oracle_holds_under_disk_faults() {
    for seed in 0..CI_SEEDS {
        let axes = "--disk-faults --hist-oracle".parse().unwrap();
        let r = run_seed_checked(seed, &axes).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            r.lat_p99_ns > 0,
            "seed {seed}: a faulted run must have nonzero p99"
        );
        assert!(
            r.lat_p99_ns <= r.lat_p999_ns,
            "seed {seed}: quantiles must be monotone in the report"
        );
        assert!(
            r.lat_p999_ns <= r.sim_nanos,
            "seed {seed}: no op outlasts the run"
        );
    }
}

#[test]
fn hist_collection_is_passive() {
    for seed in [0u64, 5] {
        let off = run_seed_checked(seed, &Axes::DEFAULT).unwrap_or_else(|e| panic!("{e}"));
        let on = run_seed_checked(seed, &"--hist-oracle".parse().unwrap())
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            off.fingerprint, on.fingerprint,
            "seed {seed}: observing latencies must not perturb the world"
        );
    }
}
