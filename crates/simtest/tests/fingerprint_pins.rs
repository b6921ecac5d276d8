//! Pinned fingerprints: the cluster refactor of `NfsWorld` (client/server
//! host split, per-client RNG streams, key-encoded events) must not move
//! a single bit of the classic single-client world. These constants were
//! captured from the pre-refactor engine; if one changes, the 1-client
//! fast path stopped being the old world.

use simtest::{run_seed_checked, Axes};
use testbed::experiments::{fig6_readahead_potential, Scale};

/// FNV-1a of the figure's Debug rendering (f64 Debug round-trips exactly,
/// so equal hashes mean equal bits in every mean and stddev).
fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FIG6_QUICK_SEED7: u64 = 0x7f63_4807_1959_5f6f;

// All eight re-pinned when `NfsReply::Write`'s wire size stopped eliding
// the verifier (8 -> 20 bytes, the codec-honesty fix): every workload
// writes, so every reply's s2c transmit time shifted. The jobs=1 / jobs=4
// and shards=1 / shards=N identities held across the change.
const SWEEP_FPS: [u64; 8] = [
    0x9389_3efa_26a3_993a,
    0xb8c7_9852_25b0_0f55,
    0x06d7_2d90_8252_7b20,
    0xd36b_ac6b_638c_d604,
    0x27e1_120d_afdb_c27a,
    0x0064_87db_f131_6a92,
    0x02c2_be0f_7bce_7f46,
    0xe48b_576c_c121_3207,
];

#[test]
fn figure6_bits_are_pinned_at_both_job_widths() {
    for jobs in [1usize, 4] {
        simfleet::set_jobs_override(Some(jobs));
        let fig = format!("{:?}", fig6_readahead_potential(Scale::quick(), 7));
        simfleet::set_jobs_override(None);
        assert_eq!(
            fnv(&fig),
            FIG6_QUICK_SEED7,
            "figure 6 (quick, seed 7) bits moved at jobs={jobs}"
        );
    }
}

#[test]
fn simtest_fingerprints_are_pinned_at_both_job_widths() {
    for jobs in [1usize, 4] {
        simfleet::set_jobs_override(Some(jobs));
        let fps: Vec<u64> = (0..8u64)
            .map(|s| {
                run_seed_checked(s, &Axes::DEFAULT)
                    .unwrap_or_else(|e| panic!("{e}"))
                    .fingerprint
            })
            .collect();
        simfleet::set_jobs_override(None);
        assert_eq!(fps, SWEEP_FPS, "sweep fingerprints moved at jobs={jobs}");
    }
}

/// Every non-default mode, keyed by the flags that select it, pinned for
/// seeds 0..5 (captured before the harness was rebuilt around `Axes`).
/// The jobs=1 ≡ jobs=4 suites alone would miss a change that shifts one
/// RNG draw in one workload arm.
#[rustfmt::skip]
const MODE_PINS: [(&str, [u64; 5]); 9] = [
    ("--write-loss", [0xe861aff48e2fb762, 0x0a78109935f95b8d, 0xa3157431d31d490d, 0x25671b5262b3deb3, 0x1d58b000ae0e6879]),
    ("--meta-storm", [0x18ca719e9b2a654b, 0x998d40ff3b3baeae, 0x4060ba72d7e6eea7, 0x08e99b53c45b625b, 0x027dd693b3acff0c]),
    ("--disk-faults", DISK_FPS),
    ("--transport tcp", [0xe25787ee9fbc3140, 0x171a9c6c3ccdae6d, 0x53cfdd64f0e890af, 0xa972dc25fb674d11, 0x9bebcedc9dd17d2c]),
    ("--clients 2 --overlap", [0xa0f9438ed579550e, 0xc6c0bb988c8011bc, 0xb6d044d4cd3a81a3, 0x6ea0e2b3e740d248, 0xd5ba2dc0b6b2f4a0]),
    ("--clients 2 --overlap --disk-faults", [0x8b2f6057dea38f34, 0xb808e4890baecabe, 0xd9144d9f32b8612f, 0x094af871c9e93ffe, 0x9b13e81513257a4c]),
    ("--clients 2 --overlap --write-loss", [0x5d71b19110be9443, 0x0d97239078ed4a5a, 0xadbb06c7b47e0bc5, 0xd9897fd53903ca54, 0x056dcbd9e649b89d]),
    ("--clients 2 --meta-storm --disk-faults", [0x9c737cd278ebc498, 0xa03c5459d985dba9, 0xb33502d0d015c791, 0xd3edfb35cef0c848, 0xbe9600c80023d642]),
    ("--disk-faults --hist-oracle", DISK_FPS),
];

/// Disk-fault fingerprints; turning the latency-histogram oracle on must
/// not move them (observation is passive).
const DISK_FPS: [u64; 5] = [
    0x6a07_5fbc_4d2a_b7d7,
    0xec08_92f1_8a31_0197,
    0xbc99_94c1_5cb2_64b8,
    0x76b0_9649_fe6f_5c56,
    0x200d_8345_031a_0463,
];

/// `(lat_p99_ns, lat_p999_ns)` under `--disk-faults --hist-oracle`,
/// seeds 0..5.
const DISK_HIST_TAILS: [(u64, u64); 5] = [
    (202_937_204_736, 202_937_204_736),
    (202_937_204_736, 202_937_204_736),
    (202_937_204_736, 202_937_204_736),
    (543_313_362_944, 547_608_330_240),
    (202_937_204_736, 202_937_204_736),
];

fn axes(flags: &str) -> Axes {
    flags.parse().expect("pinned flags parse")
}

#[test]
fn every_mode_fingerprint_is_pinned() {
    for (flags, want) in MODE_PINS {
        let got: Vec<u64> = (0..5u64)
            .map(|s| {
                run_seed_checked(s, &axes(flags))
                    .unwrap_or_else(|e| panic!("{e}"))
                    .fingerprint
            })
            .collect();
        assert_eq!(got, want, "{flags} fingerprints moved");
    }
}

#[test]
fn hist_oracle_tail_latencies_are_pinned() {
    let got: Vec<(u64, u64)> = (0..5u64)
        .map(|s| {
            let r = run_seed_checked(s, &axes("--disk-faults --hist-oracle"))
                .unwrap_or_else(|e| panic!("{e}"));
            (r.lat_p99_ns, r.lat_p999_ns)
        })
        .collect();
    assert_eq!(got, DISK_HIST_TAILS, "hist-oracle tail latencies moved");
}
