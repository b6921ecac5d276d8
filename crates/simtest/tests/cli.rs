//! The command line: every `Axes` value renders to flags that parse back
//! to itself (so a printed reproduction command reproduces the run), and
//! bad input stops the binary with a message and exit status 2 instead
//! of silently running some default.

use std::process::{Command, Output};

use netsim::TransportKind;
use simtest::{Axes, Workload};

fn every_axes() -> Vec<Axes> {
    let mut all = Vec::new();
    for workload in [Workload::Read, Workload::WriteLoss, Workload::MetaStorm] {
        for clients in [1, 2, 7] {
            for transport in [None, Some(TransportKind::Tcp), Some(TransportKind::Udp)] {
                for bits in 0..8u8 {
                    all.push(Axes {
                        workload,
                        clients,
                        overlap: bits & 1 != 0,
                        disk_faults: bits & 2 != 0,
                        transport,
                        hist_oracle: bits & 4 != 0,
                    });
                }
            }
        }
    }
    all
}

#[test]
fn every_axes_round_trips_through_its_flags() {
    for axes in every_axes() {
        let flags = format!("--seed 9 {axes}");
        let args: Vec<&str> = flags.split(' ').collect();
        assert_eq!(
            Axes::from_args(&args),
            Ok((axes, vec![9])),
            "flags {flags:?} did not parse back"
        );
        assert_eq!(axes.to_string().parse(), Ok(axes));
    }
}

#[test]
fn seed_flags_select_the_seeds() {
    let parse = |s: &str| {
        let args: Vec<&str> = s.split_whitespace().collect();
        Axes::from_args(&args).map(|(_, seeds)| seeds)
    };
    assert_eq!(parse(""), Ok((0..16).collect()));
    assert_eq!(parse("--seeds 3 --start 10"), Ok(vec![10, 11, 12]));
    assert_eq!(parse("--seeds 3 --seed 5"), Ok(vec![5]));
    assert_eq!(parse("--clients 4 --clients 2").map(|s| s.len()), Ok(16));
}

fn simtest(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simtest"))
        .args(args)
        .env_remove("SIMTEST_SEED")
        .env_remove("NFS_CLUSTER_CLIENTS")
        .output()
        .expect("the simtest binary runs")
}

/// Runs the binary on bad input: it must exit 2 before sweeping anything
/// and say what was wrong.
fn assert_rejected(args: &[&str], says: &str) {
    let out = simtest(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not run any seed");
    assert!(stderr.contains(says), "{args:?}: {stderr}");
}

#[test]
fn unparsable_seed_is_rejected() {
    assert_rejected(&["--seed", "abc"], "--seed \"abc\"");
}

#[test]
fn non_numeric_client_count_is_rejected() {
    assert_rejected(&["--clients", "two"], "--clients \"two\"");
}

#[test]
fn zero_clients_are_rejected() {
    assert_rejected(&["--clients", "0"], "at least 1");
}

#[test]
fn unknown_transport_is_rejected() {
    assert_rejected(&["--transport", "bogus"], "expected tcp or udp");
}

#[test]
fn two_workloads_are_rejected() {
    assert_rejected(&["--write-loss", "--meta-storm"], "two workloads");
}

#[test]
fn unknown_flag_is_rejected() {
    assert_rejected(&["--disk-fault"], "unknown argument \"--disk-fault\"");
}

#[test]
fn missing_value_is_rejected() {
    assert_rejected(&["--seeds"], "--seeds needs a value");
}

#[test]
fn bad_seed_in_the_environment_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_simtest"))
        .env("SIMTEST_SEED", "abc")
        .env_remove("NFS_CLUSTER_CLIENTS")
        .output()
        .expect("the simtest binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed \"abc\""));
}

#[test]
fn good_flags_run_and_echo_the_axes() {
    let out = simtest(&["--seed", "0", "--clients", "2", "--overlap"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("swept 1 seed(s) [--clients 2 --overlap]: 0 failed"),
        "{stdout}"
    );
}
