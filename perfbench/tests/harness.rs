//! Self-tests of the workload loops: each reproduces the testbed
//! loop it mirrors, books every op exactly once, and is a pure
//! function of its seed.

use nfssim::WorldConfig;
use nfstrace::BuildSpec;
use perfbench::fleet::Fleet;
use perfbench::meta_walk::{self, MetaWalk};
use perfbench::read_evict::ReadEvict;
use perfbench::write_commit::WriteCommit;
use perfbench::{Outcome, Span, Tracer, Untraced, LAYER_COUNTS};
use simcore::SimDuration;
use testbed::{NfsBench, Rig};

fn small_walk() -> MetaWalk {
    MetaWalk {
        spec: BuildSpec {
            depth: 2,
            clients: 3,
            ..MetaWalk::default().spec
        },
    }
}

fn small_writes() -> WriteCommit {
    WriteCommit {
        writers: 2,
        file_mb: 1,
        ..WriteCommit::default()
    }
}

#[test]
fn read_evict_reproduces_nfs_bench_completion_times() {
    for seed in [1, 9] {
        let shape = ReadEvict {
            readers: 8,
            total_mb: 16,
        };
        let ours = shape.setup(seed, &mut Untraced).run(&mut Untraced);
        let theirs = NfsBench::new(Rig::ide(1), WorldConfig::default(), &[8], 16, seed).run(8);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&ours.finish_secs),
            bits(&theirs.completion_secs),
            "seed {seed}"
        );
        assert!(ours.check_failures.is_empty(), "{:?}", ours.check_failures);
        assert_eq!(ours.attempted, 16 * 1024 * 1024 / 8_192);
        assert_eq!(ours.failed, 0);
    }
}

#[test]
fn meta_walk_reproduces_testbed_replay() {
    let walk = small_walk();
    for seed in [2, 5] {
        let ours = walk.setup(seed, &mut Untraced).run(&mut Untraced);
        let trace = meta_walk::walk_trace(&walk.spec, seed);
        let theirs = testbed::replay(Rig::ide(1), meta_walk::config(), &trace, seed);
        assert_eq!(ours.attempted, theirs.ops, "seed {seed}");
        assert_eq!(
            ours.p50_ms.to_bits(),
            theirs.p50_ms.to_bits(),
            "seed {seed}"
        );
        assert_eq!(
            ours.elapsed_s.to_bits(),
            theirs.elapsed_secs.to_bits(),
            "seed {seed}"
        );
        assert!(ours.check_failures.is_empty(), "{:?}", ours.check_failures);
        let hits = layer(&ours, "nfssim.client.attr_cache_hits");
        assert!(
            hits > 0.0,
            "the armed attribute cache answers some getattrs"
        );
        assert_eq!(hits, theirs.attr_cache_hits as f64);
    }
}

#[test]
fn write_commit_samples_every_op_and_leaves_every_block_durable() {
    let out = small_writes().setup(3, &mut Untraced).run(&mut Untraced);
    assert!(out.check_failures.is_empty(), "{:?}", out.check_failures);
    assert_eq!(out.attempted, 2 * (128 + 1));
    assert_eq!(out.samples, out.attempted);
    assert_eq!(out.failed, 0);
    assert_eq!(layer(&out, "nfssim.client.commit_rpcs"), 2.0);
    // Durable latency spans the gather window, far above a local write.
    assert!(out.p50_ms > 30.0, "p50 {} ms", out.p50_ms);
}

#[test]
fn write_commit_pacing_is_what_keeps_latency_off_the_backlog() {
    let fast = WriteCommit {
        think: SimDuration::from_micros(15),
        ..small_writes()
    };
    let paced = small_writes().setup(4, &mut Untraced).run(&mut Untraced);
    let flooded = fast.setup(4, &mut Untraced).run(&mut Untraced);
    assert!(
        flooded.check_failures.is_empty(),
        "{:?}",
        flooded.check_failures
    );
    assert!(
        flooded.p50_ms > paced.p50_ms,
        "{} vs {}",
        flooded.p50_ms,
        paced.p50_ms
    );
}

#[test]
fn fleet_books_balance_on_a_small_fleet() {
    let mut prepared = Fleet { clients: 600 }.setup(7, &mut Untraced);
    let out = prepared.run(&mut Untraced);
    assert!(out.check_failures.is_empty(), "{:?}", out.check_failures);
    assert_eq!(out.attempted, 600 * 4);
    assert!(out.p999_ms >= out.p50_ms && out.p50_ms > 0.0);
    assert!(layer(&out, "simfleet.epochs") > 0.0);
}

#[test]
fn runs_are_pure_functions_of_the_seed() {
    let run = |seed| small_walk().setup(seed, &mut Untraced).run(&mut Untraced);
    let (a, b, c) = (run(11), run(11), run(12));
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.p999_ms.to_bits(), b.p999_ms.to_bits());
    assert_eq!(a.layers, b.layers);
    assert_ne!(a.fingerprint, c.fingerprint);
}

#[test]
fn tracing_changes_no_simulated_result() {
    let shape = ReadEvict {
        readers: 4,
        total_mb: 8,
    };
    let plain = shape.setup(6, &mut Untraced).run(&mut Untraced);
    let mut tracer = Tracer::default();
    let traced = shape.setup(6, &mut tracer).run(&mut tracer);
    assert_eq!(plain.fingerprint, traced.fingerprint);
    assert_eq!(plain.layers, traced.layers);
    assert_eq!(tracer.calls(Span::Issue), plain.attempted);
    assert_eq!(tracer.calls(Span::CreateFile), 4);
    assert!(tracer.calls(Span::Advance) > 0 && tracer.secs(Span::Advance) > 0.0);
}

#[test]
fn layer_counts_match_what_the_workloads_report() {
    let outs = [
        ReadEvict {
            readers: 2,
            total_mb: 2,
        }
        .setup(1, &mut Untraced)
        .run(&mut Untraced),
        small_writes().setup(1, &mut Untraced).run(&mut Untraced),
        small_walk().setup(1, &mut Untraced).run(&mut Untraced),
        Fleet { clients: 300 }
            .setup(1, &mut Untraced)
            .run(&mut Untraced),
    ];
    let reported: Vec<&str> = outs
        .iter()
        .flat_map(|o| o.layers.iter().map(|&(n, _)| n))
        .collect();
    for n in &reported {
        assert!(
            LAYER_COUNTS.iter().any(|(c, _)| c == n),
            "{n} missing from LAYER_COUNTS"
        );
    }
    for (n, _) in LAYER_COUNTS {
        assert!(reported.contains(&n), "no workload reports {n}");
    }
}

#[test]
fn benchmark_json_lists_every_per_layer_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let mut names: Vec<String> = LAYER_COUNTS.iter().map(|(n, _)| n.to_string()).collect();
    for s in Span::ALL {
        names.push(format!("{}_s", s.name()));
    }
    for s in [Span::Issue, Span::Advance, Span::NextEvent] {
        names.push(format!("{}_calls", s.name()));
    }
    names.push("nfssim.advance_ns_per_call".into());
    for t in [
        "untraced_host_ops_per_s",
        "traced_host_ops_per_s",
        "overhead_host_ops_per_s",
        "overhead_frac",
    ] {
        names.push(format!("tracing.{t}"));
    }
    for n in &names {
        assert!(json.contains(&format!("\"name\": \"{n}\"")), "{n} missing");
    }
    let listed = json.matches("\"name\": ").count();
    // Per-layer names, the end-to-end metrics and the workloads.
    assert_eq!(
        listed,
        names.len() + 6 + 4,
        "BENCHMARK.json lists other names"
    );
}

fn layer(o: &Outcome, name: &str) -> f64 {
    o.layers
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("no layer count {name}"))
}
