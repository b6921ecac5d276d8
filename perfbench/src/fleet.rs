//! `fleet_30k`: the sharded fleet at 30,000 clients on one shard.
//!
//! `FleetConfig::scale` gives ten groups, a seeded fail-slow disk on
//! every fourth, and load-shed migration between groups. The shard count
//! is pinned to one through `simfleet::set_shards_override`, so the run
//! stays on the benchmark's own thread whatever the environment says.

use nfscluster::{FleetConfig, FleetWorld};
use simcore::LogHist;

use crate::ledger::Outcome;
use crate::probe::{Probe, Span};

/// Shape of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    /// Fleet clients.
    pub clients: usize,
}

impl Default for Fleet {
    fn default() -> Self {
        Fleet { clients: 30_000 }
    }
}

/// A built fleet, ready to run.
pub struct Prepared {
    cfg: FleetConfig,
    world: Option<FleetWorld>,
}

impl Fleet {
    /// Builds every group's world and arrival schedule from `seed`.
    pub fn setup<P: Probe>(&self, seed: u64, p: &mut P) -> Prepared {
        simfleet::set_shards_override(Some(1));
        let cfg = FleetConfig::scale(self.clients);
        let world = p.span(Span::FleetNew, || FleetWorld::new(&cfg, seed));
        Prepared {
            cfg,
            world: Some(world),
        }
    }
}

impl Prepared {
    /// Runs the fleet to quiescence.
    ///
    /// # Panics
    ///
    /// Panics if called twice: a fleet run consumes the fleet.
    pub fn run<P: Probe>(&mut self, p: &mut P) -> Outcome {
        let world = self.world.take().expect("a fleet runs once");
        let r = p.span(Span::FleetRun, || world.run());
        let clients = self.cfg.clients as u64;
        let expected_ops = clients * u64::from(self.cfg.ops_per_client);
        let completed = r.hist.total();
        let ms = |q| hist_quantile_ns(&r.hist, q) / 1e6;
        let mut out = Outcome {
            attempted: r.ops_issued,
            failed: r.ops_issued - r.ops_ok.min(r.ops_issued),
            p50_ms: ms(0.5),
            p999_ms: ms(0.999),
            elapsed_s: r.sim_secs,
            fingerprint: r.fingerprint,
            ..Outcome::default()
        };
        out.check(r.shard_stats.completed, || "fleet did not quiesce".into());
        out.check(r.clients_done == clients, || {
            format!("{} of {clients} clients done", r.clients_done)
        });
        out.check(r.ops_issued == expected_ops, || {
            format!("{} ops issued, expected {expected_ops}", r.ops_issued)
        });
        out.check(
            completed == r.ops_ok + r.ops_eio && completed == r.ops_issued,
            || {
                format!(
                    "{completed} completions for {} issued ({} ok, {} eio)",
                    r.ops_issued, r.ops_ok, r.ops_eio
                )
            },
        );
        out.layers = vec![
            ("simfleet.epochs", r.shard_stats.epochs as f64),
            ("simfleet.messages", r.shard_stats.messages as f64),
            ("nfscluster.migrations", r.migrations as f64),
            ("nfscluster.shed_events", r.shed_events as f64),
            ("nfscluster.per_client_bytes", r.mem.per_client_bytes as f64),
        ];
        out
    }
}

/// The `q`-quantile of `h` in ns, interpolated linearly over the ranks
/// that share its bucket.
///
/// `LogHist::quantile` answers with the bucket's midpoint, so a median
/// that moves inside one bucket (1/64 of an octave) reads the same for
/// every seed. Probing `quantile` rank by rank recovers which ranks share
/// the bucket, and spreading them evenly over its width gives the value
/// a rank-interpolated order statistic would have.
pub fn hist_quantile_ns(h: &LogHist, q: f64) -> f64 {
    let n = h.total();
    if n < 2 {
        return h.quantile(q).unwrap_or(0) as f64;
    }
    let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let at = |r: u64| h.quantile((r as f64 + 0.5) / (n - 1) as f64).unwrap_or(0);
    let r = rank.floor() as u64;
    let mid = at(r);
    // First and last rank whose bucket midpoint is `mid`.
    let (mut lo, mut hi) = (0, r);
    while lo < hi {
        let m = lo + (hi - lo) / 2;
        if at(m) == mid {
            hi = m;
        } else {
            lo = m + 1;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (r, n - 1);
    while lo < hi {
        let m = hi - (hi - lo) / 2;
        if at(m) == mid {
            lo = m;
        } else {
            hi = m - 1;
        }
    }
    let last = lo;
    // Buckets below 64 ns are 1 ns wide; above, 64 per octave.
    let width = if mid < 64 {
        1
    } else {
        1u64 << (63 - mid.leading_zeros() - 6)
    };
    let bucket_lo = mid - width / 2;
    let share = (rank - first as f64 + 0.5) / (last - first + 1) as f64;
    bucket_lo as f64 + width as f64 * share
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_tracks_the_exact_order_statistic() {
        let mut h = LogHist::new();
        let xs: Vec<u64> = (0..10_000u64).map(|i| 200_000 + i * 7).collect();
        for &x in &xs {
            h.add(x);
        }
        for q in [0.1, 0.5, 0.9, 0.999] {
            let exact = xs[(q * (xs.len() - 1) as f64).floor() as usize] as f64;
            let got = hist_quantile_ns(&h, q);
            assert!(
                (got - exact).abs() / exact < 0.002,
                "q={q}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn interpolated_quantile_moves_within_a_bucket() {
        // Same median bucket, but `b` has a tenth of its mass below it.
        let (mut a, mut b) = (LogHist::new(), LogHist::new());
        for i in 0..1_000u64 {
            a.add(250_000 + i);
            b.add(if i < 100 { 150_000 } else { 250_000 + i });
        }
        assert_eq!(a.quantile(0.5), b.quantile(0.5), "one bucket");
        assert_ne!(hist_quantile_ns(&a, 0.5), hist_quantile_ns(&b, 0.5));
    }
}
