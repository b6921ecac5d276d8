//! End-to-end and per-layer benchmark of the NFS simulator.
//!
//! Four seeded workloads, each loading a different layer of the stack:
//!
//! | workload       | loads                                         |
//! |----------------|-----------------------------------------------|
//! | `read_evict`   | `ffs` buffer-cache eviction, disk reads       |
//! | `write_commit` | `nfssim` write-behind + gathering, disk writes |
//! | `meta_walk`    | event loop, RPC path, attribute cache         |
//! | `fleet_30k`    | `simfleet` + `nfscluster` at 30k clients       |
//!
//! A workload calls only the simulator's public API, in two phases: set-up
//! (rig, format, world, files, op schedule) and the run (first issue to
//! last completion). Both are generic over [`Probe`], so the same code
//! serves the untraced end-to-end run and the traced per-layer run.

pub mod fleet;
pub mod ledger;
pub mod meta_walk;
pub mod probe;
pub mod read_evict;
pub mod write_commit;

pub use ledger::Outcome;
pub use probe::{Probe, Span, Tracer, Untraced};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// See [`read_evict`].
    ReadEvict,
    /// See [`write_commit`].
    WriteCommit,
    /// See [`meta_walk`].
    MetaWalk,
    /// See [`fleet`].
    Fleet30k,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::ReadEvict,
        Workload::WriteCommit,
        Workload::MetaWalk,
        Workload::Fleet30k,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadEvict => "read_evict",
            Workload::WriteCommit => "write_commit",
            Workload::MetaWalk => "meta_walk",
            Workload::Fleet30k => "fleet_30k",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seeds one run measures, each a full instance of the fixed work:
    /// about 20 s of host time on a 2-core x86-64 host. Simulated results
    /// are reported over these seeds, so no single seed sets them.
    pub fn seeds_per_run(self) -> usize {
        match self {
            Workload::ReadEvict => 7,
            Workload::WriteCommit | Workload::MetaWalk => 15,
            Workload::Fleet30k => 13,
        }
    }

    /// The `k`-th seed of a run started with `seed`.
    pub fn sub_seed(seed: u64, k: usize) -> u64 {
        seed.wrapping_mul(16).wrapping_add(k as u64)
    }

    /// Set-up: everything before the first op is issued.
    pub fn setup<P: Probe>(self, seed: u64, p: &mut P) -> Prepared {
        match self {
            Workload::ReadEvict => {
                Prepared::ReadEvict(read_evict::ReadEvict::default().setup(seed, p))
            }
            Workload::WriteCommit => {
                Prepared::WriteCommit(write_commit::WriteCommit::default().setup(seed, p))
            }
            Workload::MetaWalk => Prepared::MetaWalk(meta_walk::MetaWalk::default().setup(seed, p)),
            Workload::Fleet30k => Prepared::Fleet(fleet::Fleet::default().setup(seed, p)),
        }
    }
}

/// A workload after set-up, ready to issue its first op.
pub enum Prepared {
    /// See [`read_evict`].
    ReadEvict(read_evict::Prepared),
    /// See [`write_commit`].
    WriteCommit(write_commit::Prepared),
    /// See [`meta_walk`].
    MetaWalk(meta_walk::Prepared),
    /// See [`fleet`].
    Fleet(fleet::Prepared),
}

impl Prepared {
    /// Runs the fixed work from the first issue to the last completion.
    pub fn run<P: Probe>(&mut self, p: &mut P) -> Outcome {
        match self {
            Prepared::ReadEvict(s) => s.run(p),
            Prepared::WriteCommit(s) => s.run(p),
            Prepared::MetaWalk(s) => s.run(p),
            Prepared::Fleet(s) => s.run(p),
        }
    }
}

/// Whether a per-layer value is an estimate that may differ between
/// runs of one seed: the fleet's bytes per client are summed from
/// hash-map capacities, which depend on the process's random hash keys.
pub fn is_estimate(name: &str) -> bool {
    name == "nfscluster.per_client_bytes"
}

/// Every per-layer count a traced run reports, with its unit: the
/// counters of [`ledger::world_layers`] and [`fleet`]. A workload that
/// does not reach a layer, or whose layer keeps its counters private
/// (the fleet's group worlds), reports 0 for it.
pub const LAYER_COUNTS: [(&str, &str); 47] = [
    ("nfssim.client.rpcs", "count"),
    ("nfssim.client.retransmits", "count"),
    ("nfssim.client.cache_hits", "count"),
    ("nfssim.client.readahead_rpcs", "count"),
    ("nfssim.client.iod_starved", "count"),
    ("nfssim.client.write_rpcs", "count"),
    ("nfssim.client.commit_rpcs", "count"),
    ("nfssim.client.getattr_rpcs", "count"),
    ("nfssim.client.lookup_rpcs", "count"),
    ("nfssim.client.readdir_rpcs", "count"),
    ("nfssim.client.attr_cache_hits", "count"),
    ("nfssim.client.attr_cache_misses", "count"),
    ("nfssim.client.attr_revalidations", "count"),
    ("nfssim.server.reads", "count"),
    ("nfssim.server.other_calls", "count"),
    ("nfssim.server.replies", "count"),
    ("nfssim.server.duplicates_dropped", "count"),
    ("nfssim.server.unstable_writes", "count"),
    ("nfssim.server.commits", "count"),
    ("nfssim.server.gather_flushes", "count"),
    ("nfssim.server.dirty_blocks_flushed", "count"),
    ("readahead-core.heur_hits", "count"),
    ("readahead-core.heur_misses", "count"),
    ("readahead-core.heur_ejections", "count"),
    ("ffs.sync_reads", "count"),
    ("ffs.readahead_reads", "count"),
    ("ffs.cache_hit_blocks", "count"),
    ("ffs.miss_blocks", "count"),
    ("ffs.writes", "count"),
    ("ffs.hit_ratio", "ratio"),
    ("diskmodel.reads", "count"),
    ("diskmodel.writes", "count"),
    ("diskmodel.media_reads", "count"),
    ("diskmodel.cache_hits", "count"),
    ("diskmodel.seeks", "count"),
    ("diskmodel.busy_s", "s"),
    ("diskmodel.seek_s", "s"),
    ("diskmodel.rotation_s", "s"),
    ("diskmodel.transfer_s", "s"),
    ("netsim.c2s_bytes", "bytes"),
    ("netsim.s2c_bytes", "bytes"),
    ("netsim.lost", "count"),
    ("simfleet.epochs", "count"),
    ("simfleet.messages", "count"),
    ("nfscluster.migrations", "count"),
    ("nfscluster.shed_events", "count"),
    ("nfscluster.per_client_bytes", "bytes"),
];
