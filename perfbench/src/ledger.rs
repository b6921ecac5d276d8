//! Op books and the result of one run of a workload.
//!
//! The [`Ledger`] checks that every op a workload issues completes exactly
//! once, counts failures, collects per-op simulated latency, and folds
//! completions in order into a fingerprint, so two runs that only differ
//! in host speed can be compared bit for bit.

use nfssim::{NfsWorld, OpDone, OpId, OpOutcome};
use simcore::{SimDuration, SimTime};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a fold of one 64-bit word.
fn fnv(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `q`-quantile of an ascending slice, interpolated between order
/// statistics (the rule `simcore::quantile` uses).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// What one run of a workload produced: a pure function of the workload
/// and its seed, except the estimates `crate::is_estimate` names.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops issued.
    pub attempted: u64,
    /// Ops that ended in `Eio`, `RpcTimedOut`, or never completed.
    pub failed: u64,
    /// Latency samples taken.
    pub samples: u64,
    /// Median simulated per-op latency, ms.
    pub p50_ms: f64,
    /// 99.9th-percentile simulated per-op latency, ms.
    pub p999_ms: f64,
    /// Simulated seconds from the first issue to the last completion.
    pub elapsed_s: f64,
    /// Completion-order fingerprint.
    pub fingerprint: u64,
    /// Per-process finish times in simulated seconds, ascending (closed
    /// loops only).
    pub finish_secs: Vec<f64>,
    /// Failed correctness checks; empty when the run is correct.
    pub check_failures: Vec<String>,
    /// Per-layer counters read from public stats after the run.
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// Books for the ops of one run.
#[derive(Debug)]
pub struct Ledger {
    start: SimTime,
    /// Per op id: 0 never issued, 1 in flight, 2 completed.
    state: Vec<u8>,
    issued: u64,
    completed: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    last_done: SimTime,
    fingerprint: u64,
    errors: Vec<String>,
}

impl Ledger {
    /// Empty books for a run whose first op issues at `start`.
    pub fn new(start: SimTime, expected_ops: usize) -> Self {
        Ledger {
            start,
            state: Vec::with_capacity(expected_ops),
            issued: 0,
            completed: 0,
            failed: 0,
            latencies_ms: Vec::with_capacity(expected_ops),
            last_done: start,
            fingerprint: FNV_OFFSET,
            errors: Vec::new(),
        }
    }

    /// Moves op `id` to `state`, returning the state it was in.
    fn mark(&mut self, id: OpId, state: u8) -> u8 {
        let i = usize::try_from(id.0).expect("op ids fit in usize");
        if i >= self.state.len() {
            self.state.resize(i + 1, 0);
        }
        std::mem::replace(&mut self.state[i], state)
    }

    /// Books an op the world just accepted.
    pub fn issue(&mut self, id: OpId) {
        self.issued += 1;
        if self.mark(id, 1) != 0 {
            self.errors.push(format!("op {} issued twice", id.0));
        }
    }

    /// Books a completion and samples its latency; returns whether the
    /// op succeeded.
    pub fn complete(&mut self, d: &OpDone) -> bool {
        self.sample(d.done_at.since(d.issued_at));
        self.complete_unsampled(d)
    }

    /// Adds one latency sample.
    pub fn sample(&mut self, latency: SimDuration) {
        self.latencies_ms.push(latency.as_millis_f64());
    }

    /// Books a completion whose latency the caller samples itself;
    /// returns whether the op succeeded.
    pub fn complete_unsampled(&mut self, d: &OpDone) -> bool {
        match self.mark(d.id, 2) {
            1 => {}
            0 => self
                .errors
                .push(format!("op {} completed, never issued", d.id.0)),
            _ => self.errors.push(format!("op {} completed twice", d.id.0)),
        }
        self.completed += 1;
        let code = match d.outcome {
            OpOutcome::Ok => 0,
            OpOutcome::RpcTimedOut { .. } => 1,
            OpOutcome::Eio { .. } => 2,
        };
        if code != 0 {
            self.failed += 1;
        }
        self.last_done = self.last_done.max(d.done_at);
        for v in [d.id.0, d.tag, d.done_at.as_nanos(), code] {
            self.fingerprint = fnv(self.fingerprint, v);
        }
        code == 0
    }

    /// Ops issued and not yet completed.
    pub fn outstanding(&self) -> u64 {
        self.issued.saturating_sub(self.completed)
    }

    /// Closes the books: every issued op must have completed once.
    pub fn finish(mut self) -> Outcome {
        let never = self.issued.saturating_sub(self.completed);
        if never > 0 {
            self.errors.push(format!("{never} ops never completed"));
        }
        self.latencies_ms.sort_by(f64::total_cmp);
        Outcome {
            attempted: self.issued,
            samples: self.latencies_ms.len() as u64,
            failed: self.failed + never,
            p50_ms: quantile_sorted(&self.latencies_ms, 0.5),
            p999_ms: quantile_sorted(&self.latencies_ms, 0.999),
            elapsed_s: self.last_done.saturating_since(self.start).as_secs_f64(),
            fingerprint: self.fingerprint,
            finish_secs: Vec::new(),
            check_failures: self.errors,
            layers: Vec::new(),
        }
    }
}

/// The per-layer counters of a single-server world, read from its
/// public stats: client, server, `nfsheur`, file system, drive, and
/// both link directions.
pub fn world_layers(w: &NfsWorld) -> Vec<(&'static str, f64)> {
    let c = w.client_stats();
    let s = w.server_stats();
    let f = w.fs().stats();
    let d = w.disk_stats();
    let (c2s, s2c) = (w.c2s_stats(), w.s2c_stats());
    let blocks = f.cache_hit_blocks + f.miss_blocks;
    let hit_ratio = if blocks == 0 {
        0.0
    } else {
        f.cache_hit_blocks as f64 / blocks as f64
    };
    vec![
        ("nfssim.client.rpcs", c.rpcs as f64),
        ("nfssim.client.retransmits", c.retransmits as f64),
        ("nfssim.client.cache_hits", c.cache_hits as f64),
        ("nfssim.client.readahead_rpcs", c.readahead_rpcs as f64),
        ("nfssim.client.iod_starved", c.iod_starved as f64),
        ("nfssim.client.write_rpcs", c.write_rpcs as f64),
        ("nfssim.client.commit_rpcs", c.commit_rpcs as f64),
        ("nfssim.client.getattr_rpcs", c.getattr_rpcs as f64),
        ("nfssim.client.lookup_rpcs", c.lookup_rpcs as f64),
        ("nfssim.client.readdir_rpcs", c.readdir_rpcs as f64),
        ("nfssim.client.attr_cache_hits", c.attr_cache_hits as f64),
        (
            "nfssim.client.attr_cache_misses",
            c.attr_cache_misses as f64,
        ),
        (
            "nfssim.client.attr_revalidations",
            c.attr_revalidations as f64,
        ),
        ("nfssim.server.reads", s.reads as f64),
        ("nfssim.server.other_calls", s.other_calls as f64),
        ("nfssim.server.replies", s.replies as f64),
        (
            "nfssim.server.duplicates_dropped",
            s.duplicates_dropped as f64,
        ),
        ("nfssim.server.unstable_writes", s.unstable_writes as f64),
        ("nfssim.server.commits", s.commits as f64),
        ("nfssim.server.gather_flushes", s.gather_flushes as f64),
        (
            "nfssim.server.dirty_blocks_flushed",
            s.dirty_blocks_flushed as f64,
        ),
        ("readahead-core.heur_hits", s.heur_hits as f64),
        ("readahead-core.heur_misses", s.heur_misses as f64),
        ("readahead-core.heur_ejections", s.heur_ejections as f64),
        ("ffs.sync_reads", f.sync_reads as f64),
        ("ffs.readahead_reads", f.readahead_reads as f64),
        ("ffs.cache_hit_blocks", f.cache_hit_blocks as f64),
        ("ffs.miss_blocks", f.miss_blocks as f64),
        ("ffs.writes", f.writes as f64),
        ("ffs.hit_ratio", hit_ratio),
        ("diskmodel.reads", d.reads as f64),
        ("diskmodel.writes", d.writes as f64),
        ("diskmodel.media_reads", d.media_reads as f64),
        ("diskmodel.cache_hits", d.cache_hits as f64),
        ("diskmodel.seeks", d.seeks as f64),
        ("diskmodel.busy_s", d.busy.as_secs_f64()),
        ("diskmodel.seek_s", d.breakdown.seek.as_secs_f64()),
        ("diskmodel.rotation_s", d.breakdown.rotation.as_secs_f64()),
        ("diskmodel.transfer_s", d.breakdown.transfer.as_secs_f64()),
        ("netsim.c2s_bytes", c2s.bytes_delivered as f64),
        ("netsim.s2c_bytes", s2c.bytes_delivered as f64),
        ("netsim.lost", (c2s.lost + s2c.lost) as f64),
    ]
}
