//! Deterministic fault-injection simulation tests for the NFS world.
//!
//! FoundationDB-style simulation testing: a single `u64` seed generates a
//! randomized multi-process workload over [`NfsWorld`], injects faults
//! mid-run — frame-loss bursts, link degradation, server stalls,
//! `nfsd`/`nfsiod` pool resizing, total zero-`nfsd` outages, forced cache
//! flushes, and (with `--disk-faults`) server disk faults: latent sector
//! errors, a stuck TCQ tag, firmware stall windows, fail-slow regions —
//! and checks invariant *oracles* as it goes.
//!
//! A run is fully described by its seed and one [`Axes`] value:
//!
//! - [`Workload`]: `Read` (readers, writers, getattr pollers over FILE_SYNC),
//!   `WriteLoss` (UNSTABLE writes with interleaved closes; every
//!   `nfsd`-outage batch becomes a mid-gather server crash that loses the
//!   dirty pool and changes the write verifier), or `MetaStorm` (GETATTR
//!   polls, open()-style revalidations, LOOKUP/READDIR traffic, with the
//!   client attribute cache armed at `acregmin=3,acregmax=60`);
//! - `clients`: client hosts sharing the one server; the conservation
//!   oracles reconcile the *summed* per-host books against the server's;
//! - `overlap`: faults land in pairs that stay active together;
//! - `disk_faults`: the four disk kinds join the schedule, which grows
//!   from [`DEFAULT_BATCHES`] to [`DISK_BATCHES`] batches;
//! - `transport`: forced TCP or UDP instead of the seed's draw (forced TCP
//!   adds a total-blackout fault on one client's links);
//! - `hist_oracle`: collect every latency into a [`LogHist`] and an exact
//!   list, and check one against the other at the end of the run.
//!
//! Each entry of [`ORACLES`] checks one invariant, once per event, at
//! every batch boundary, or at the end of the run:
//!
//! | oracle | scope | axes it runs on |
//! |---|---|---|
//! | `bounded-progress` | event | all: the run stays within its event budget |
//! | `monotone-time` | event | all: time never runs backwards; no op completes before its issue |
//! | `op-accounting` | event | all: every op completes once, was issued, and keeps its tag |
//! | `no-committed-loss` | event | `WriteLoss`: a close that returned `Ok` left its blocks on stable storage |
//! | `restore-composition` | batch | all: after a revert, every host's link, both pools and the drive are at baseline |
//! | `no-stuck-ops` | batch | all: quiescence leaves no op or RPC outstanding |
//! | `dirty-books` | batch | all: stashed = flushed + lost + pooled dirty blocks |
//! | `restore-baseline` | batch | all: a drive without a fault model produces no error completions |
//! | `write-behind-drained` | end | `WriteLoss`: no uncommitted block once every file is closed |
//! | `block-conservation` | end | all: READ RPCs = predicted demand misses + read-aheads |
//! | `rpc-conservation` | end | all: calls delivered = server arrivals (UDP: transmissions = link messages) |
//! | `reply-conservation` | end | all: replies delivered = client arrivals (UDP: replies = link messages) |
//! | `server-conservation` | end | all: replies + stale drops = calls accepted |
//! | `contention-attribution` | end | all: per-client ejections, duplicates and EIOs sum to the server's |
//! | `disk-books` | end | all: errors = retries + EIOs; EIOs = hard + exhausted; none without `disk_faults` |
//! | `bounded-retries` | end | all: no request exceeds the bio retry cap |
//! | `tcp-books` | end | TCP runs: sent = acked + in flight + lost; delivered = link survivors |
//! | `tcp-order` | end | TCP runs: no in-order delivery violation |
//! | `crash-detection` | end | all: a verifier mismatch needs a restart; a rewrite needs a mismatch |
//! | `async-dormancy` | end | `Read`, `MetaStorm`: the async write path never wakes |
//! | `attrcache-books` | end | `MetaStorm`: hits + wire GETATTRs = getattr-class ops; wire = misses + revalidations |
//! | `attrcache-dormancy` | end | `Read`, `WriteLoss`: the disarmed cache has zero counters and entries |
//! | `latency-histogram` | end | `hist_oracle`: streaming p50..p99.9 agree with the exact order statistics |
//! | `determinism` | two runs | all, via [`run_seed_checked`]: the same seed gives the same report |
//!
//! Every failure carries a one-line reproduction command built from the
//! run's [`Axes`], e.g. `SIMTEST_SEED=17 cargo run -p simtest -- --seed 17
//! --clients 2 --overlap`; [`Axes::from_args`] parses those flags back.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

use diskfault::{FaultPlan, FaultState};
use netsim::{LinkProfile, LinkStats, TransportKind};
use nfsproto::{FileHandle, StableHow};
use nfssim::{
    BlockState, ClientHostConfig, ClientStats, NfsWorld, OpDone, OpId, OpOutcome, ServerStats,
    WorldConfig,
};
use simcore::{LogHist, SimDuration, SimRng, SimTime};
use testbed::Rig;

/// Batches per run without disk faults: seven fault batches (one per
/// [`FaultKind`], shuffled by seed) interleaved with clean batches, plus a
/// clean tail to observe recovery.
pub const DEFAULT_BATCHES: usize = 16;

/// Batches per run when disk faults join the schedule: eleven fault
/// batches (seven classic kinds + four disk kinds) interleaved with clean
/// batches, plus a clean tail.
pub const DISK_BATCHES: usize = 24;

/// Event budget per run; exhausting it fails the bounded-progress oracle.
const STEP_BUDGET: u64 = 5_000_000;

/// Seeds a command line without `--seed`/`--seeds` sweeps.
const DEFAULT_SEEDS: u64 = 16;

const FILES: usize = 3;
const FILE_BLOCKS: u64 = 64;
const BS: u64 = 8_192;

/// One kind of mid-run fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Frame loss jumps (to a total blackout on UDP half the time:
    /// exercises retransmission and the typed RPC-timeout path).
    LossBurst,
    /// Bandwidth collapses and latency/jitter balloon (congested path).
    LinkDegrade,
    /// The server CPU freezes for a while (GC pause / competing job —
    /// the §9.2 "quiet workload" trap).
    ServerStall,
    /// The `nfsd` pool shrinks to one or two daemons.
    NfsdResize,
    /// The `nfsd` pool drops to zero: a total server outage. Calls queue
    /// and nothing is served until the pool is restored (UDP clients
    /// retransmit into the void and time out; TCP clients wait it out).
    NfsdOutage,
    /// The client `nfsiod` pool shrinks (possibly to zero: read-ahead
    /// disabled).
    NfsiodResize,
    /// Every data cache is dropped mid-run (§4.3.1 flush discipline).
    CacheFlush,
    /// Latent sector errors appear under live server data: transient
    /// clusters cost bounded bio retries, hard clusters surface one `EIO`
    /// and are remapped to spares.
    SectorErrors,
    /// One TCQ tag on the server's drive goes bad: every Nth command
    /// stalls for tens of milliseconds.
    StuckTag,
    /// Drive firmware stalls (GC / thermal recal): commands starting
    /// inside a window are held until it closes.
    FirmwareStall,
    /// A fail-slow region: transfers touching it pay a per-sector penalty
    /// but still succeed — the degraded-but-not-dead drive.
    FailSlow,
    /// A `frame_loss = 1.0` blackout window on one (seed-chosen) client's
    /// links. Scheduled only by forced-TCP plans: the point is the TCP
    /// segment engine's RTO ladder — segments back off through the
    /// window, abort after the retry budget (typed `RpcTimedOut`), and
    /// anything still queued recovers at restore. The UDP equivalent is
    /// [`FaultKind::LossBurst`]'s blackout half.
    TcpBlackout,
}

impl FaultKind {
    /// The classic (non-disk) fault kinds, in declaration order. The
    /// pinned fingerprints shuffle exactly this array, so disk kinds live
    /// in [`FaultKind::DISK`] and only join the schedule on request.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::LossBurst,
        FaultKind::LinkDegrade,
        FaultKind::ServerStall,
        FaultKind::NfsdResize,
        FaultKind::NfsdOutage,
        FaultKind::NfsiodResize,
        FaultKind::CacheFlush,
    ];

    /// The disk fault kinds (scheduled only with `--disk-faults`).
    pub const DISK: [FaultKind; 4] = [
        FaultKind::SectorErrors,
        FaultKind::StuckTag,
        FaultKind::FirmwareStall,
        FaultKind::FailSlow,
    ];

    /// Short kebab-case name for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::LossBurst => "loss-burst",
            FaultKind::LinkDegrade => "link-degrade",
            FaultKind::ServerStall => "server-stall",
            FaultKind::NfsdResize => "nfsd-resize",
            FaultKind::NfsdOutage => "nfsd-outage",
            FaultKind::NfsiodResize => "nfsiod-resize",
            FaultKind::CacheFlush => "cache-flush",
            FaultKind::SectorErrors => "sector-errors",
            FaultKind::StuckTag => "stuck-tag",
            FaultKind::FirmwareStall => "firmware-stall",
            FaultKind::FailSlow => "fail-slow",
            FaultKind::TcpBlackout => "tcp-blackout",
        }
    }
}

/// The operation mix a run drives. Exactly one per run: each adds draws
/// to the workload stream, so the three never mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Reads (mostly sequential per-file cursors), single-block writes and
    /// getattr pollers over a FILE_SYNC mount.
    Read,
    /// UNSTABLE writes with interleaved closes; every `nfsd`-outage batch
    /// becomes a mid-gather server crash.
    WriteLoss,
    /// GETATTR/LOOKUP/READDIR-heavy, with the attribute cache armed.
    MetaStorm,
}

/// Every setting a run takes besides its seed. Its [`fmt::Display`] form
/// is the command-line flags that reproduce it, and [`Axes::from_args`]
/// parses them back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Axes {
    /// The operation mix.
    pub workload: Workload,
    /// Client hosts sharing the server (1 = the classic world).
    pub clients: usize,
    /// Pack faults into pairs that are active together.
    pub overlap: bool,
    /// Shuffle the [`FaultKind::DISK`] kinds into the schedule (the run
    /// lengthens to [`DISK_BATCHES`]).
    pub disk_faults: bool,
    /// Force the transport instead of drawing it from the seed.
    pub transport: Option<TransportKind>,
    /// Record every latency and run the latency-histogram oracle.
    pub hist_oracle: bool,
}

impl Axes {
    /// The classic run: the read workload on one client, one fault per
    /// fault batch, no disk faults, a seed-drawn transport.
    pub const DEFAULT: Axes = Axes {
        workload: Workload::Read,
        clients: 1,
        overlap: false,
        disk_faults: false,
        transport: None,
        hist_oracle: false,
    };

    /// Event batches per run: every scheduled fault kind lands.
    fn batches(&self) -> usize {
        if self.disk_faults {
            DISK_BATCHES
        } else {
            DEFAULT_BATCHES
        }
    }

    /// Parses a `simtest` command line (program name excluded) into the
    /// axes and the seeds to run: `--seed N` runs one seed, otherwise
    /// `--seeds N` (default 16) seeds from `--start N` (default 0). A
    /// repeated flag keeps its last value. An unknown argument, a value
    /// that does not parse, `--clients 0`, and two workloads at once are
    /// errors.
    pub fn from_args<S: AsRef<str>>(args: &[S]) -> Result<(Axes, Vec<u64>), String> {
        fn number<T: std::str::FromStr>(flag: &str, v: Option<&str>) -> Result<T, String> {
            let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse()
                .map_err(|_| format!("{flag} {v:?}: expected a non-negative integer"))
        }
        let mut axes = Axes::DEFAULT;
        let (mut single, mut start, mut count) = (None, 0u64, DEFAULT_SEEDS);
        let mut it = args.iter().map(AsRef::as_ref);
        while let Some(flag) = it.next() {
            match flag {
                "--seed" => single = Some(number(flag, it.next())?),
                "--start" => start = number(flag, it.next())?,
                "--seeds" => count = number(flag, it.next())?,
                "--clients" => match number(flag, it.next())? {
                    0 => return Err("--clients must be at least 1".into()),
                    n => axes.clients = n,
                },
                "--transport" => {
                    axes.transport = Some(match it.next() {
                        Some("tcp") => TransportKind::Tcp,
                        Some("udp") => TransportKind::Udp,
                        v => return Err(format!("--transport {v:?}: expected tcp or udp")),
                    })
                }
                "--overlap" => axes.overlap = true,
                "--disk-faults" => axes.disk_faults = true,
                "--hist-oracle" => axes.hist_oracle = true,
                "--write-loss" | "--meta-storm" => {
                    let w = if flag == "--write-loss" {
                        Workload::WriteLoss
                    } else {
                        Workload::MetaStorm
                    };
                    if axes.workload != Workload::Read && axes.workload != w {
                        return Err("--write-loss and --meta-storm are two workloads; \
                                    a run drives one"
                            .into());
                    }
                    axes.workload = w;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let seeds = match single {
            Some(s) => vec![s],
            None => {
                let end = start
                    .checked_add(count)
                    .ok_or("--start + --seeds overflows a u64")?;
                (start..end).collect()
            }
        };
        Ok((axes, seeds))
    }
}

/// Parses the flags [`Axes`] displays as (seed flags are accepted and
/// ignored), so `axes.to_string().parse() == Ok(axes)`.
impl std::str::FromStr for Axes {
    type Err = String;

    fn from_str(flags: &str) -> Result<Axes, String> {
        let args: Vec<&str> = flags.split_whitespace().collect();
        Axes::from_args(&args).map(|(axes, _)| axes)
    }
}

impl fmt::Display for Axes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "--clients {}", self.clients)?;
        if self.overlap {
            write!(f, " --overlap")?;
        }
        if self.disk_faults {
            write!(f, " --disk-faults")?;
        }
        match self.workload {
            Workload::Read => {}
            Workload::WriteLoss => write!(f, " --write-loss")?,
            Workload::MetaStorm => write!(f, " --meta-storm")?,
        }
        match self.transport {
            Some(TransportKind::Tcp) => write!(f, " --transport tcp")?,
            Some(TransportKind::Udp) => write!(f, " --transport udp")?,
            None => {}
        }
        if self.hist_oracle {
            write!(f, " --hist-oracle")?;
        }
        Ok(())
    }
}

/// Everything a run does, derived purely from the seed and the axes.
#[derive(Debug, Clone)]
pub struct SimPlan {
    /// The seed the plan was derived from.
    pub seed: u64,
    /// The settings the plan was derived for.
    pub axes: Axes,
    /// Transport under test: forced by the axes, else drawn (3 in 4 seeds
    /// use UDP, the paper's default).
    pub transport: TransportKind,
    /// `(batch, kind)` fault schedule; each fault lasts until its batch's
    /// revert. With overlap scheduling two kinds share one batch.
    pub faults: Vec<(usize, FaultKind)>,
}

impl SimPlan {
    fn kinds_at(&self, batch: usize) -> impl Iterator<Item = FaultKind> + '_ {
        self.faults
            .iter()
            .filter(move |&&(b, _)| b == batch)
            .map(|&(_, k)| k)
    }
}

/// Summary of one completed (oracle-clean) run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// The seed that generated the run.
    pub seed: u64,
    /// The settings the run used.
    pub axes: Axes,
    /// Transport used.
    pub transport: TransportKind,
    /// Operations issued.
    pub ops: u64,
    /// Operations that completed `Ok`.
    pub ok_ops: u64,
    /// Operations that failed with `RpcTimedOut`.
    pub timed_out_ops: u64,
    /// Operations that failed with `Eio` (server disk gave up).
    pub eio_ops: u64,
    /// Disk requests the bio layer retried after a transient error.
    pub disk_retries: u64,
    /// `EIO`s the server returned after bio-layer recovery gave up.
    pub disk_eios: u64,
    /// Client RPC retransmissions.
    pub retransmits: u64,
    /// RPCs abandoned after the retry cap.
    pub rpc_timeouts: u64,
    /// Faults injected, in schedule order.
    pub faults: Vec<FaultKind>,
    /// GETATTR RPCs the clients put on the wire (misses + revalidations).
    pub getattr_rpcs: u64,
    /// Getattr-class ops the attribute cache answered locally.
    pub attr_cache_hits: u64,
    /// Wire GETATTRs that revalidated an existing (expired or
    /// open-forced) cache entry.
    pub attr_revalidations: u64,
    /// Revalidations that found the server's attributes had moved.
    pub attr_stale_detected: u64,
    /// UNSTABLE WRITE calls the server stashed without touching disk.
    pub unstable_writes: u64,
    /// COMMIT calls the server received.
    pub commits: u64,
    /// Dirty-pool flushes the server submitted (one per coalesced run).
    pub gather_flushes: u64,
    /// Blocks dropped from the dirty pool by server crashes.
    pub dirty_blocks_lost: u64,
    /// COMMIT replies whose verifier betrayed a server crash window.
    pub verifier_mismatches: u64,
    /// Blocks rewritten after a verifier mismatch.
    pub blocks_rewritten: u64,
    /// Server restarts injected (each one changes the write verifier).
    pub restarts: u64,
    /// Streaming p99 operation latency, nanoseconds (0 unless
    /// [`Axes::hist_oracle`]).
    pub lat_p99_ns: u64,
    /// Streaming p99.9 operation latency, nanoseconds (0 unless
    /// [`Axes::hist_oracle`]).
    pub lat_p999_ns: u64,
    /// Order-sensitive hash of every completion and the final counters;
    /// equal across runs of the same seed iff the world is deterministic.
    pub fingerprint: u64,
    /// Final simulated time, nanoseconds.
    pub sim_nanos: u64,
}

/// An invariant violation, carrying everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// The seed that produced the failing run.
    pub seed: u64,
    /// Which oracle tripped.
    pub oracle: &'static str,
    /// What it saw.
    pub detail: String,
    /// The settings of the failing run.
    pub axes: Axes,
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simtest oracle `{}` failed: {}\n  reproduce with: SIMTEST_SEED={} cargo run -p simtest -- --seed {} {}",
            self.oracle, self.detail, self.seed, self.seed, self.axes
        )
    }
}

impl std::error::Error for OracleFailure {}

/// Derives the run plan from a seed.
///
/// Without `overlap`, one fault lands on each odd batch (each kind followed
/// by a clean recovery batch); with it, *two* distinct kinds share each odd
/// batch and stay active together until the batch's revert. The transport
/// draw is made even when the axes force the transport, so the kind
/// shuffle and every later workload draw stay on the seed's usual stream.
/// Forcing TCP appends [`FaultKind::TcpBlackout`] to the shuffle.
pub fn plan(seed: u64, axes: &Axes) -> SimPlan {
    let axes = Axes {
        clients: axes.clients.max(1),
        ..*axes
    };
    let mut rng = SimRng::from_seed_and_stream(seed, 0x53_49_4D_54_45_53_54); // "SIMTEST"
    let drawn = if rng.gen_range(0u32..4) == 3 {
        TransportKind::Tcp
    } else {
        TransportKind::Udp
    };
    let mut kinds = FaultKind::ALL.to_vec();
    if axes.disk_faults {
        kinds.extend(FaultKind::DISK);
    }
    if axes.transport == Some(TransportKind::Tcp) {
        kinds.push(FaultKind::TcpBlackout);
    }
    rng.shuffle(&mut kinds);
    let faults = kinds
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            let slot = if axes.overlap { i / 2 } else { i };
            (1 + 2 * slot, k)
        })
        .filter(|&(b, _)| b < axes.batches())
        .collect();
    SimPlan {
        seed,
        axes,
        transport: axes.transport.unwrap_or(drawn),
        faults,
    }
}

/// Runs one seed twice and adds the determinism oracle: both runs must
/// produce the same report, fingerprint included.
pub fn run_seed_checked(seed: u64, axes: &Axes) -> Result<RunReport, OracleFailure> {
    let p = plan(seed, axes);
    let first = run_plan(&p, 0)?;
    let second = run_plan(&p, 0)?;
    if first != second {
        return Err(OracleFailure {
            seed,
            oracle: "determinism",
            detail: format!(
                "same seed diverged: fingerprints {:#x} vs {:#x}",
                first.fingerprint, second.fingerprint
            ),
            axes: p.axes,
        });
    }
    Ok(first)
}

/// Executes a plan and checks every oracle. Returns the report of a clean
/// run, or the first invariant violation.
///
/// `sabotage_replies` is the mutation check: that many server replies
/// from batch 1 on are counted in the books but never transmitted, which
/// a healthy oracle set must catch. Pass 0 for a normal run.
pub fn run_plan(plan: &SimPlan, sabotage_replies: u32) -> Result<RunReport, OracleFailure> {
    let mut bk = Books::new(plan);
    for batch in 0..plan.axes.batches() {
        bk.run_batch(plan, batch, sabotage_replies)?;
    }
    if plan.axes.workload == Workload::WriteLoss {
        bk.close_every_file(plan.axes.batches())?;
    }
    bk.finish()
}

// ----------------------------------------------------------------------
// The run: one world and the books the oracles read.
// ----------------------------------------------------------------------

struct IssueRec {
    tag: u64,
    at: SimTime,
}

/// A `close()` in flight: which client and file, and the blocks it
/// promises are on stable storage when it returns `Ok`.
struct CloseRec {
    cl: usize,
    f: usize,
    snap: BTreeSet<u64>,
}

/// The world under test and every piece of accounting the oracles read.
/// Oracles only read it; the run loop alone writes it.
struct Books {
    w: NfsWorld,
    base: WorldConfig,
    seed: u64,
    axes: Axes,
    transport: TransportKind,
    rng: SimRng,
    fhs: Vec<Vec<FileHandle>>,
    /// Per-(client, file) read cursors.
    cursors: Vec<[u64; FILES]>,
    /// Per-(client, file) sequential write cursors (write-loss).
    wcursors: Vec<[u64; FILES]>,
    /// Every op issued; an op's tag is its index in issue order.
    issued: BTreeMap<OpId, IssueRec>,
    completed: HashSet<OpId>,
    /// Latency collection for the hist oracle, `(streaming, exact)`;
    /// `None` when the oracle is off, so default runs do no extra work.
    lat: Option<(LogHist, Vec<u64>)>,
    /// Blocks the workload predicted a demand READ RPC for (absent from
    /// the issuing client's cache at issue time).
    predicted_demand: u64,
    /// Getattr-class ops (GETATTR polls + open()-style revalidations) the
    /// meta-storm workload issued.
    predicted_getattr_class: u64,
    ok_ops: u64,
    timed_out_ops: u64,
    eio_ops: u64,
    fp: u64,
    last_now: SimTime,
    steps: u64,
    fault_active: bool,
    fault_log: Vec<FaultKind>,
    /// Disk error completions at the last batch boundary with no fault
    /// model installed — the restore-baseline oracle's watermark.
    clean_watch: Option<u64>,
    /// Write-loss: blocks written per (client, file) since its last close.
    shadow: HashMap<(usize, usize), BTreeSet<u64>>,
    /// Write-loss: files with a close in flight (the world forbids two
    /// concurrent closes of one file).
    close_pending: HashSet<(usize, usize)>,
    close_ops: HashMap<OpId, CloseRec>,
}

/// One event's completions, as the per-event oracles see them before they
/// are booked.
struct Event<'a> {
    batch: usize,
    t: SimTime,
    done: &'a [OpDone],
}

/// Cluster-wide counters at the end of the run.
struct Totals {
    c: ClientStats,
    s: ServerStats,
    c2s: LinkStats,
    s2c: LinkStats,
    bio: ffs::BioStats,
}

fn mix(fp: &mut u64, v: u64) {
    // FNV-1a over the 8 bytes of `v`.
    for b in v.to_le_bytes() {
        *fp ^= u64::from(b);
        *fp = fp.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Books {
    fn new(plan: &SimPlan) -> Books {
        let (seed, axes) = (plan.seed, plan.axes);
        // Storm runs arm the attribute cache at the classic NFS client
        // defaults (acregmin=3s, acregmax=60s); everywhere else both stay
        // ZERO and the cache machinery must be provably inert.
        let (attr_min, attr_max) = if axes.workload == Workload::MetaStorm {
            (SimDuration::from_secs(3), SimDuration::from_secs(60))
        } else {
            (SimDuration::ZERO, SimDuration::ZERO)
        };
        let base = WorldConfig {
            transport: plan.transport,
            stable_how: if axes.workload == Workload::WriteLoss {
                StableHow::Unstable
            } else {
                StableHow::FileSync
            },
            attr_timeo_min: attr_min,
            attr_timeo_max: attr_max,
            ..WorldConfig::default()
        };
        let rng = SimRng::from_seed_and_stream(seed, 0x574F_524B_4C44); // "WORKLD"
        let fs = Rig::scsi(1).build_fs(seed);
        let hosts = vec![ClientHostConfig::from_world(&base); axes.clients];
        let mut w = NfsWorld::new_cluster(base, &hosts, fs, seed);
        let fhs = (0..axes.clients)
            .map(|c| {
                (0..FILES)
                    .map(|_| w.create_file_for(c, FILE_BLOCKS * BS))
                    .collect()
            })
            .collect();
        Books {
            w,
            base,
            seed,
            axes,
            transport: plan.transport,
            rng,
            fhs,
            cursors: vec![[0; FILES]; axes.clients],
            wcursors: vec![[0; FILES]; axes.clients],
            issued: BTreeMap::new(),
            completed: HashSet::new(),
            lat: axes.hist_oracle.then(|| (LogHist::new(), Vec::new())),
            predicted_demand: 0,
            predicted_getattr_class: 0,
            ok_ops: 0,
            timed_out_ops: 0,
            eio_ops: 0,
            fp: 0xcbf2_9ce4_8422_2325,
            last_now: SimTime::ZERO,
            steps: 0,
            fault_active: false,
            fault_log: Vec::new(),
            clean_watch: None,
            shadow: HashMap::new(),
            close_pending: HashSet::new(),
            close_ops: HashMap::new(),
        }
    }

    fn fail(&self, oracle: &'static str, detail: String) -> OracleFailure {
        OracleFailure {
            seed: self.seed,
            oracle,
            detail,
            axes: self.axes,
        }
    }

    /// Runs every oracle of the phase's scope, in table order.
    fn check(&self, at: At<'_>) -> Result<(), OracleFailure> {
        for o in ORACLES {
            let verdict = match (o.check, &at) {
                (Check::Event(f), At::Event(ev)) => f(self, ev),
                (Check::Batch(f), At::Batch(b)) => f(self, *b),
                (Check::End(f), At::End(t)) => f(self, t),
                _ => continue,
            };
            verdict.map_err(|detail| self.fail(o.name, detail))?;
        }
        Ok(())
    }

    /// One batch: install its disk faults, issue its operations, inject
    /// its classic faults while they are in flight, drain to quiescence,
    /// and check the batch oracles.
    fn run_batch(
        &mut self,
        plan: &SimPlan,
        batch: usize,
        sabotage_replies: u32,
    ) -> Result<(), OracleFailure> {
        self.revert_faults();

        // A media defect is only observable under reads that reach the
        // platter, so the disk fault plan lands before the batch issues.
        // An overlap batch may carry two disk kinds, merged into the one
        // model the drive runs.
        let mut disk_plan: Option<FaultPlan> = None;
        for kind in plan.kinds_at(batch) {
            if FaultKind::DISK.contains(&kind) {
                let frag = self.disk_fault_plan(kind);
                match disk_plan.as_mut() {
                    Some(acc) => acc.merge(frag),
                    None => disk_plan = Some(frag),
                }
                self.fault_active = true;
                self.fault_log.push(kind);
            }
        }
        if let Some(p) = disk_plan {
            self.w
                .set_disk_fault_model(Some(Box::new(FaultState::new(p))));
        }

        // The issuing client is drawn per operation only when the cluster
        // is wider than one host, so single-client runs consume exactly
        // the classic RNG stream.
        let now = self.w.now();
        let n_ops = self.rng.gen_range(4usize..10);
        for _ in 0..n_ops {
            let cl = if self.axes.clients > 1 {
                self.rng.gen_range(0usize..self.axes.clients)
            } else {
                0
            };
            let f = self.rng.gen_range(0usize..FILES);
            let tag = self.issued.len() as u64;
            let id = match self.axes.workload {
                Workload::Read => self.issue_read_mix(cl, f, now, tag),
                Workload::WriteLoss => self.issue_write_loss(cl, f, now, tag),
                Workload::MetaStorm => self.issue_meta_storm(cl, f, now, tag),
            };
            self.issued.insert(id, IssueRec { tag, at: now });
        }

        // Write-loss turns the nfsd outage into a crash. Drain only a few
        // milliseconds first — less than the 30 ms gather window, so the
        // batch's UNSTABLE WRITEs sit in the server's dirty pool — then,
        // once the outage is in force, lose the pool and change the
        // verifier: exactly the data RFC 1813 lets a server lose.
        let crash = self.axes.workload == Workload::WriteLoss
            && plan.kinds_at(batch).any(|k| k == FaultKind::NfsdOutage);
        if crash {
            let horizon = self.w.now() + SimDuration::from_millis(self.rng.gen_range(2u64..20));
            self.drain(Some(horizon), batch)?;
        }
        let mut outage = false;
        for kind in plan.kinds_at(batch) {
            if !FaultKind::DISK.contains(&kind) {
                self.apply_fault(kind);
                self.fault_active = true;
                outage |= kind == FaultKind::NfsdOutage;
                self.fault_log.push(kind);
            }
        }
        if crash {
            self.w.restart_server(self.w.now());
        }
        if batch == 1 && sabotage_replies > 0 {
            self.w.sabotage_drop_next_replies(sabotage_replies);
        }

        // A zero-nfsd outage starves the world to quiescence with calls
        // parked at the server; restore the pool then and drain again so
        // every parked call is answered or retired before the batch
        // oracles run.
        self.drain(None, batch)?;
        if outage {
            self.w.set_nfsds(self.w.now(), self.base.nfsds);
            self.drain(None, batch)?;
        }
        self.end_batch(batch)
    }

    /// Write-loss epilogue: revert any fault still active, close every
    /// file on every client so each write-behind cache must drain (push,
    /// COMMIT, verifier check, rewrite after a crash), and check the batch
    /// oracles once more.
    fn close_every_file(&mut self, batch: usize) -> Result<(), OracleFailure> {
        self.revert_faults();
        let now = self.w.now();
        for cl in 0..self.axes.clients {
            for f in 0..FILES {
                if !self.close_pending.contains(&(cl, f)) {
                    let tag = self.issued.len() as u64;
                    let id = self.close(cl, f, now, tag);
                    self.issued.insert(id, IssueRec { tag, at: now });
                }
            }
        }
        self.drain(None, batch)?;
        self.end_batch(batch)
    }

    fn end_batch(&mut self, batch: usize) -> Result<(), OracleFailure> {
        self.check(At::Batch(batch))?;
        let errs = self.w.bio_stats().error_completions;
        self.clean_watch = (!self.w.disk_fault_active()).then_some(errs);
        Ok(())
    }

    /// Restores the baseline link, both pools and a healthy drive. A stall
    /// simply expires and a flush is one-shot, so one revert composes over
    /// however many faults were active.
    fn revert_faults(&mut self) {
        if std::mem::take(&mut self.fault_active) {
            let now = self.w.now();
            self.w.set_link_profile(self.base.link);
            self.w.set_nfsds(now, self.base.nfsds);
            self.w.set_nfsiods(self.base.nfsiods);
            self.w.set_disk_fault_model(None);
        }
    }

    /// Drains events (stopping before the first one past `horizon`, if
    /// any), running the per-event oracles on each event's completions
    /// before booking them.
    fn drain(&mut self, horizon: Option<SimTime>, batch: usize) -> Result<(), OracleFailure> {
        while let Some(t) = self.w.next_event() {
            if horizon.is_some_and(|h| t > h) {
                break;
            }
            self.steps += 1;
            let done = self.w.advance(t);
            self.check(At::Event(&Event {
                batch,
                t,
                done: &done,
            }))?;
            self.book(t, &done);
        }
        Ok(())
    }

    /// Folds one event's (oracle-checked) completions into the books and
    /// the fingerprint.
    fn book(&mut self, t: SimTime, done: &[OpDone]) {
        self.last_now = t;
        for d in done {
            self.completed.insert(d.id);
            if let Some((hist, exact)) = self.lat.as_mut() {
                let lat = d.done_at.since(self.issued[&d.id].at).as_nanos();
                hist.add(lat);
                exact.push(lat);
            }
            let outcome_code = match d.outcome {
                OpOutcome::Ok => {
                    self.ok_ops += 1;
                    0
                }
                OpOutcome::RpcTimedOut { xid } => {
                    self.timed_out_ops += 1;
                    u64::from(xid) << 1 | 1
                }
                OpOutcome::Eio { xid } => {
                    self.eio_ops += 1;
                    u64::from(xid) << 2 | 2
                }
            };
            for v in [d.id.0, d.tag, d.done_at.as_nanos(), outcome_code] {
                mix(&mut self.fp, v);
            }
            // A close that failed made no promise: the soft mount dropped
            // the file's whole write-behind tracking, later writes
            // included, so its ongoing shadow goes too.
            if let Some(rec) = self.close_ops.remove(&d.id) {
                self.close_pending.remove(&(rec.cl, rec.f));
                if outcome_code != 0 {
                    self.shadow.remove(&(rec.cl, rec.f));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Workloads. Each draws one arm in 0..10; the RNG draw order of every
    // arm is part of the pinned fingerprints.
    // ------------------------------------------------------------------

    /// Reads, single-block writes and getattr pollers.
    fn issue_read_mix(&mut self, cl: usize, f: usize, now: SimTime, tag: u64) -> OpId {
        match self.rng.gen_range(0u32..10) {
            0 => self.write_one(cl, f, now, tag),
            1 => self.w.getattr_from(cl, now, self.fhs[cl][f], tag),
            _ => self.read(cl, f, now, tag),
        }
    }

    /// Sequential dirty runs feed the server's write gathering, closes
    /// force COMMITs (and verifier comparisons) mid-run, reads keep the
    /// demand books honest.
    fn issue_write_loss(&mut self, cl: usize, f: usize, now: SimTime, tag: u64) -> OpId {
        let fh = self.fhs[cl][f];
        match self.rng.gen_range(0u32..10) {
            0..=3 => {
                let len = self.rng.gen_range(1u64..5);
                let start = self.wcursors[cl][f].min(FILE_BLOCKS - len);
                self.wcursors[cl][f] = (start + len) % FILE_BLOCKS;
                self.shadow
                    .entry((cl, f))
                    .or_default()
                    .extend(start..start + len);
                self.w.write_from(cl, now, fh, start * BS, len * BS, tag)
            }
            4 if !self.close_pending.contains(&(cl, f)) => self.close(cl, f, now, tag),
            5 => self.w.getattr_from(cl, now, fh, tag),
            _ => self.read(cl, f, now, tag),
        }
    }

    /// A build-tree walker's wire profile: GETATTR polls dominate,
    /// open()-style forced revalidations and LOOKUP/READDIR ride along,
    /// and occasional writes move the server's attributes so
    /// revalidations can detect staleness.
    fn issue_meta_storm(&mut self, cl: usize, f: usize, now: SimTime, tag: u64) -> OpId {
        let fh = self.fhs[cl][f];
        match self.rng.gen_range(0u32..10) {
            0 => self.write_one(cl, f, now, tag),
            1 => {
                let name_len = self.rng.gen_range(3u32..16);
                self.w.lookup_from(cl, now, fh, name_len, tag)
            }
            2 => {
                let entries = self.rng.gen_range(4u32..32);
                self.w.readdir_from(cl, now, fh, 0, entries, true, tag)
            }
            3 | 4 => {
                self.predicted_getattr_class += 1;
                self.w.open_from(cl, now, fh, tag)
            }
            5..=8 => {
                self.predicted_getattr_class += 1;
                self.w.getattr_from(cl, now, fh, tag)
            }
            _ => self.read(cl, f, now, tag),
        }
    }

    /// A 1–3 block read, 70% continuing from the file's cursor, with every
    /// block absent from the client cache booked as a predicted demand
    /// miss (the block-conservation oracle's books).
    fn read(&mut self, cl: usize, f: usize, now: SimTime, tag: u64) -> OpId {
        let fh = self.fhs[cl][f];
        let len = self.rng.gen_range(1u64..4);
        let start = if self.rng.chance(0.7) {
            self.cursors[cl][f]
        } else {
            self.rng.gen_range(0u64..FILE_BLOCKS)
        }
        .min(FILE_BLOCKS - len);
        self.cursors[cl][f] = (start + len) % FILE_BLOCKS;
        let misses = (start..start + len)
            .filter(|&blk| self.w.block_state_for(cl, fh, blk) == BlockState::Absent)
            .count();
        self.predicted_demand += misses as u64;
        self.w.read_from(cl, now, fh, start * BS, len * BS, tag)
    }

    fn write_one(&mut self, cl: usize, f: usize, now: SimTime, tag: u64) -> OpId {
        let blk = self.rng.gen_range(0u64..FILE_BLOCKS);
        self.w
            .write_from(cl, now, self.fhs[cl][f], blk * BS, BS, tag)
    }

    /// Closes a file, snapshotting the blocks written since its last close
    /// as the ones this close promises are durable. Blocks written while
    /// it is in flight go to the file's next close.
    fn close(&mut self, cl: usize, f: usize, now: SimTime, tag: u64) -> OpId {
        self.close_pending.insert((cl, f));
        let snap = self.shadow.remove(&(cl, f)).unwrap_or_default();
        let id = self.w.close_from(cl, now, self.fhs[cl][f], tag);
        self.close_ops.insert(id, CloseRec { cl, f, snap });
        id
    }

    // ------------------------------------------------------------------
    // Faults.
    // ------------------------------------------------------------------

    /// Applies one classic (non-disk) fault. Disk kinds go through
    /// [`Books::disk_fault_plan`] instead, because several disk kinds in
    /// one overlap batch share a single installed model.
    fn apply_fault(&mut self, kind: FaultKind) {
        let (w, rng, link) = (&mut self.w, &mut self.rng, self.base.link);
        let now = w.now();
        match kind {
            // Half the time a total blackout, half the time 30% loss — on
            // either transport. UDP blackouts force RPC timeouts; TCP
            // blackouts exercise the segment engine's RTO backoff ladder.
            FaultKind::LossBurst => {
                let loss = if rng.chance(0.5) { 1.0 } else { 0.3 };
                w.set_link_profile(LinkProfile {
                    frame_loss: loss,
                    ..link
                });
            }
            FaultKind::LinkDegrade => w.set_link_profile(LinkProfile {
                bandwidth: link.bandwidth / 50.0,
                latency: SimDuration::from_micros(900),
                jitter: 1e-3,
                ..link
            }),
            FaultKind::ServerStall => {
                let ms = rng.gen_range(50u64..400);
                w.stall_server(now, SimDuration::from_millis(ms));
            }
            FaultKind::NfsdResize => w.set_nfsds(now, rng.gen_range(1usize..3)),
            // Zero daemons: every arriving call queues and nothing is
            // served until `run_batch` restores the pool at quiescence.
            FaultKind::NfsdOutage => w.set_nfsds(now, 0),
            FaultKind::NfsiodResize => w.set_nfsiods(if rng.chance(0.5) { 0 } else { 1 }),
            FaultKind::CacheFlush => w.flush_all_caches(),
            // A total blackout on one seed-chosen client's links; the
            // batch revert restores every client to the baseline profile.
            FaultKind::TcpBlackout => {
                let victim = rng.gen_range(0..w.n_clients());
                w.set_link_profile_for(
                    victim,
                    LinkProfile {
                        frame_loss: 1.0,
                        ..link
                    },
                );
            }
            FaultKind::SectorErrors
            | FaultKind::StuckTag
            | FaultKind::FirmwareStall
            | FaultKind::FailSlow => {
                unreachable!("disk kinds build their plans via disk_fault_plan")
            }
        }
    }

    /// Builds the seeded [`FaultPlan`] fragment for one disk fault kind.
    /// All randomness is drawn here, so the installed [`FaultState`] is
    /// draw-free. Sector errors are aimed at the blocks a seed-chosen file
    /// is about to read (a defect nobody reads proves nothing), and drop
    /// the data caches so the batch's reads reach the platter.
    fn disk_fault_plan(&mut self, kind: FaultKind) -> FaultPlan {
        let (w, rng) = (&mut self.w, &mut self.rng);
        match kind {
            FaultKind::SectorErrors => {
                w.flush_all_caches();
                let cl = rng.gen_range(0..self.fhs.len());
                let f = rng.gen_range(0..FILES);
                // 70% of the batch's reads continue from this cursor.
                let blk = self.cursors[cl][f].min(FILE_BLOCKS - 1);
                let (start, sectors) = match w.fs().inode(self.fhs[cl][f].ino) {
                    Some(ino) => (ino.lba_of(blk), 16 * ffs::BLOCK_SECTORS),
                    None => w.allocated_span(),
                };
                FaultPlan::seeded_sector_errors(rng, start, sectors)
            }
            FaultKind::StuckTag => FaultPlan::seeded_stuck_tag(rng),
            FaultKind::FirmwareStall => FaultPlan::seeded_firmware_stall(rng, w.now()),
            FaultKind::FailSlow => {
                let (start, sectors) = w.allocated_span();
                FaultPlan::seeded_fail_slow(rng, start, sectors)
            }
            other => unreachable!("{other:?} is not a disk fault kind"),
        }
    }

    // ------------------------------------------------------------------
    // End of run.
    // ------------------------------------------------------------------

    fn finish(mut self) -> Result<RunReport, OracleFailure> {
        let w = &self.w;
        let n = self.axes.clients;
        let t = Totals {
            c: sum_client_stats(w),
            s: w.server_stats(),
            c2s: sum_link_stats((0..n).map(|i| w.c2s_stats_for(i))),
            s2c: sum_link_stats((0..n).map(|i| w.s2c_stats_for(i))),
            bio: w.bio_stats(),
        };
        if let Some((_, exact)) = self.lat.as_mut() {
            exact.sort_unstable();
        }
        self.check(At::End(&t))?;
        self.fold_counters(&t);
        let q = |p| {
            self.lat
                .as_ref()
                .and_then(|(h, _)| h.quantile(p))
                .unwrap_or(0)
        };
        let (lat_p99_ns, lat_p999_ns) = (q(0.99), q(0.999));
        let (c, s) = (&t.c, &t.s);
        Ok(RunReport {
            seed: self.seed,
            axes: self.axes,
            transport: self.transport,
            ops: c.ops,
            ok_ops: self.ok_ops,
            timed_out_ops: self.timed_out_ops,
            eio_ops: self.eio_ops,
            disk_retries: t.bio.retries,
            disk_eios: s.disk_eios,
            retransmits: c.retransmits,
            rpc_timeouts: c.rpc_timeouts,
            faults: self.fault_log,
            getattr_rpcs: c.getattr_rpcs,
            attr_cache_hits: c.attr_cache_hits,
            attr_revalidations: c.attr_revalidations,
            attr_stale_detected: c.attr_stale_detected,
            unstable_writes: s.unstable_writes,
            commits: s.commits,
            gather_flushes: s.gather_flushes,
            dirty_blocks_lost: s.dirty_blocks_lost,
            verifier_mismatches: c.verifier_mismatches,
            blocks_rewritten: c.blocks_rewritten,
            restarts: s.restarts,
            lat_p99_ns,
            lat_p999_ns,
            fingerprint: self.fp,
            sim_nanos: self.last_now.as_nanos(),
        })
    }

    /// Folds the final counters into the fingerprint. Each axis folds in
    /// its own books only when it is on, so turning one axis on never
    /// moves another mode's pinned fingerprints.
    fn fold_counters(&mut self, t: &Totals) {
        let (c, s, bio) = (&t.c, &t.s, &t.bio);
        let mut vs = vec![c.ops, c.rpcs, c.readahead_rpcs, c.retransmits];
        vs.extend([c.rpc_timeouts, c.transmissions, s.reads, s.replies]);
        vs.extend([s.reordered, self.last_now.as_nanos()]);
        if self.axes.disk_faults {
            vs.extend([bio.error_completions, bio.retries, bio.eio, s.disk_eios]);
        }
        match self.axes.workload {
            Workload::Read => {}
            Workload::WriteLoss => {
                vs.extend([s.unstable_writes, s.commits, s.gather_flushes]);
                vs.extend([s.dirty_blocks_stashed, s.dirty_blocks_flushed]);
                vs.extend([s.dirty_blocks_lost, s.restarts, c.write_rpcs]);
                vs.extend([c.commit_rpcs, c.verifier_mismatches, c.blocks_rewritten]);
            }
            Workload::MetaStorm => {
                vs.extend([c.getattr_rpcs, c.lookup_rpcs, c.readdir_rpcs]);
                vs.extend([c.attr_cache_hits, c.attr_cache_misses]);
                vs.extend([c.attr_revalidations, c.attr_stale_detected]);
                vs.extend([c.attr_invalidations, s.getattrs, s.lookups, s.readdirs]);
            }
        }
        if self.transport == TransportKind::Tcp {
            // The segment engine's internal schedule, summed over clients
            // and both directions.
            let mut sum = [0u64; 6];
            for (a, b) in (0..self.axes.clients).filter_map(|cl| self.w.tcp_stats_for(cl)) {
                for t in [a, b] {
                    let row = [t.segments_sent, t.retransmits, t.fast_retransmits];
                    let row = row
                        .into_iter()
                        .chain([t.timeouts, t.rto_backoffs, t.lost_tracked]);
                    for (acc, v) in sum.iter_mut().zip(row) {
                        *acc += v;
                    }
                }
            }
            vs.extend(sum);
        }
        for v in vs {
            mix(&mut self.fp, v);
        }
    }
}

/// Sums one counter struct per client host into cluster-wide books. The
/// literal names every field (no `..`), so a new counter is a compile
/// error here until it is summed.
fn sum_client_stats(w: &NfsWorld) -> ClientStats {
    (0..w.n_clients())
        .map(|c| w.client_stats_for(c))
        .fold(ClientStats::default(), |a, s| ClientStats {
            ops: a.ops + s.ops,
            cache_hits: a.cache_hits + s.cache_hits,
            rpcs: a.rpcs + s.rpcs,
            readahead_rpcs: a.readahead_rpcs + s.readahead_rpcs,
            retransmits: a.retransmits + s.retransmits,
            iod_starved: a.iod_starved + s.iod_starved,
            rpc_timeouts: a.rpc_timeouts + s.rpc_timeouts,
            transmissions: a.transmissions + s.transmissions,
            replies_received: a.replies_received + s.replies_received,
            duplicate_replies: a.duplicate_replies + s.duplicate_replies,
            eio_replies: a.eio_replies + s.eio_replies,
            write_rpcs: a.write_rpcs + s.write_rpcs,
            commit_rpcs: a.commit_rpcs + s.commit_rpcs,
            closes: a.closes + s.closes,
            verifier_mismatches: a.verifier_mismatches + s.verifier_mismatches,
            blocks_rewritten: a.blocks_rewritten + s.blocks_rewritten,
            // Per-stream TCP books are checked per client (`tcp-books`),
            // never as a cluster sum.
            tcp_c2s: a.tcp_c2s,
            tcp_s2c: a.tcp_s2c,
            getattr_rpcs: a.getattr_rpcs + s.getattr_rpcs,
            lookup_rpcs: a.lookup_rpcs + s.lookup_rpcs,
            readdir_rpcs: a.readdir_rpcs + s.readdir_rpcs,
            attr_cache_hits: a.attr_cache_hits + s.attr_cache_hits,
            attr_cache_misses: a.attr_cache_misses + s.attr_cache_misses,
            attr_revalidations: a.attr_revalidations + s.attr_revalidations,
            attr_stale_detected: a.attr_stale_detected + s.attr_stale_detected,
            attr_invalidations: a.attr_invalidations + s.attr_invalidations,
        })
}

fn sum_link_stats(per_host: impl Iterator<Item = LinkStats>) -> LinkStats {
    per_host.fold(LinkStats::default(), |a, s| LinkStats {
        messages: a.messages + s.messages,
        lost: a.lost + s.lost,
        bytes_delivered: a.bytes_delivered + s.bytes_delivered,
    })
}

// ----------------------------------------------------------------------
// The oracle table.
// ----------------------------------------------------------------------

/// When an oracle runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// On every event's completions, before they are booked.
    Event,
    /// At every batch boundary, once the world is quiescent (and once
    /// more after the write-loss epilogue closes every file).
    Batch,
    /// Once, over the cluster-wide counters at the end of the run.
    End,
}

/// What an oracle returns: `Err` carries what it saw.
type Verdict = Result<(), String>;

#[derive(Clone, Copy)]
enum Check {
    Event(fn(&Books, &Event<'_>) -> Verdict),
    Batch(fn(&Books, usize) -> Verdict),
    End(fn(&Books, &Totals) -> Verdict),
}

/// The phase the run loop is checking.
enum At<'a> {
    Event(&'a Event<'a>),
    Batch(usize),
    End(&'a Totals),
}

/// One named invariant. An oracle that does not apply to a run's axes
/// passes trivially.
pub struct Oracle {
    /// The name failures report.
    pub name: &'static str,
    check: Check,
}

impl Oracle {
    /// When the oracle runs.
    pub fn scope(&self) -> Scope {
        match self.check {
            Check::Event(_) => Scope::Event,
            Check::Batch(_) => Scope::Batch,
            Check::End(_) => Scope::End,
        }
    }
}

const fn oracle(name: &'static str, check: Check) -> Oracle {
    Oracle { name, check }
}

/// Every in-run oracle, in the order a phase checks them. (`determinism`
/// compares two runs and lives in [`run_seed_checked`].)
pub const ORACLES: &[Oracle] = &[
    oracle("bounded-progress", Check::Event(bounded_progress)),
    oracle("monotone-time", Check::Event(monotone_time)),
    oracle("op-accounting", Check::Event(op_accounting)),
    oracle("no-committed-loss", Check::Event(no_committed_loss)),
    oracle("restore-composition", Check::Batch(restore_composition)),
    oracle("no-stuck-ops", Check::Batch(no_stuck_ops)),
    oracle("dirty-books", Check::Batch(dirty_books)),
    oracle("restore-baseline", Check::Batch(restore_baseline)),
    oracle("write-behind-drained", Check::End(write_behind_drained)),
    oracle("block-conservation", Check::End(block_conservation)),
    oracle("rpc-conservation", Check::End(rpc_conservation)),
    oracle("reply-conservation", Check::End(reply_conservation)),
    oracle("server-conservation", Check::End(server_conservation)),
    oracle("contention-attribution", Check::End(contention_attribution)),
    oracle("disk-books", Check::End(disk_books)),
    oracle("bounded-retries", Check::End(bounded_retries)),
    oracle("tcp-books", Check::End(tcp_books)),
    oracle("tcp-order", Check::End(tcp_order)),
    oracle("crash-detection", Check::End(crash_detection)),
    oracle("async-dormancy", Check::End(async_dormancy)),
    oracle("attrcache-books", Check::End(attrcache_books)),
    oracle("attrcache-dormancy", Check::End(attrcache_dormancy)),
    oracle("latency-histogram", Check::End(latency_histogram)),
];

/// Fails the enclosing oracle with the formatted message unless `$ok`.
macro_rules! ensure {
    ($ok:expr, $($msg:tt)+) => {
        if !$ok {
            return Err(format!($($msg)+));
        }
    };
}

fn bounded_progress(bk: &Books, ev: &Event<'_>) -> Verdict {
    ensure!(
        bk.steps <= STEP_BUDGET,
        "event budget exhausted in batch {}; outstanding xids {:?}",
        ev.batch,
        bk.w.outstanding_xids()
    );
    Ok(())
}

fn monotone_time(bk: &Books, ev: &Event<'_>) -> Verdict {
    let (t, last) = (ev.t, bk.last_now);
    ensure!(t >= last, "event time regressed: {t} after {last}");
    for d in ev.done {
        if let Some(rec) = bk.issued.get(&d.id) {
            let (id, done, at) = (d.id, d.done_at, rec.at);
            ensure!(
                done >= at,
                "operation {id:?} finished at {done} before issue at {at}"
            );
        }
    }
    Ok(())
}

fn op_accounting(bk: &Books, ev: &Event<'_>) -> Verdict {
    for (i, d) in ev.done.iter().enumerate() {
        let id = d.id;
        let twice = bk.completed.contains(&id) || ev.done[..i].iter().any(|e| e.id == id);
        ensure!(!twice, "operation {id:?} completed twice");
        let Some(rec) = bk.issued.get(&id) else {
            return Err(format!("completion for never-issued operation {id:?}"));
        };
        let (tag, want) = (d.tag, rec.tag);
        ensure!(
            tag == want,
            "operation {id:?} returned tag {tag} != issued {want}"
        );
    }
    Ok(())
}

fn no_committed_loss(bk: &Books, ev: &Event<'_>) -> Verdict {
    for d in ev.done.iter().filter(|d| d.outcome == OpOutcome::Ok) {
        if let Some(CloseRec { cl, f, snap }) = bk.close_ops.get(&d.id) {
            let fh = bk.fhs[*cl][*f];
            if let Some(blk) = snap.iter().find(|&&b| !bk.w.is_durable(fh, b)) {
                let id = d.id;
                return Err(format!(
                    "close {id:?} on client {cl} file {f} completed Ok \
                     but block {blk} is not on stable storage"
                ));
            }
        }
    }
    Ok(())
}

/// Checked at the end of every batch in which no fault is active, so it
/// covers each revert (every fault batch is followed by a clean one).
fn restore_composition(bk: &Books, batch: usize) -> Verdict {
    if bk.fault_active {
        return Ok(());
    }
    let (w, base) = (&bk.w, &bk.base);
    for c in 0..bk.axes.clients {
        let (link, iods) = (w.link_profile_for(c), w.nfsiods_for(c));
        let (base_link, base_iods) = (base.link, base.nfsiods);
        ensure!(
            link == base_link,
            "batch {batch}: client {c} link {link:?} != baseline {base_link:?}"
        );
        ensure!(
            iods == base_iods,
            "batch {batch}: client {c} nfsiods {iods} != baseline {base_iods}"
        );
    }
    let (nfsds, base_nfsds) = (w.nfsds(), base.nfsds);
    ensure!(
        nfsds == base_nfsds,
        "batch {batch}: nfsds {nfsds} != baseline {base_nfsds}"
    );
    ensure!(
        !w.disk_fault_active(),
        "batch {batch}: disk fault model still installed after revert"
    );
    Ok(())
}

fn no_stuck_ops(bk: &Books, batch: usize) -> Verdict {
    let (ops, xids) = (bk.w.outstanding_ops(), bk.w.outstanding_xids());
    ensure!(
        ops.is_empty(),
        "batch {batch} quiesced with operations {ops:?} hung on xids {xids:?}"
    );
    let hung: Vec<&OpId> = bk
        .issued
        .keys()
        .filter(|id| !bk.completed.contains(id))
        .collect();
    ensure!(
        hung.is_empty(),
        "batch {batch}: operations {hung:?} never completed"
    );
    ensure!(
        xids.is_empty(),
        "batch {batch}: xids {xids:?} never retired"
    );
    Ok(())
}

/// Every block that entered the server's dirty pool was flushed, lost to
/// a crash, or is still pooled (all four terms are zero on FILE_SYNC).
fn dirty_books(bk: &Books, batch: usize) -> Verdict {
    let s = bk.w.server_stats();
    let (stashed, flushed, lost) = (
        s.dirty_blocks_stashed,
        s.dirty_blocks_flushed,
        s.dirty_blocks_lost,
    );
    let pooled = bk.w.server_dirty_blocks();
    ensure!(
        stashed == flushed + lost + pooled,
        "batch {batch}: stashed {stashed} != flushed {flushed} + lost {lost} + pooled {pooled}"
    );
    Ok(())
}

/// A drive whose fault model was removed (or never installed) produces no
/// new error completions across a whole batch.
fn restore_baseline(bk: &Books, batch: usize) -> Verdict {
    let errs = bk.w.bio_stats().error_completions;
    if let (Some(mark), false) = (bk.clean_watch, bk.w.disk_fault_active()) {
        let new = errs - mark;
        ensure!(
            new == 0,
            "batch {batch}: {new} disk error completions on a healthy drive"
        );
    }
    Ok(())
}

fn write_behind_drained(bk: &Books, _: &Totals) -> Verdict {
    if bk.axes.workload == Workload::WriteLoss {
        for cl in 0..bk.axes.clients {
            let left = bk.w.client_uncommitted_blocks(cl);
            ensure!(
                left == 0,
                "client {cl} still tracks {left} uncommitted blocks after every file closed"
            );
        }
    }
    Ok(())
}

/// Every predicted demand miss produced exactly one READ RPC, and every
/// other READ RPC was a read-ahead.
fn block_conservation(bk: &Books, t: &Totals) -> Verdict {
    let (rpcs, demand, ra) = (t.c.rpcs, bk.predicted_demand, t.c.readahead_rpcs);
    ensure!(
        rpcs == demand + ra,
        "READ RPCs {rpcs} != predicted demand misses {demand} + read-aheads {ra}"
    );
    Ok(())
}

/// On TCP the link's `messages` includes segment retransmissions, so only
/// delivery counts are exact there.
fn rpc_conservation(bk: &Books, t: &Totals) -> Verdict {
    let (sent, msgs) = (t.c.transmissions, t.c2s.messages);
    let udp = bk.transport == TransportKind::Udp;
    ensure!(
        !udp || sent == msgs,
        "client transmissions {sent} != c2s link messages {msgs}"
    );
    let s = &t.s;
    let (reads, other, dups, orphans) =
        (s.reads, s.other_calls, s.duplicates_dropped, s.orphan_calls);
    let delivered = msgs - t.c2s.lost;
    ensure!(
        delivered == reads + other + dups + orphans,
        "calls delivered {delivered} != server arrivals: reads {reads} + other {other} \
         + duplicates {dups} + orphans {orphans}"
    );
    Ok(())
}

fn reply_conservation(bk: &Books, t: &Totals) -> Verdict {
    let (replies, msgs) = (t.s.replies, t.s2c.messages);
    let udp = bk.transport == TransportKind::Udp;
    ensure!(
        !udp || replies == msgs,
        "server replies {replies} != s2c link messages {msgs}"
    );
    let (got, dups) = (t.c.replies_received, t.c.duplicate_replies);
    let delivered = msgs - t.s2c.lost;
    ensure!(
        got + dups == delivered,
        "replies delivered {delivered} != client arrivals {got} + duplicates {dups}"
    );
    Ok(())
}

/// Every accepted call is replied to or dropped as stale after acceptance.
fn server_conservation(_: &Books, t: &Totals) -> Verdict {
    let s = &t.s;
    let (replies, stale, reads, other) = (s.replies, s.stale_drops, s.reads, s.other_calls);
    ensure!(
        replies + stale == reads + other,
        "replies {replies} + stale drops {stale} != reads {reads} + other calls {other}"
    );
    Ok(())
}

/// The server's ejection, duplicate-cache and EIO totals are fully
/// attributed to specific clients — no anonymous interference.
fn contention_attribution(bk: &Books, t: &Totals) -> Verdict {
    let per_client = |pick: fn(nfssim::ContentionStats) -> u64| -> u64 {
        (0..bk.axes.clients)
            .map(|i| pick(bk.w.contention_stats(i)))
            .sum()
    };
    let s = &t.s;
    for (what, attributed, total) in [
        (
            "ejections",
            per_client(|c| c.heur_ejections_caused),
            s.heur_ejections,
        ),
        (
            "duplicate-cache hits",
            per_client(|c| c.duplicate_cache_hits),
            s.duplicates_dropped,
        ),
        (
            "disk EIOs",
            per_client(|c| c.disk_eios_suffered),
            s.disk_eios,
        ),
    ] {
        ensure!(
            attributed == total,
            "per-client {what} {attributed} != server {what} {total}"
        );
    }
    Ok(())
}

/// Every error completion was retried below NFS or surfaced as exactly one
/// EIO; every EIO was a hard error or an exhausted transient; a run
/// without disk faults has no errors at all.
fn disk_books(bk: &Books, t: &Totals) -> Verdict {
    let b = &t.bio;
    let (errors, retries, eio) = (b.error_completions, b.retries, b.eio);
    let (hard, exhausted, eios) = (b.hard_errors, b.transient_exhausted, t.s.disk_eios);
    ensure!(
        errors == retries + eio,
        "error completions {errors} != retries {retries} + EIOs {eio}"
    );
    ensure!(
        eio == hard + exhausted,
        "EIOs {eio} != hard errors {hard} + exhausted transients {exhausted}"
    );
    ensure!(
        bk.axes.disk_faults || errors + eios == 0,
        "healthy run produced disk errors: {errors} completions, {eios} EIOs"
    );
    Ok(())
}

fn bounded_retries(_: &Books, t: &Totals) -> Verdict {
    let (attempts, cap) = (t.bio.max_attempts, ffs::MAX_IO_RETRIES);
    ensure!(
        attempts <= cap,
        "a request was attempted {attempts} times, cap is {cap}"
    );
    Ok(())
}

/// Per client and direction: every segment ever sent is acked, in flight,
/// or tracked as lost, and every segment that survived the link was
/// delivered exactly once.
fn tcp_books(bk: &Books, _: &Totals) -> Verdict {
    if bk.transport != TransportKind::Tcp {
        return Ok(());
    }
    for cl in 0..bk.axes.clients {
        let Some((c2s, s2c)) = bk.w.tcp_stats_for(cl) else {
            return Err(format!("client {cl}: TCP run has no TCP stream stats"));
        };
        for (dir, t, link) in [
            ("c2s", c2s, bk.w.c2s_stats_for(cl)),
            ("s2c", s2c, bk.w.s2c_stats_for(cl)),
        ] {
            let (sent, acked, flying, lost) =
                (t.segments_sent, t.acked, t.in_flight, t.lost_tracked);
            ensure!(
                sent == acked + flying + lost,
                "client {cl} {dir}: segments_sent {sent} != acked {acked} \
                 + in_flight {flying} + lost_tracked {lost}"
            );
            let (delivered, msgs, dropped) = (t.delivered, link.messages, link.lost);
            ensure!(
                delivered == msgs - dropped,
                "client {cl} {dir}: delivered {delivered} != link messages {msgs} - lost {dropped}"
            );
        }
    }
    Ok(())
}

fn tcp_order(bk: &Books, _: &Totals) -> Verdict {
    for cl in 0..bk.axes.clients {
        if let Some((c2s, s2c)) = bk.w.tcp_stats_for(cl) {
            for (dir, t) in [("c2s", c2s), ("s2c", s2c)] {
                let bad = t.order_violations;
                ensure!(
                    bad == 0,
                    "client {cl} {dir}: {bad} in-order delivery violations"
                );
            }
        }
    }
    Ok(())
}

/// The only way a client sees a verifier mismatch is an injected restart,
/// and the only way a block is rewritten is a detected mismatch.
fn crash_detection(_: &Books, t: &Totals) -> Verdict {
    let (mismatches, rewritten) = (t.c.verifier_mismatches, t.c.blocks_rewritten);
    ensure!(
        mismatches == 0 || t.s.restarts > 0,
        "{mismatches} verifier mismatches with zero server restarts"
    );
    ensure!(
        rewritten == 0 || mismatches > 0,
        "{rewritten} blocks rewritten with no verifier mismatch detected"
    );
    Ok(())
}

/// A FILE_SYNC run never wakes the async write machinery.
fn async_dormancy(bk: &Books, t: &Totals) -> Verdict {
    let (c, s) = (&t.c, &t.s);
    let books = [
        ("server unstable writes", s.unstable_writes),
        ("commits", s.commits),
        ("stashed", s.dirty_blocks_stashed),
        ("client write RPCs", c.write_rpcs),
        ("commit RPCs", c.commit_rpcs),
        ("mismatches", c.verifier_mismatches),
        ("rewritten", c.blocks_rewritten),
    ];
    ensure!(
        bk.axes.workload == Workload::WriteLoss || books.iter().all(|b| b.1 == 0),
        "FILE_SYNC run touched the async write path: {books:?}"
    );
    Ok(())
}

/// Every getattr-class op is a local hit or exactly one wire GETATTR,
/// every wire GETATTR is a cold miss or a revalidation, and a staleness
/// detection can only come out of a revalidation.
fn attrcache_books(bk: &Books, t: &Totals) -> Verdict {
    if bk.axes.workload != Workload::MetaStorm {
        return Ok(());
    }
    let c = &t.c;
    let (hits, wire, ops) = (
        c.attr_cache_hits,
        c.getattr_rpcs,
        bk.predicted_getattr_class,
    );
    let (misses, revals, stale) = (
        c.attr_cache_misses,
        c.attr_revalidations,
        c.attr_stale_detected,
    );
    ensure!(
        hits + wire == ops,
        "hits {hits} + wire GETATTRs {wire} != getattr-class ops issued {ops}"
    );
    ensure!(
        wire == misses + revals,
        "wire GETATTRs {wire} != misses {misses} + revalidations {revals}"
    );
    ensure!(
        stale <= revals,
        "{stale} staleness detections exceed {revals} revalidations"
    );
    Ok(())
}

/// With the cache disarmed every attribute-cache counter and the entry
/// table stay zero: the machinery is provably inert by default.
fn attrcache_dormancy(bk: &Books, t: &Totals) -> Verdict {
    let c = &t.c;
    let entries: usize = (0..bk.axes.clients)
        .map(|i| bk.w.attr_cache_entries(i))
        .sum();
    let books = [
        ("hits", c.attr_cache_hits),
        ("misses", c.attr_cache_misses),
        ("revalidations", c.attr_revalidations),
        ("stale", c.attr_stale_detected),
        ("invalidations", c.attr_invalidations),
        ("entries", entries as u64),
    ];
    ensure!(
        bk.axes.workload == Workload::MetaStorm || books.iter().all(|b| b.1 == 0),
        "disarmed cache moved: {books:?}"
    );
    Ok(())
}

/// The streaming [`LogHist`] agrees with the exact (sorted) latencies:
/// counts and extremes match, quantiles are monotone and each within the
/// documented relative error (1/64 bucket width; 1/32 plus a nanosecond
/// of slack for midpoint reporting), and the tail fits inside the run.
fn latency_histogram(bk: &Books, _: &Totals) -> Verdict {
    let Some((hist, exact)) = &bk.lat else {
        return Ok(());
    };
    let (count, recorded) = (hist.total(), exact.len());
    ensure!(
        count == recorded as u64,
        "histogram count {count} != completions recorded {recorded}"
    );
    let (Some(&lo), Some(&hi)) = (exact.first(), exact.last()) else {
        return Ok(());
    };
    let (min, max) = (hist.min(), hist.max());
    ensure!(
        min == Some(lo) && max == Some(hi),
        "extremes drifted: hist {min:?}..{max:?} vs exact {lo}..{hi}"
    );
    let mut prev = 0u64;
    for q in [0.50, 0.90, 0.99, 0.999] {
        let (h, p) = (hist.quantile(q).expect("non-empty"), q * 100.0);
        ensure!(h >= prev, "quantiles not monotone at p{p}");
        prev = h;
        let e = exact[(q * (recorded - 1) as f64).floor() as usize];
        let tol = e / 32 + 1;
        ensure!(
            h.abs_diff(e) <= tol,
            "p{p} drifted: streaming {h} vs exact {e} (tol {tol})"
        );
    }
    let run = bk.last_now.as_nanos();
    ensure!(
        prev <= run,
        "p99.9 {prev} ns exceeds the whole run ({run} ns)"
    );
    Ok(())
}
