//! `meta_walk`: an `nfstrace::tree` build-tree walk storm replayed open
//! loop with the client attribute cache armed.
//!
//! Every record is issued at its own time whatever the world's backlog,
//! and its latency runs from that due time — the loop of
//! `testbed::replay`. GETATTR, LOOKUP and READDIR never reach the disk,
//! so this workload loads the event loop, the RPC path and the attribute
//! cache and nothing below them.

use std::collections::BTreeMap;

use nfsproto::FileHandle;
use nfssim::{NfsWorld, WorldConfig};
use nfstrace::{build_tree, tree_walk, BuildSpec, Trace, TraceOp};
use simcore::{SimDuration, SimRng, SimTime};
use testbed::Rig;

use crate::ledger::{world_layers, Ledger, Outcome};
use crate::probe::{Probe, Span};

/// Shape of the workload.
#[derive(Debug, Clone, Copy)]
pub struct MetaWalk {
    /// Tree and walker parameters.
    pub spec: BuildSpec,
}

impl Default for MetaWalk {
    /// Depth 6 and eight walkers over the default fan-out: 830,056 ops,
    /// each walker issuing every 4 ms on average.
    fn default() -> Self {
        MetaWalk {
            spec: BuildSpec {
                depth: 6,
                clients: 8,
                inter_arrival_us: 4_000.0,
                ..BuildSpec::default()
            },
        }
    }
}

/// The mount configuration: stock, with 3 s / 60 s attribute timeouts.
pub fn config() -> WorldConfig {
    WorldConfig {
        attr_timeo_min: SimDuration::from_secs(3),
        attr_timeo_max: SimDuration::from_secs(60),
        ..WorldConfig::default()
    }
}

/// The walk trace `seed` generates for `spec`.
pub fn walk_trace(spec: &BuildSpec, seed: u64) -> Trace {
    let mut rng = SimRng::new(seed);
    let tree = build_tree(spec, &mut rng);
    tree_walk(&tree, spec, &mut rng)
}

/// The generated trace on a world that holds every file it names.
#[derive(Debug)]
pub struct Prepared {
    world: NfsWorld,
    trace: Trace,
    handles: BTreeMap<u64, FileHandle>,
}

impl MetaWalk {
    /// Generates the walk from `seed`, builds the `ide1` rig and world,
    /// and creates each traced file large enough for its largest access,
    /// in handle order.
    pub fn setup<P: Probe>(&self, seed: u64, p: &mut P) -> Prepared {
        let trace = p.span(Span::TraceGen, || walk_trace(&self.spec, seed));
        let fs = p.span(Span::BuildFs, || Rig::ide(1).build_fs(seed));
        let mut world = p.span(Span::WorldNew, || NfsWorld::new(config(), fs, seed));
        let mut max_end: BTreeMap<u64, u64> = BTreeMap::new();
        for r in &trace.records {
            let end = r.offset + u64::from(r.len).max(1);
            let e = max_end.entry(r.fh).or_insert(0);
            *e = (*e).max(end);
        }
        let handles = max_end
            .into_iter()
            .map(|(fh, end)| {
                let size = end.div_ceil(65_536) * 65_536;
                (fh, p.span(Span::CreateFile, || world.create_file(size)))
            })
            .collect();
        Prepared {
            world,
            trace,
            handles,
        }
    }
}

impl Prepared {
    /// Replays the walk to the last completion.
    pub fn run<P: Probe>(&mut self, p: &mut P) -> Outcome {
        let world = &mut self.world;
        let mut ledger = Ledger::new(SimTime::ZERO, self.trace.len());
        let mut getattr_ops = 0u64;
        for (i, r) in self.trace.records.iter().enumerate() {
            let at = SimTime::ZERO + SimDuration::from_micros(r.time_us);
            // Drain everything due before this arrival.
            while let Some(t) = p.span(Span::NextEvent, || world.next_event()) {
                if t > at {
                    break;
                }
                for d in p.span(Span::Advance, || world.advance(t)) {
                    ledger.complete(&d);
                }
            }
            let fh = self.handles[&r.fh];
            let (len, tag) = (r.len.max(1), i as u64);
            let id = p.span(Span::Issue, || match r.op {
                TraceOp::Read => world.read(at, fh, r.offset, u64::from(len), tag),
                TraceOp::Write => world.write(at, fh, r.offset, u64::from(len), tag),
                TraceOp::Getattr => world.getattr(at, fh, tag),
                TraceOp::Lookup => world.lookup_from(0, at, fh, len, tag),
                TraceOp::Readdir => world.readdir_from(0, at, fh, r.offset, len, true, tag),
            });
            getattr_ops += u64::from(r.op == TraceOp::Getattr);
            ledger.issue(id);
        }
        while ledger.outstanding() > 0 {
            let Some(t) = p.span(Span::NextEvent, || world.next_event()) else {
                break;
            };
            for d in p.span(Span::Advance, || world.advance(t)) {
                ledger.complete(&d);
            }
        }
        let mut out = ledger.finish();
        let c = world.client_stats();
        out.check(c.attr_cache_hits + c.getattr_rpcs == getattr_ops, || {
            format!(
                "attr_cache_hits {} + getattr_rpcs {} != {getattr_ops} getattr ops",
                c.attr_cache_hits, c.getattr_rpcs
            )
        });
        out.layers = world_layers(world);
        out
    }
}
