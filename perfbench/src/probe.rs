//! Host-time spans around the public calls the workloads make into each
//! layer.
//!
//! Each workload is generic over [`Probe`]: the untraced run uses
//! [`Untraced`], which compiles to the bare call, so end-to-end numbers
//! carry no tracing cost. The traced run uses [`Tracer`], which keeps
//! every span in memory as a per-name call count and total, for the
//! caller to write out when the run ends.

use std::time::{Duration, Instant};

/// One public entry point of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `testbed::Rig::build_fs`: drive model, partition, format.
    BuildFs,
    /// `NfsWorld::new`: client, transports, server.
    WorldNew,
    /// `NfsWorld::create_file`: inode and block allocation.
    CreateFile,
    /// `nfstrace::tree` synthesis of the tree and its walk.
    TraceGen,
    /// `FleetWorld::new`: every group's world and schedule.
    FleetNew,
    /// `FleetWorld::run`: the sharded run to quiescence.
    FleetRun,
    /// Issuing one process-level op (`read`, `write`, `close`,
    /// `getattr`, `lookup_from`, `readdir_from`).
    Issue,
    /// `NfsWorld::advance`.
    Advance,
    /// `NfsWorld::next_event`.
    NextEvent,
}

impl Span {
    /// Every span, in reporting order.
    pub const ALL: [Span; 9] = [
        Span::BuildFs,
        Span::WorldNew,
        Span::CreateFile,
        Span::TraceGen,
        Span::FleetNew,
        Span::FleetRun,
        Span::Issue,
        Span::Advance,
        Span::NextEvent,
    ];

    /// `layer.call` name the per-layer metrics are reported under.
    pub fn name(self) -> &'static str {
        match self {
            Span::BuildFs => "testbed.build_fs",
            Span::WorldNew => "nfssim.world_new",
            Span::CreateFile => "nfssim.create_file",
            Span::TraceGen => "nfstrace.gen",
            Span::FleetNew => "nfscluster.fleet_new",
            Span::FleetRun => "nfscluster.fleet_run",
            Span::Issue => "nfssim.issue",
            Span::Advance => "nfssim.advance",
            Span::NextEvent => "nfssim.next_event",
        }
    }

    /// Whether the span belongs to set-up (before the first op) rather
    /// than the timed phase.
    pub fn is_setup(self) -> bool {
        matches!(
            self,
            Span::BuildFs | Span::WorldNew | Span::CreateFile | Span::TraceGen | Span::FleetNew
        )
    }
}

/// Wraps calls into the simulator.
pub trait Probe {
    /// Runs `f` as one call of `span`.
    fn span<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R;
}

/// No tracing: the call and nothing else.
#[derive(Debug, Default, Clone, Copy)]
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn span<R>(&mut self, _span: Span, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// In-memory span books: calls and host time per span name.
#[derive(Debug, Default, Clone)]
pub struct Tracer {
    calls: [u64; Span::ALL.len()],
    time: [Duration; Span::ALL.len()],
}

impl Probe for Tracer {
    #[inline]
    fn span<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let i = span as usize;
        self.time[i] += t0.elapsed();
        self.calls[i] += 1;
        r
    }
}

impl Tracer {
    /// Calls recorded for `span`.
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize]
    }

    /// Host seconds spent inside `span`.
    pub fn secs(&self, span: Span) -> f64 {
        self.time[span as usize].as_secs_f64()
    }
}
