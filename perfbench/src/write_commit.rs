//! `write_commit`: closed-loop UNSTABLE writers, each closing its file
//! with a COMMIT.
//!
//! Each writer process writes its own file front to back in 8 KB writes,
//! issuing the next one a think time after the previous returns, then
//! closes it. The close only returns once every block is on stable
//! storage, so the run checks exactly that when it does.
//!
//! On an UNSTABLE mount a write returns as soon as its data sits in the
//! client's write-behind cache, a fixed local cost that says nothing
//! about the server. Timing that is the trap the async write path sets
//! for benchmarks, so a write's latency here runs from its issue until
//! its block, and every earlier block of its file, is durable on the
//! server. A close's latency is the close's own.

use nfsproto::{FileHandle, StableHow};
use nfssim::{NfsWorld, OpId, WorldConfig};
use simcore::{SimDuration, SimTime};
use testbed::Rig;

use crate::ledger::{world_layers, Ledger, Outcome};
use crate::probe::{Probe, Span};

/// Bytes per write (one file-system block).
const WRITE_BYTES: u64 = 8_192;

/// Shape of the workload.
#[derive(Debug, Clone, Copy)]
pub struct WriteCommit {
    /// Writer processes, one file each.
    pub writers: usize,
    /// Megabytes each writer writes before its close.
    pub file_mb: u64,
    /// Writer CPU time between one write's return and the next issue.
    pub think: SimDuration,
}

impl Default for WriteCommit {
    /// Four writers of 32 MB: 128 MB, inside the server's buffer cache.
    /// A 40 ms think time keeps the offered 0.8 MB/s under what the
    /// server's one-block gather flushes make durable, so latency
    /// measures service, not a growing backlog.
    fn default() -> Self {
        WriteCommit {
            writers: 4,
            file_mb: 32,
            think: SimDuration::from_millis(40),
        }
    }
}

/// A formatted server with the files created, ready for the first write.
#[derive(Debug)]
pub struct Prepared {
    world: NfsWorld,
    files: Vec<FileHandle>,
    blocks: u64,
    think: SimDuration,
}

impl WriteCommit {
    /// Builds the `ide1` rig and an UNSTABLE-mount world from `seed` and
    /// creates one file per writer.
    pub fn setup<P: Probe>(&self, seed: u64, p: &mut P) -> Prepared {
        let blocks = self.file_mb * 1024 * 1024 / WRITE_BYTES;
        let config = WorldConfig {
            stable_how: StableHow::Unstable,
            ..WorldConfig::default()
        };
        let fs = p.span(Span::BuildFs, || Rig::ide(1).build_fs(seed));
        let mut world = p.span(Span::WorldNew, || NfsWorld::new(config, fs, seed));
        let files = (0..self.writers)
            .map(|_| p.span(Span::CreateFile, || world.create_file(blocks * WRITE_BYTES)))
            .collect();
        Prepared {
            world,
            files,
            blocks,
            think: self.think,
        }
    }
}

struct Writer {
    fh: FileHandle,
    /// Issue time of each block's write, in block order.
    issued: Vec<SimTime>,
    /// Blocks known durable, as a prefix of the file.
    durable: usize,
    /// When the writer's think time ends and it issues its next op.
    due: Option<SimTime>,
    op: Option<OpId>,
    closing: bool,
}

impl Writer {
    /// Issues the next write at its due time, or the close once every
    /// block is written.
    fn issue_next<P: Probe>(
        &mut self,
        world: &mut NfsWorld,
        p: &mut P,
        blocks: u64,
        tag: u64,
    ) -> OpId {
        let at = self.due.take().expect("issued only when due");
        let next = self.issued.len() as u64;
        let id = if next < blocks {
            self.issued.push(at);
            let off = next * WRITE_BYTES;
            p.span(Span::Issue, || {
                world.write(at, self.fh, off, WRITE_BYTES, tag)
            })
        } else {
            self.closing = true;
            p.span(Span::Issue, || world.close(at, self.fh, tag))
        };
        self.op = Some(id);
        id
    }
}

impl Prepared {
    /// Runs every writer through its writes and its close.
    ///
    /// A writer's next op is issued only once the world has run up to
    /// its due time, never ahead of the world's clock: a close issued in
    /// the simulated future could be finished by replies that arrive
    /// before it was issued.
    pub fn run<P: Probe>(&mut self, p: &mut P) -> Outcome {
        let (world, blocks) = (&mut self.world, self.blocks);
        let start = world.now();
        let ops = self.files.len() * (blocks as usize + 1);
        let mut ledger = Ledger::new(start, ops);
        let mut writers: Vec<Writer> = self
            .files
            .iter()
            .map(|&fh| Writer {
                fh,
                issued: Vec::with_capacity(blocks as usize),
                durable: 0,
                due: Some(start),
                op: None,
                closing: false,
            })
            .collect();
        let (mut stray, mut not_durable) = (0u64, 0u64);
        let mut pending = writers.len();
        while pending > 0 {
            let next_event = p.span(Span::NextEvent, || world.next_event());
            let due = (0..writers.len())
                .filter_map(|i| writers[i].due.map(|t| (t, i)))
                .min();
            if let Some((at, i)) = due.filter(|&(at, _)| next_event.is_none_or(|t| at <= t)) {
                debug_assert!(at >= world.now());
                ledger.issue(writers[i].issue_next(world, p, blocks, i as u64));
                continue;
            }
            let Some(t) = next_event else { break };
            for d in p.span(Span::Advance, || world.advance(t)) {
                let w = &mut writers[d.tag as usize];
                if w.op.take() != Some(d.id) {
                    ledger.complete(&d);
                    stray += 1;
                    continue;
                }
                if !w.closing {
                    ledger.complete_unsampled(&d);
                    w.due = Some(d.done_at + self.think);
                    continue;
                }
                ledger.complete(&d);
                not_durable += (0..blocks).filter(|&b| !world.is_durable(w.fh, b)).count() as u64;
                pending -= 1;
            }
            // Everything `advance` did happened at `t`.
            for w in &mut writers {
                while w.durable < w.issued.len() && world.is_durable(w.fh, w.durable as u64) {
                    ledger.sample(t.since(w.issued[w.durable]));
                    w.durable += 1;
                }
            }
        }
        let mut out = ledger.finish();
        let mismatches = world.client_stats().verifier_mismatches;
        out.check(pending == 0, || format!("{pending} writers stalled"));
        out.check(stray == 0, || {
            format!("{stray} completions matched no writer's op")
        });
        out.check(not_durable == 0, || {
            format!("{not_durable} blocks not durable after their file's close")
        });
        let (samples, attempted) = (out.samples, out.attempted);
        out.check(samples == attempted, || {
            format!("{samples} latency samples for {attempted} ops")
        });
        out.check(mismatches == 0, || {
            format!("{mismatches} verifier mismatches")
        });
        out.layers = world_layers(world);
        out
    }
}
