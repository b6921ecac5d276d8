//! `read_evict`: the §4.2 / Figure 4 cell with a working set larger than
//! the server's buffer cache.
//!
//! Closed loop: each reader process reads its own file front to back in
//! 8 KB reads over UDP and issues the next read 15 µs (its CPU cost)
//! after the previous one returns — the loop `testbed::NfsBench::run`
//! drives, with the same world calls in the same order.

use nfsproto::FileHandle;
use nfssim::{NfsWorld, OpId, WorldConfig};
use simcore::{SimDuration, SimTime};
use testbed::Rig;

use crate::ledger::{world_layers, Ledger, Outcome};
use crate::probe::{Probe, Span};

/// Per-read CPU cost charged to a reader (`testbed`'s `PROC_READ_CPU`).
const THINK: SimDuration = SimDuration::from_micros(15);
/// Bytes per read (rsize).
const READ_BYTES: u64 = 8_192;

/// Shape of the workload.
#[derive(Debug, Clone, Copy)]
pub struct ReadEvict {
    /// Reader processes, one file each.
    pub readers: usize,
    /// Megabytes read in total (split evenly over the readers).
    pub total_mb: u64,
}

impl Default for ReadEvict {
    /// Eight readers, 256 MB: past the server's 20k-block (160 MB)
    /// buffer cache.
    fn default() -> Self {
        ReadEvict {
            readers: 8,
            total_mb: 256,
        }
    }
}

/// A formatted server with the files created, ready for the first read.
#[derive(Debug)]
pub struct Prepared {
    world: NfsWorld,
    files: Vec<FileHandle>,
    per_file: u64,
}

impl ReadEvict {
    /// Builds the `ide1` rig and stock world from `seed` and creates one
    /// file per reader.
    pub fn setup<P: Probe>(&self, seed: u64, p: &mut P) -> Prepared {
        assert!(self.readers > 0 && self.total_mb.is_multiple_of(self.readers as u64));
        let per_file = self.total_mb / self.readers as u64 * 1024 * 1024;
        let fs = p.span(Span::BuildFs, || Rig::ide(1).build_fs(seed));
        let mut world = p.span(Span::WorldNew, || {
            NfsWorld::new(WorldConfig::default(), fs, seed)
        });
        let files = (0..self.readers)
            .map(|_| p.span(Span::CreateFile, || world.create_file(per_file)))
            .collect();
        world.flush_all_caches();
        world.reset_client_heuristics();
        Prepared {
            world,
            files,
            per_file,
        }
    }
}

struct Reader {
    fh: FileHandle,
    offset: u64,
    op: Option<OpId>,
    finished: Option<SimTime>,
}

impl Prepared {
    /// Runs every reader to the end of its file.
    pub fn run<P: Probe>(&mut self, p: &mut P) -> Outcome {
        let world = &mut self.world;
        let start = world.now();
        let total = self.per_file * self.files.len() as u64;
        let mut ledger = Ledger::new(start, (total / READ_BYTES) as usize);
        let mut readers: Vec<Reader> = self
            .files
            .iter()
            .map(|&fh| Reader {
                fh,
                offset: 0,
                op: None,
                finished: None,
            })
            .collect();
        for (i, r) in readers.iter_mut().enumerate() {
            let id = p.span(Span::Issue, || {
                world.read(start, r.fh, 0, READ_BYTES, i as u64)
            });
            ledger.issue(id);
            r.op = Some(id);
            r.offset = READ_BYTES;
        }
        let mut bytes_ok = 0u64;
        let mut stray = 0u64;
        let mut pending = readers.len();
        while pending > 0 {
            let Some(t) = p.span(Span::NextEvent, || world.next_event()) else {
                break;
            };
            for d in p.span(Span::Advance, || world.advance(t)) {
                if ledger.complete(&d) {
                    bytes_ok += READ_BYTES;
                }
                let r = &mut readers[d.tag as usize];
                if r.op.take() != Some(d.id) {
                    stray += 1;
                    continue;
                }
                if r.offset >= self.per_file {
                    r.finished = Some(d.done_at);
                    pending -= 1;
                    continue;
                }
                let (at, offset) = (d.done_at + THINK, r.offset);
                let id = p.span(Span::Issue, || {
                    world.read(at, r.fh, offset, READ_BYTES, d.tag)
                });
                ledger.issue(id);
                r.op = Some(id);
                r.offset += READ_BYTES;
            }
        }
        let mut out = ledger.finish();
        out.check(pending == 0, || format!("{pending} readers stalled"));
        out.check(stray == 0, || {
            format!("{stray} completions matched no reader's op")
        });
        out.check(bytes_ok == total, || {
            format!("read {bytes_ok} bytes, expected {total}")
        });
        out.finish_secs = readers
            .iter()
            .filter_map(|r| r.finished)
            .map(|t| t.saturating_since(start).as_secs_f64())
            .collect();
        out.finish_secs.sort_by(f64::total_cmp);
        out.layers = world_layers(world);
        out
    }
}
