//! The access-event stream: one hook the simulator feeds every lane
//! access, child launch, wave boundary, barrier and host write into,
//! and the shared bookkeeping both observers of that stream need.
//!
//! Two consumers read the stream: the dynamic sanitizer
//! ([`crate::san`]), which judges the interleaving that ran, and the
//! access-IR recorder ([`crate::ir`]), which retains a bounded
//! per-window summary for the static verifier. Everything they agree
//! on lives here exactly once: the wave counter, the current kernel,
//! stream and snapshot flag, the [`Accessor`] identity, the
//! race-window close rule and the per-gang child-launch tally. Each
//! consumer keeps only what differs.
//!
//! A *race window* is one synchronous kernel launch, or — for task
//! waves of a persistent kernel — everything since the last grid-wide
//! barrier ([`crate::Device::charge_barrier`]): §4.3's asynchronous
//! phase 1 runs many waves with no barrier, so conflicts across those
//! waves are real on hardware.
//!
//! Disarmed (the default) the device holds no stream and every hook
//! is a single `Option` branch; armed, the stream is purely
//! observational and results, timing and counters stay bit-identical.

use std::collections::BTreeMap;

use crate::buffer::{Arena, Buf};
use crate::ir::IrState;
use crate::san::SanState;

/// What one event did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// Plain global load (snapshot semantics in synchronous kernels).
    PlainLoad = 0,
    /// Volatile/L2-coherent load (live memory, the sanctioned racy read).
    VolatileLoad = 1,
    /// Plain global store.
    Store = 2,
    /// Atomic read-modify-write (all four flavours).
    Atomic = 3,
    /// Plain store into a slot range reserved by a gang-collective
    /// tail bump ([`crate::Lane::gang_push`]): atomic-strength publish
    /// discipline at plain-store cost, sanctioned against atomics and
    /// volatile readers.
    ReservedStore = 4,
    /// Dynamic-parallelism child launch (touches no word).
    ChildLaunch = 5,
}

/// One event of the stream.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AccessEvent {
    pub(crate) kind: AccessKind,
    /// Flat device byte address of the word (0 for child launches).
    pub(crate) addr: u64,
    /// Label of the buffer holding the word.
    pub(crate) buffer: &'static str,
    /// Word index within the buffer.
    pub(crate) index: u32,
    /// Physical lane id ([`crate::Lane::phys_id`]).
    pub(crate) lane: u64,
    /// Gang/item id (`tid`; equals the lane for plain launches).
    pub(crate) gang: u64,
    /// Whether the op read a word never written since alloc/recycle.
    pub(crate) poisoned: bool,
    /// Logical pushes (or drops) the one instruction covers: 1, except
    /// for a gang-aggregated queue bump.
    pub(crate) covers: u64,
}

impl AccessEvent {
    /// An access to `buf[idx]`. `reads` says whether the op's effect
    /// depends on the word's old value — only then can it observe
    /// poison. Plain loads see the poison of the word they actually
    /// read (the kernel-entry snapshot in synchronous kernels); every
    /// other read sees live memory.
    pub(crate) fn word(
        arena: &Arena,
        kind: AccessKind,
        buf: Buf,
        idx: u32,
        lane: u64,
        gang: u64,
        reads: bool,
    ) -> Self {
        let poisoned = reads
            && if kind == AccessKind::PlainLoad {
                arena.poisoned_visible(buf, idx)
            } else {
                arena.poisoned_live(buf, idx)
            };
        Self {
            kind,
            addr: arena.addr(buf, idx),
            buffer: arena.label(buf),
            index: idx,
            lane,
            gang,
            poisoned,
            covers: 1,
        }
    }

    /// A child-kernel launch by `lane` of gang item `gang`.
    pub(crate) fn child_launch(lane: u64, gang: u64) -> Self {
        Self {
            kind: AccessKind::ChildLaunch,
            addr: 0,
            buffer: "",
            index: 0,
            lane,
            gang,
            poisoned: false,
            covers: 1,
        }
    }
}

/// Identity of one access. `(wave, lane)` is the *thread key*: two
/// accesses sharing it are program-ordered; any two accesses in the
/// same window with different keys are concurrent under some schedule
/// (the same lane index in a *different* wave is a different thread —
/// waves of a session overlap on hardware).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Accessor {
    /// Wave counter at access time (monotonic while anything is armed).
    pub wave: u64,
    /// Physical lane id ([`crate::Lane::phys_id`]).
    pub lane: u64,
    /// Gang/item id (`tid`; equals the lane for plain launches).
    pub gang: u64,
    /// Kernel name the access ran under.
    pub kernel: &'static str,
}

impl Accessor {
    /// Same simulated thread — program order applies.
    #[inline]
    pub fn same_thread(&self, other: &Self) -> bool {
        self.wave == other.wave && self.lane == other.lane
    }
}

/// The wave the stream is currently in, as both consumers see it.
#[derive(Clone, Debug, Default)]
pub(crate) struct WaveCtx {
    /// Waves begun since the stream was created.
    pub(crate) wave: u64,
    pub(crate) kernel: &'static str,
    /// Command stream the wave was issued on (attribution).
    pub(crate) stream: u32,
    /// Synchronous kernel: its own race window, plain loads read the
    /// kernel-entry snapshot. Cleared when the wave ends.
    pub(crate) snapshot: bool,
    /// Child launches of the current wave: (gang item, lane) →
    /// launches. BTreeMap so end-of-wave sweeps are deterministic and
    /// group each gang's lanes together.
    pub(crate) children: BTreeMap<(u64, u64), u64>,
}

impl WaveCtx {
    pub(crate) fn accessor(&self, lane: u64, gang: u64) -> Accessor {
        Accessor { wave: self.wave, lane, gang, kernel: self.kernel }
    }
}

/// The armed stream: shared wave state plus whichever consumers are
/// armed. Created when the first consumer arms, dropped when the last
/// disarms, so the wave counter restarts with a fresh arming.
#[derive(Default)]
pub(crate) struct AccessStream {
    pub(crate) ctx: WaveCtx,
    pub(crate) san: Option<SanState>,
    pub(crate) ir: Option<IrState>,
}

impl AccessStream {
    /// A wave (one `execute` call) begins. A synchronous kernel orders
    /// memory on its stream: the window accumulating so far closes, and
    /// the kernel becomes its own window.
    pub(crate) fn begin_wave(&mut self, kernel: &'static str, snapshot: bool, stream: u32) {
        if snapshot {
            self.close_window();
        }
        let ctx = &mut self.ctx;
        ctx.wave += 1;
        ctx.kernel = kernel;
        ctx.snapshot = snapshot;
        ctx.stream = stream;
        ctx.children.clear();
        if let Some(san) = &mut self.san {
            san.begin_wave(ctx);
        }
        if let Some(ir) = &mut self.ir {
            ir.begin_wave(ctx);
        }
    }

    /// The wave finished (lane bodies and flush): run the consumers'
    /// end-of-wave gang checks, then close a synchronous kernel's window.
    pub(crate) fn end_wave(&mut self) {
        if let Some(san) = &mut self.san {
            san.end_wave(&self.ctx);
        }
        if let Some(ir) = &mut self.ir {
            ir.end_wave(&self.ctx);
        }
        if self.ctx.snapshot {
            self.close_window();
            self.ctx.snapshot = false;
        }
    }

    /// A grid-wide barrier: every pre-barrier access is ordered before
    /// every post-barrier one, so the window closes.
    pub(crate) fn barrier(&mut self) {
        self.close_window();
    }

    /// The one access hook.
    pub(crate) fn access(&mut self, ev: AccessEvent) {
        if ev.kind == AccessKind::ChildLaunch {
            *self.ctx.children.entry((ev.gang, ev.lane)).or_insert(0) += 1;
        }
        let who = self.ctx.accessor(ev.lane, ev.gang);
        if let Some(san) = &mut self.san {
            san.access(&self.ctx, who, &ev);
        }
        if let Some(ir) = &mut self.ir {
            ir.access(who, &ev);
        }
    }

    /// Host-side word write (between waves).
    pub(crate) fn host_write(&mut self, addr: u64, val: u32) {
        if let Some(ir) = &mut self.ir {
            ir.host_write(addr, val);
        }
    }

    fn close_window(&mut self) {
        if let Some(san) = &mut self.san {
            san.close_window();
        }
        if let Some(ir) = &mut self.ir {
            ir.close_window(self.ctx.snapshot);
        }
    }
}

#[cfg(test)]
impl AccessStream {
    /// Feed one word access straight into the stream (consumer tests).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn at(
        &mut self,
        kind: AccessKind,
        addr: u64,
        lane: u64,
        gang: u64,
        buffer: &'static str,
        index: u32,
        poisoned: bool,
    ) {
        self.access(AccessEvent { kind, addr, buffer, index, lane, gang, poisoned, covers: 1 });
    }
}
