//! Per-round resolution of the collision-prone broadcast channel.
//!
//! Implements the delivery rule of Section 2 of the paper:
//!
//! > there exists a round `rcf` such that in every round `r >= rcf`:
//! > if some source `pi` broadcasts a message `m` in round `r`, and
//! > (i) some non-failed receiver `pj` is within distance `R1` of
//! > `pi`, and (ii) no \[other\] node within distance `R2` of `pj`
//! > broadcasts in round `r`, then `pj` receives the message `m`.
//!
//! together with the collision-detector Properties 1 (completeness —
//! enforced structurally, in every round) and 2 (eventual accuracy —
//! enforced from round `racc` onwards).
//!
//! Nodes are half-duplex: a broadcaster does not receive other nodes'
//! messages in the same round (it does observe its own, which models
//! the sender knowing what it sent). Consequently two broadcasters
//! within `R1` of each other each *lose* the other's message, and
//! completeness forces both their detectors to report a collision —
//! exactly the behaviour contention management must eventually
//! eliminate.

use crate::adversary::Adversary;
use crate::config::RadioConfig;
use crate::engine::NodeId;
use crate::geometry::{Point, SpatialGrid};
use crate::pool::WorkerPool;
use rand::rngs::StdRng;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use vi_telemetry::{trace_export, Phase, Probe};

/// A node's transmission decision for one round.
#[derive(Clone, Debug)]
pub struct TxIntent<M> {
    /// The node making the decision.
    pub node: NodeId,
    /// Where the node currently is.
    pub pos: Point,
    /// `Some(payload)` to broadcast, `None` to listen.
    pub payload: Option<M>,
}

/// What one node observes at the end of a round: the received messages
/// plus the collision-detector output.
///
/// A borrowed view into engine-owned round storage (see
/// [`ReceptionBuffer`]), so delivering outcomes allocates nothing;
/// protocols copy out whatever they keep beyond the round.
#[derive(Clone, Copy, Debug)]
pub struct RoundReception<'a, M> {
    /// Messages received this round, in deterministic (sender) order.
    /// Senders are anonymous: the model gives nodes no unique
    /// identifiers, so payloads arrive unattributed.
    pub messages: &'a [M],
    /// Collision-detector output: `true` means the detector delivered
    /// the `±` indication to this node.
    pub collision: bool,
}

impl<M> RoundReception<'_, M> {
    /// `true` if nothing was received and no collision was indicated
    /// (the paper's "silent round" from this node's perspective).
    pub fn is_silent(&self) -> bool {
        self.messages.is_empty() && !self.collision
    }
}

/// Per-node reception with sender attribution, for traces and
/// debugging only (protocols receive the anonymous
/// [`RoundReception`]).
#[derive(Clone, Debug, PartialEq)]
pub struct AttributedReception<M> {
    /// The receiving node.
    pub node: NodeId,
    /// `(sender, payload)` pairs in sender order.
    pub messages: Vec<(NodeId, M)>,
    /// Collision-detector output.
    pub collision: bool,
}

impl<M> AttributedReception<M> {
    /// `true` if nothing was received and no collision was indicated.
    pub fn is_silent(&self) -> bool {
        self.messages.is_empty() && !self.collision
    }
}

/// Reusable SoA storage for one round of receptions: one entry per
/// intent, with all senders/payloads in two flat arrays sliced by
/// per-entry offsets.
///
/// This is the zero-allocation counterpart of
/// `Vec<AttributedReception<M>>`: clearing drops no per-entry `Vec`s,
/// and refilling reuses the flat buffers, so steady-state rounds make
/// no heap allocations once capacities have grown to the working-set
/// size.
#[derive(Clone, Debug)]
pub struct ReceptionBuffer<M> {
    nodes: Vec<NodeId>,
    collisions: Vec<bool>,
    /// `starts[k]..starts[k + 1]` slices `senders`/`messages` for
    /// entry `k` (always one more offset than entries).
    starts: Vec<u32>,
    senders: Vec<NodeId>,
    messages: Vec<M>,
}

impl<M> Default for ReceptionBuffer<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> ReceptionBuffer<M> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        ReceptionBuffer {
            nodes: Vec::new(),
            collisions: Vec::new(),
            starts: vec![0],
            senders: Vec::new(),
            messages: Vec::new(),
        }
    }

    /// Drops all entries, keeping every capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.collisions.clear();
        self.senders.clear();
        self.messages.clear();
        self.starts.clear();
        self.starts.push(0);
    }

    /// Number of complete entries.
    pub fn len(&self) -> usize {
        self.collisions.len()
    }

    /// `true` if the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.collisions.is_empty()
    }

    /// Opens the next entry. Must be balanced by
    /// [`ReceptionBuffer::finish`] after the entry's messages are
    /// pushed.
    pub fn begin(&mut self, node: NodeId) {
        debug_assert_eq!(self.nodes.len(), self.collisions.len(), "unbalanced begin");
        self.nodes.push(node);
    }

    /// Appends one received message to the open entry.
    pub fn push_message(&mut self, sender: NodeId, payload: M) {
        self.senders.push(sender);
        self.messages.push(payload);
    }

    /// Closes the open entry with the detector output.
    pub fn finish(&mut self, collision: bool) {
        self.collisions.push(collision);
        self.starts.push(self.messages.len() as u32);
    }

    /// The receiving node of entry `k`.
    pub fn node(&self, k: usize) -> NodeId {
        self.nodes[k]
    }

    /// The detector output of entry `k`.
    pub fn collision(&self, k: usize) -> bool {
        self.collisions[k]
    }

    fn range(&self, k: usize) -> std::ops::Range<usize> {
        self.starts[k] as usize..self.starts[k + 1] as usize
    }

    /// The senders of entry `k`'s messages, in message order.
    pub fn senders(&self, k: usize) -> &[NodeId] {
        &self.senders[self.range(k)]
    }

    /// The payloads of entry `k`, in sender order.
    pub fn messages(&self, k: usize) -> &[M] {
        &self.messages[self.range(k)]
    }

    /// Entry `k` as the anonymous view a protocol receives.
    pub fn reception(&self, k: usize) -> RoundReception<'_, M> {
        RoundReception {
            messages: self.messages(k),
            collision: self.collisions[k],
        }
    }

    /// Expands the buffer into owned per-entry receptions (tests and
    /// differential comparisons; allocates freely).
    pub fn to_attributed(&self) -> Vec<AttributedReception<M>>
    where
        M: Clone,
    {
        (0..self.len())
            .map(|k| AttributedReception {
                node: self.nodes[k],
                messages: self
                    .senders(k)
                    .iter()
                    .copied()
                    .zip(self.messages(k).iter().cloned())
                    .collect(),
                collision: self.collisions[k],
            })
            .collect()
    }
}

/// What happened to the node topology since the previous
/// [`Medium::resolve_round_cached`] call, as tracked by the caller
/// (the engine's dirty-set of movers plus its live-set comparison).
#[derive(Clone, Copy, Debug)]
pub enum TopologyDelta<'a> {
    /// The participant set changed, or the caller lost track: drop all
    /// cached neighborhoods and re-anchor the index.
    Rebuild,
    /// Same participants, every position unchanged.
    Unchanged,
    /// Same participants; exactly these intent slots changed position.
    Moved(&'a [u32]),
}

/// Which geometry source a sharded round reads (see
/// [`Medium::shard_geometry`]). Each variant mirrors one sequential
/// resolution path byte for byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShardMode {
    /// Steady cached round: the per-slot neighborhoods are valid, so
    /// workers only filter them down to the broadcasting subset.
    ScanCached,
    /// Re-anchor round: the full-topology grid was just rebuilt;
    /// workers recompute whole neighborhoods with one grid query each.
    RebuildAll,
    /// Churn-fallback round: the grid indexes this round's
    /// broadcasters only; workers query it and map grid slots back to
    /// intent indices.
    ChurnIndex,
}

/// Number of contiguous intent-slot chunks a sharded round is split
/// into. Fixed, so the chunk layout (and every scratch buffer's
/// contents) is the same at any worker count; 64 claims per round are
/// enough for the workers left running to absorb the share of one
/// that the host deschedules.
const SHARD_CHUNKS: usize = 64;

/// The intent slots chunk `c` of an `n`-slot round covers.
fn chunk_slots(c: usize, n: usize) -> std::ops::Range<usize> {
    c * n / SHARD_CHUNKS..(c + 1) * n / SHARD_CHUNKS
}

/// One chunk's geometry scratch: the concatenated `(slot, d²)`
/// candidate lists of the chunk's receivers, filled by whichever
/// worker claims the chunk and drained in intent order by the
/// sequential finalize phase. All buffers are reused round over round.
#[derive(Debug, Default)]
struct ChunkScratch {
    /// Offsets into `flat`: the chunk's `k`-th receiver's list is
    /// `flat[starts[k]..starts[k + 1]]` (one more offset than
    /// receivers).
    starts: Vec<u32>,
    /// Concatenated per-receiver `(slot, d²)` candidate lists.
    flat: Vec<(u32, f64)>,
    /// Grid query scratch.
    query: Vec<(u32, f64)>,
    /// The pool worker that claimed the chunk, and the wall-clock span
    /// of its pass in µs since the trace epoch. Written only when span
    /// tracing is on, read by the control thread after the broadcast.
    worker: usize,
    span_start_us: u64,
    span_end_us: u64,
}

/// [`UnsafeCell`] wrapper giving the worker that claims a chunk
/// exclusive mutable access to its scratch during a
/// [`WorkerPool::broadcast`]. Aligned so that no two chunks share a
/// cache line (or an adjacent-line prefetch pair).
#[repr(align(128))]
#[derive(Debug, Default)]
struct Chunk(UnsafeCell<ChunkScratch>);

// SAFETY: during a broadcast, a worker dereferences `chunks[c]` only
// after its `fetch_add` on the round's claim counter returned `c`, and
// the counter returns each index exactly once, so no chunk is reached
// by two workers. The broadcast returns only after every worker has
// finished the job, and the caller touches no chunk before that.
// Outside a broadcast the `Medium` reaches chunks through `&mut self`
// only, so no aliasing is possible.
unsafe impl Sync for Chunk {}

/// The shared broadcast medium: resolves rounds through a spatial
/// index with reusable per-round buffers.
///
/// This is the engine's hot path. The naive delivery rule is
/// O(receivers × broadcasters × nodes): for every (receiver,
/// broadcaster) pair it scans *all* broadcasters for an interferer.
/// `Medium` instead rebuilds a [`SpatialGrid`] over the round's
/// broadcasters (cell size `R2`) and answers "which broadcasters sit
/// within `R2` of this receiver?" with a 3×3-cell query, making the
/// round near-linear in the node count for bounded-density
/// deployments. All index and scratch buffers are owned by the
/// `Medium` and reused round over round, so resolution allocates
/// nothing in steady state beyond the delivered payloads themselves.
///
/// Observational equivalence with the naive rule is load-bearing:
/// [`Medium::resolve_into`] consults the [`Adversary`] for exactly the
/// same (round, sender, receiver) queries in exactly the same order as
/// [`resolve_round_reference`], so for any seed the two produce
/// byte-for-byte identical receptions, traces, and statistics (see the
/// differential tests in `tests/substrate_properties.rs`).
#[derive(Debug)]
pub struct Medium {
    cfg: RadioConfig,
    grid: SpatialGrid,
    /// Intent indices of this round's broadcasters.
    broadcasters: Vec<usize>,
    /// Broadcaster positions, parallel to `broadcasters` (grid input).
    broadcaster_pos: Vec<Point>,
    /// Scratch: grid query output (slots into `broadcasters`).
    candidates: Vec<u32>,
    /// Scratch: in-`R2` broadcaster intent indices, sorted ascending.
    neighbors: Vec<usize>,
    // --- cached-topology resolver state (resolve_round_cached) ---
    /// Whether `grid` + `nbr` currently describe a full node topology
    /// (as opposed to the legacy per-round broadcaster index).
    cache_ready: bool,
    /// Number of intent slots the cache covers.
    cached_n: usize,
    /// Scratch: all intent positions, for re-anchoring rebuilds.
    all_pos: Vec<Point>,
    /// Per-slot neighborhood: every other slot within `R2`, with its
    /// squared distance, ascending by slot.
    nbr: Vec<Vec<(u32, f64)>>,
    /// Scratch: which slots are moving this round (surgical updates).
    is_mover: Vec<bool>,
    /// Which slots broadcast this round (refreshed every round).
    is_tx: Vec<bool>,
    /// Scratch: a freshly queried neighborhood.
    fresh: Vec<(u32, f64)>,
    /// Scratch: the broadcasting subset of one receiver's neighborhood.
    txn: Vec<(u32, f64)>,
    /// Scratch: `(receiver << 32 | broadcaster, d²)` events for the
    /// sparse-broadcast scatter resolution.
    events: Vec<(u64, f64)>,
    // --- sharded parallel resolution state ---
    /// Intra-round worker pool (`None` = fully sequential).
    pool: Option<WorkerPool>,
    /// Smallest intent count worth sharding across the pool.
    shard_min_slots: usize,
    /// Geometry scratch of the [`SHARD_CHUNKS`] chunks (empty until
    /// the first sharded round).
    chunks: Vec<Chunk>,
    /// Telemetry handle (null by default: every site is one branch).
    /// Counter increments sit on the sequential control path only, so
    /// they are worker-count independent by construction.
    probe: Probe,
}

impl Medium {
    /// Movers-per-round threshold of the cached resolver: when more
    /// than one slot in `MOVER_REBUILD_NUM` moved, surgical
    /// neighborhood updates cost more than re-anchoring, so the round
    /// falls back to a full rebuild.
    const MOVER_REBUILD_NUM: usize = 4;

    /// Broadcaster-sparsity threshold of the scatter resolution: with
    /// fewer than one broadcaster per `SCATTER_MAX_TX_NUM` slots, the
    /// round is resolved by scattering from the broadcasters' cached
    /// neighborhoods instead of scanning every receiver's.
    const SCATTER_MAX_TX_NUM: usize = 8;

    /// Default smallest round (intent count) worth sharding:
    /// below this, waking and joining the pool outweighs the geometry
    /// work being parallelized, so small rounds stay sequential even
    /// when a pool is configured.
    const DEFAULT_SHARD_MIN_SLOTS: usize = 4096;

    /// Creates a medium for the given radio parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`RadioConfig::validate`]).
    pub fn new(cfg: RadioConfig) -> Self {
        cfg.validate().expect("invalid radio config");
        Medium {
            cfg,
            grid: SpatialGrid::new(cfg.r2),
            broadcasters: Vec::new(),
            broadcaster_pos: Vec::new(),
            candidates: Vec::new(),
            neighbors: Vec::new(),
            cache_ready: false,
            cached_n: 0,
            all_pos: Vec::new(),
            nbr: Vec::new(),
            is_mover: Vec::new(),
            is_tx: Vec::new(),
            fresh: Vec::new(),
            txn: Vec::new(),
            events: Vec::new(),
            pool: None,
            shard_min_slots: Self::DEFAULT_SHARD_MIN_SLOTS,
            chunks: Vec::new(),
            probe: Probe::disabled(),
        }
    }

    /// Installs a telemetry probe (a clone shares the caller's
    /// counters). The default probe is null and costs one branch.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Sets the intra-round worker count for sharded resolution.
    ///
    /// `0` and `1` resolve rounds fully sequentially (releasing any
    /// pool); `workers >= 2` spawns a persistent [`WorkerPool`] and
    /// resolves sufficiently large rounds (see
    /// [`Medium::set_shard_min_slots`]) with the geometry phase
    /// sharded across chunks of intent slots that the workers claim.
    ///
    /// Byte-identity is unconditional: at *any* worker count the
    /// resolver produces identical receptions, identical adversary
    /// consultation order, and an identical RNG stream, because
    /// workers only compute RNG-free geometry and the finalize phase
    /// replays the sequential order exactly.
    pub fn set_workers(&mut self, workers: usize) {
        if workers <= 1 {
            self.pool = None;
        } else if self.pool.as_ref().map(WorkerPool::workers) != Some(workers) {
            self.pool = Some(WorkerPool::new(workers));
        }
    }

    /// The configured intra-round worker count (`1` = sequential).
    pub fn workers(&self) -> usize {
        self.pool.as_ref().map_or(1, WorkerPool::workers)
    }

    /// Overrides the smallest round size worth sharding (clamped to at
    /// least 1). The default is tuned for real workloads; differential
    /// tests lower it to force the sharded path at toy sizes.
    pub fn set_shard_min_slots(&mut self, min: usize) {
        self.shard_min_slots = min.max(1);
    }

    /// Whether this round should take the sharded path: a pool is
    /// configured and the round is big enough to amortize the
    /// broadcast.
    fn shard_applicable(&self, n: usize) -> bool {
        self.pool.is_some() && n >= self.shard_min_slots
    }

    /// Parallel geometry phase of a sharded round.
    ///
    /// The round's `n` intent slots are split into [`SHARD_CHUNKS`]
    /// contiguous chunks. Every pool worker, the caller included,
    /// claims chunk indices from one shared counter until none are
    /// left, and fills each claimed chunk's scratch with its
    /// receivers' `(slot, d²)` candidate lists, which the finalize
    /// phase feeds to [`resolve_receiver`]. A worker the host
    /// deschedules therefore holds up only the chunk it is on, not a
    /// fixed share of the round. Receivers need no halo exchange: the
    /// grid is shared read-only and every query is exact, so each
    /// receiver sees exactly the broadcasters the sequential path
    /// sees.
    ///
    /// Workers are RNG-free and intent-free by construction (positions
    /// come from the grid, or from `all_pos` in churn mode), which is
    /// what makes the sharded path byte-identical at any worker count.
    fn shard_geometry(&mut self, mode: ShardMode, n: usize) {
        let pool = self.pool.as_ref().expect("sharding needs a pool");
        if self.chunks.is_empty() {
            self.chunks.resize_with(SHARD_CHUNKS, Chunk::default);
        }
        let grid = &self.grid;
        let nbr = &self.nbr;
        let is_tx = &self.is_tx;
        let broadcasters = &self.broadcasters;
        let all_pos = &self.all_pos;
        let chunks = &self.chunks[..];
        let r2 = self.cfg.r2;
        // The claim counter. `Relaxed` suffices: the read-modify-write
        // alone makes each index unique, and the chunks' contents
        // reach the caller through the pool's mutex when the broadcast
        // returns.
        let next = AtomicUsize::new(0);
        let next = &next;
        // Per-worker Perfetto spans: stamped into the claimed chunk
        // (wall-clock only, never read by the resolver), pushed to the
        // global collector by the control thread below.
        let spans_on = self.probe.is_enabled() && trace_export::tracing_enabled();
        let job = move |w: usize| loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= SHARD_CHUNKS {
                break;
            }
            // SAFETY: the counter returned `c` to this worker only,
            // and the broadcast below does not return until every
            // worker is done — see `Chunk`.
            let scratch = unsafe { &mut *chunks[c].0.get() };
            if spans_on {
                scratch.worker = w;
                scratch.span_start_us = trace_export::now_us();
            }
            scratch.flat.clear();
            scratch.starts.clear();
            scratch.starts.push(0);
            for rx in chunk_slots(c, n) {
                let rx = rx as u32;
                match mode {
                    ShardMode::ScanCached => {
                        // The broadcasting subset of the cached
                        // neighborhood, exactly as the sequential scan.
                        scratch.flat.extend(
                            nbr[rx as usize]
                                .iter()
                                .copied()
                                .filter(|&(i, _)| is_tx[i as usize]),
                        );
                    }
                    ShardMode::RebuildAll => {
                        // Recompute the *full* neighborhood, exactly as
                        // the sequential re-anchor loop; finalize both
                        // installs it in the cache and filters it.
                        scratch.query.clear();
                        grid.query_within_d2(grid.position(rx), r2, &mut scratch.query);
                        if let Ok(at) = scratch.query.binary_search_by_key(&rx, |&(i, _)| i) {
                            scratch.query.remove(at);
                        }
                        scratch.flat.extend_from_slice(&scratch.query);
                    }
                    ShardMode::ChurnIndex => {
                        // Broadcaster-only grid: map slots back to
                        // intent indices (ascending is preserved —
                        // `broadcasters` is sorted), exactly as the
                        // sequential churn loop.
                        scratch.query.clear();
                        grid.query_within_d2(all_pos[rx as usize], r2, &mut scratch.query);
                        scratch.flat.extend(
                            scratch
                                .query
                                .iter()
                                .map(|&(slot, d2)| (broadcasters[slot as usize] as u32, d2))
                                .filter(|&(i, _)| i != rx),
                        );
                    }
                }
                scratch.starts.push(scratch.flat.len() as u32);
            }
            if spans_on {
                scratch.span_end_us = trace_export::now_us();
            }
        };
        pool.broadcast(&job);
        if spans_on {
            // One span per worker, from its first claim to the end of
            // its last chunk.
            for w in 0..pool.workers() {
                let mut span: Option<(u64, u64)> = None;
                for chunk in &mut self.chunks {
                    let s = chunk.0.get_mut();
                    if s.worker == w {
                        span = Some(span.map_or((s.span_start_us, s.span_end_us), |(a, b)| {
                            (a.min(s.span_start_us), b.max(s.span_end_us))
                        }));
                    }
                }
                if let Some((start, end)) = span {
                    trace_export::record_span(
                        "shard-geometry",
                        "pool",
                        trace_export::PID_POOL,
                        w as u64,
                        start,
                        end - start,
                    );
                }
            }
        }
    }

    /// Sequential finalize phase of a sharded round: walks chunks
    /// `0..SHARD_CHUNKS` in order, which is ascending intent order —
    /// the canonical merge order — and runs the verbatim
    /// [`resolve_receiver`] delivery rule on each receiver's candidate
    /// list. Every adversary and RNG consultation happens here, on one
    /// thread, in exactly the sequential resolver's order.
    fn shard_finalize<M: Clone>(
        &mut self,
        mode: ShardMode,
        round: u64,
        intents: &[TxIntent<M>],
        adversary: &mut dyn Adversary,
        rng: &mut StdRng,
        out: &mut ReceptionBuffer<M>,
    ) {
        let cfg = self.cfg;
        let n = intents.len();
        for c in 0..SHARD_CHUNKS {
            let slots = chunk_slots(c, n);
            let scratch = self.chunks[c].0.get_mut();
            for (k, j) in slots.enumerate() {
                let rx_intent = &intents[j];
                let range = scratch.starts[k] as usize..scratch.starts[k + 1] as usize;
                let j_broadcasting = rx_intent.payload.is_some();
                let txn = if mode == ShardMode::RebuildAll {
                    // The worker computed the full neighborhood:
                    // install it in the cache (the sequential re-anchor
                    // loop does the same), then take the broadcasting
                    // subset.
                    let full = &scratch.flat[range];
                    self.nbr[j].clear();
                    self.nbr[j].extend_from_slice(full);
                    self.txn.clear();
                    self.txn.extend(
                        full.iter()
                            .copied()
                            .filter(|&(i, _)| self.is_tx[i as usize]),
                    );
                    &self.txn[..]
                } else {
                    &scratch.flat[range]
                };
                resolve_receiver(
                    &cfg,
                    round,
                    rx_intent,
                    j_broadcasting,
                    txn,
                    intents,
                    adversary,
                    rng,
                    out,
                );
            }
        }
    }

    /// The radio parameters this medium resolves under.
    pub fn config(&self) -> &RadioConfig {
        &self.cfg
    }

    /// Resolves one round, appending one [`AttributedReception`] per
    /// intent (same order) to `out`.
    ///
    /// `intents` carries every *alive, participating* node exactly
    /// once. The adversary is consulted only within its mandate:
    /// message drops only for rounds before `cfg.rcf`, spurious
    /// collision indications only before `cfg.racc`. Completeness
    /// (Property 1) cannot be suppressed by any adversary.
    ///
    /// `out` is cleared first; callers that keep the buffer across
    /// rounds amortize its allocation away.
    pub fn resolve_into<M: Clone>(
        &mut self,
        round: u64,
        intents: &[TxIntent<M>],
        adversary: &mut dyn Adversary,
        rng: &mut StdRng,
        out: &mut Vec<AttributedReception<M>>,
    ) {
        out.clear();
        self.probe.count(|c| {
            c.rounds_total += 1;
            c.rounds_legacy += 1;
            c.grid_queries += intents.len() as u64;
        });
        // This path re-anchors the grid over the round's broadcasters,
        // so any full-topology cache is stale from here on.
        self.cache_ready = false;
        let cfg = &self.cfg;
        self.broadcasters.clear();
        self.broadcaster_pos.clear();
        for (i, intent) in intents.iter().enumerate() {
            if intent.payload.is_some() {
                self.broadcasters.push(i);
                self.broadcaster_pos.push(intent.pos);
            }
        }
        self.grid.rebuild(&self.broadcaster_pos);

        for (j, rx_intent) in intents.iter().enumerate() {
            let j_broadcasting = rx_intent.payload.is_some();
            let mut messages: Vec<(NodeId, M)> = Vec::new();
            let mut lost_within_r1 = false;
            let mut lost_within_r2 = false;

            // The sender observes its own payload (it knows what it
            // sent).
            if let Some(own) = &rx_intent.payload {
                messages.push((rx_intent.node, own.clone()));
            }

            // All broadcasters within R2 of j, in ascending intent
            // order (the adversary consultation order of the reference
            // resolver).
            self.candidates.clear();
            self.grid
                .query_within(rx_intent.pos, cfg.r2, &mut self.candidates);
            self.neighbors.clear();
            self.neighbors.extend(
                self.candidates
                    .iter()
                    .map(|&slot| self.broadcasters[slot as usize])
                    .filter(|&i| i != j),
            );
            self.neighbors.sort_unstable();
            // `interfered` for any specific in-R2 sender i means "some
            // broadcaster k != i, k != j within R2 of j" — with the
            // in-R2 count in hand that is simply `count >= 2`.
            let interfered = self.neighbors.len() >= 2;

            for &i in &self.neighbors {
                let tx = &intents[i];
                let d2 = tx.pos.distance_sq(rx_intent.pos);
                let in_r1 = d2 <= cfg.r1 * cfg.r1;

                let physically_ok = !j_broadcasting && in_r1 && !interfered;
                let delivered = physically_ok
                    && !(round < cfg.rcf
                        && adversary.drop_message(round, tx.node, rx_intent.node, rng));

                if delivered {
                    messages.push((tx.node, tx.payload.as_ref().expect("broadcaster").clone()));
                } else {
                    if in_r1 {
                        lost_within_r1 = true;
                    }
                    lost_within_r2 = true;
                }
            }

            // Collision detector output.
            // Property 1 (completeness): any loss within R1 forces a
            // report. Property 2 (eventual accuracy): from racc
            // onwards, reports only when something within R2 was lost.
            // Before racc the adversary may inject false positives.
            let accurate_report = if cfg.ring_reports {
                lost_within_r2
            } else {
                lost_within_r1
            };
            let mut collision = lost_within_r1
                || accurate_report
                || (round < cfg.racc && adversary.spurious_collision(round, rx_intent.node, rng));
            // Model-violation hook: the E13 necessity ablation may
            // break completeness here. Normal adversaries never do.
            if collision && adversary.suppress_detection(round, rx_intent.node, rng) {
                collision = false;
            }

            out.push(AttributedReception {
                node: rx_intent.node,
                messages,
                collision,
            });
        }
    }

    /// Convenience wrapper over [`Medium::resolve_into`] returning a
    /// fresh vector.
    pub fn resolve<M: Clone>(
        &mut self,
        round: u64,
        intents: &[TxIntent<M>],
        adversary: &mut dyn Adversary,
        rng: &mut StdRng,
    ) -> Vec<AttributedReception<M>> {
        let mut out = Vec::with_capacity(intents.len());
        self.resolve_into(round, intents, adversary, rng, &mut out);
        out
    }

    /// The hot-path resolver: resolves one round through *persistent*
    /// per-node neighborhoods instead of a per-round index rebuild.
    ///
    /// The medium keeps, for every intent slot, the sorted list of
    /// slots within `R2` together with their squared distances. The
    /// caller reports how the topology changed via `delta`:
    ///
    /// * [`TopologyDelta::Unchanged`] — nothing to maintain; the round
    ///   is resolved by scanning cached neighborhoods (zero distance
    ///   computations, zero heap allocations in steady state).
    /// * [`TopologyDelta::Moved`] — the few movers' neighborhoods are
    ///   refreshed with one grid query each and their peers' lists are
    ///   patched surgically; everything else stays cached.
    /// * [`TopologyDelta::Rebuild`] or movers beyond a churn threshold
    ///   — the round falls back to a per-round index over the
    ///   broadcasters (the legacy algorithm, minus its allocations)
    ///   and the cache is invalidated: topology that churns every
    ///   round never pays for a cache it cannot reuse. The first
    ///   stable round afterwards re-anchors the full-topology cache
    ///   (as do few-mover rounds whose cache went stale or whose
    ///   movers left the anchored bounding box).
    ///
    /// Observational equivalence with [`resolve_round_reference`] is
    /// load-bearing exactly as for [`Medium::resolve_into`]: same
    /// receptions, same adversary consultation order, same RNG stream
    /// (asserted by differential proptests) — **provided** `delta` is
    /// truthful. Reporting a moved slot as unchanged silently corrupts
    /// the cached distances.
    ///
    /// `out` is cleared first and holds one entry per intent, in
    /// intent order.
    pub fn resolve_round_cached<M: Clone>(
        &mut self,
        round: u64,
        intents: &[TxIntent<M>],
        delta: TopologyDelta<'_>,
        adversary: &mut dyn Adversary,
        rng: &mut StdRng,
        out: &mut ReceptionBuffer<M>,
    ) {
        out.clear();
        let n = intents.len();
        let r2 = self.cfg.r2;
        self.probe.count(|c| c.rounds_total += 1);

        // Pick the round's maintenance mode. Participant churn and
        // mass movement go through the per-round broadcaster index
        // (the cache would be rebuilt only to be thrown away again
        // next round); an intact cache takes the surgical or steady
        // path; everything else (first stable round after churn)
        // re-anchors the full-topology cache.
        let stale = !self.cache_ready || self.cached_n != n;
        let (churn, movers): (bool, &[u32]) = match delta {
            TopologyDelta::Rebuild => {
                self.probe.count(|c| c.fallback_participant_churn += 1);
                (true, &[])
            }
            TopologyDelta::Unchanged => (false, &[]),
            TopologyDelta::Moved(slots) => {
                if slots.len() * Self::MOVER_REBUILD_NUM > n {
                    self.probe.count(|c| c.fallback_mass_move += 1);
                    (true, &[])
                } else if stale
                    || slots
                        .iter()
                        .any(|&s| !self.grid.covers(intents[s as usize].pos))
                {
                    // Few movers but no usable cache (or drift past the
                    // anchor): re-anchor now — the next rounds reuse it.
                    (false, &[])
                } else {
                    (false, slots)
                }
            }
        };
        if churn {
            self.resolve_churn_round(round, intents, adversary, rng, out);
            return;
        }

        // Geometry phase (wall-clock only): cache maintenance plus
        // whichever candidate-list construction the round takes.
        let t_geom = self.probe.timer();

        let rebuild = stale || (movers.is_empty() && !matches!(delta, TopologyDelta::Unchanged));
        if rebuild {
            self.probe.count(|c| {
                c.rounds_reanchor += 1;
                c.cache_reanchors += 1;
                if stale {
                    c.fallback_stale_cache += 1;
                } else {
                    c.fallback_anchor_drift += 1;
                }
                c.grid_queries += n as u64;
            });
            self.all_pos.clear();
            self.all_pos.extend(intents.iter().map(|i| i.pos));
            self.grid.rebuild(&self.all_pos);
            for list in &mut self.nbr {
                list.clear();
            }
            if self.nbr.len() < n {
                self.nbr.resize_with(n, Vec::new);
            }
            self.is_mover.clear();
            self.is_mover.resize(n, false);
            self.cached_n = n;
            self.cache_ready = true;
        } else if !movers.is_empty() {
            self.probe.count(|c| {
                c.mover_rounds += 1;
                c.mover_slots += movers.len() as u64;
                c.grid_queries += movers.len() as u64;
            });
            // Phase A: land every move in the grid first, so each
            // refreshed neighborhood below sees this round's true
            // positions (mover–mover pairs included).
            for &m in movers {
                self.grid.move_point(m, intents[m as usize].pos);
                self.is_mover[m as usize] = true;
            }
            // Fold the batch's cross-cell moves back into the grid's
            // cell order under the unchanged anchor.
            self.grid.settle();
            // Phase B: refresh each mover's own neighborhood and patch
            // its non-moving peers' lists. Fellow movers are skipped —
            // their own refresh rewrites their list wholesale.
            for &m in movers {
                let mu = m as usize;
                self.fresh.clear();
                self.grid
                    .query_within_d2(intents[mu].pos, r2, &mut self.fresh);
                if let Ok(at) = self.fresh.binary_search_by_key(&m, |&(i, _)| i) {
                    self.fresh.remove(at);
                }
                let mut old = std::mem::take(&mut self.nbr[mu]);
                let (mut a, mut b) = (0, 0);
                while a < old.len() || b < self.fresh.len() {
                    let ka = old.get(a).map(|&(i, _)| i);
                    let kb = self.fresh.get(b).map(|&(i, _)| i);
                    match (ka, kb) {
                        (Some(x), Some(y)) if x == y => {
                            if !self.is_mover[x as usize] {
                                list_update(&mut self.nbr[x as usize], m, self.fresh[b].1);
                            }
                            a += 1;
                            b += 1;
                        }
                        (Some(x), Some(y)) if x < y => {
                            if !self.is_mover[x as usize] {
                                list_remove(&mut self.nbr[x as usize], m);
                            }
                            a += 1;
                        }
                        (Some(x), None) => {
                            if !self.is_mover[x as usize] {
                                list_remove(&mut self.nbr[x as usize], m);
                            }
                            a += 1;
                        }
                        (_, Some(y)) => {
                            if !self.is_mover[y as usize] {
                                list_insert(&mut self.nbr[y as usize], m, self.fresh[b].1);
                            }
                            b += 1;
                        }
                        (None, None) => unreachable!("loop condition"),
                    }
                }
                // Install the fresh list and recycle the old buffer as
                // the next query scratch (steady-state zero-alloc).
                old.clear();
                std::mem::swap(&mut self.fresh, &mut old);
                self.nbr[mu] = old;
            }
            for &m in movers {
                self.is_mover[m as usize] = false;
            }
        }

        self.is_tx.clear();
        self.is_tx
            .extend(intents.iter().map(|i| i.payload.is_some()));
        let broadcasters = self.is_tx.iter().filter(|&&tx| tx).count();

        let cfg = self.cfg;
        // Sparse-broadcast scatter: with few broadcasters it is far
        // cheaper to walk *their* cached neighborhoods (symmetric by
        // construction) and sort the resulting `(receiver,
        // broadcaster)` events than to probe every receiver's list.
        // Needs every list valid, so re-anchor rounds stay on the
        // scan path. Either path yields the identical per-receiver
        // broadcaster subset in ascending order.
        let scatter = !rebuild && broadcasters * Self::SCATTER_MAX_TX_NUM < n;
        self.probe.count(|c| {
            if scatter {
                c.rounds_scatter += 1;
            } else if !rebuild {
                c.rounds_steady += 1;
            }
        });
        if scatter {
            self.events.clear();
            for (i, intent) in intents.iter().enumerate() {
                if intent.payload.is_some() {
                    for &(j, d2) in &self.nbr[i] {
                        self.events.push((u64::from(j) << 32 | i as u64, d2));
                    }
                }
            }
            self.events.sort_unstable_by_key(|&(key, _)| key);
            self.probe.phase_since(Phase::Geometry, t_geom);
            let t_fin = self.probe.timer();
            let mut cursor = 0usize;
            for (j, rx_intent) in intents.iter().enumerate() {
                self.txn.clear();
                while let Some(&(key, d2)) = self.events.get(cursor) {
                    if (key >> 32) != j as u64 {
                        break;
                    }
                    self.txn.push((key as u32, d2));
                    cursor += 1;
                }
                resolve_receiver(
                    &cfg,
                    round,
                    rx_intent,
                    self.is_tx[j],
                    &self.txn,
                    intents,
                    adversary,
                    rng,
                    out,
                );
            }
            self.probe.phase_since(Phase::Finalize, t_fin);
            return;
        }

        // Large rounds with a pool configured: shard the geometry phase
        // (the dominant cost) across claimed chunks, then finalize
        // sequentially in canonical order. Byte-identical to the scan
        // loop below at any worker count.
        if self.shard_applicable(n) {
            let mode = if rebuild {
                ShardMode::RebuildAll
            } else {
                ShardMode::ScanCached
            };
            self.probe.add_sharded_round();
            self.shard_geometry(mode, n);
            self.probe.phase_since(Phase::Geometry, t_geom);
            let t_fin = self.probe.timer();
            self.shard_finalize(mode, round, intents, adversary, rng, out);
            self.probe.phase_since(Phase::Finalize, t_fin);
            return;
        }

        // Sequential scan. Geometry ends here: on re-anchor rounds the
        // per-receiver grid queries are interleaved with resolution, so
        // they land in the finalize bucket (a documented approximation).
        self.probe.phase_since(Phase::Geometry, t_geom);
        let t_fin = self.probe.timer();
        for (j, rx_intent) in intents.iter().enumerate() {
            if rebuild {
                // Re-anchored this round: recompute the neighborhood.
                self.fresh.clear();
                self.grid
                    .query_within_d2(rx_intent.pos, cfg.r2, &mut self.fresh);
                if let Ok(at) = self.fresh.binary_search_by_key(&(j as u32), |&(i, _)| i) {
                    self.fresh.remove(at);
                }
                self.nbr[j].clear();
                self.nbr[j].extend_from_slice(&self.fresh);
            }
            // The broadcasting subset, ascending — the adversary
            // consultation order of the reference resolver.
            self.txn.clear();
            self.txn.extend(
                self.nbr[j]
                    .iter()
                    .copied()
                    .filter(|&(i, _)| self.is_tx[i as usize]),
            );
            resolve_receiver(
                &cfg,
                round,
                rx_intent,
                self.is_tx[j],
                &self.txn,
                intents,
                adversary,
                rng,
                out,
            );
        }
        self.probe.phase_since(Phase::Finalize, t_fin);
    }

    /// One round resolved through a per-round index over the round's
    /// broadcasters — the churn fallback of
    /// [`Medium::resolve_round_cached`]. Same algorithm as the legacy
    /// [`Medium::resolve_into`], but writing SoA output and allocating
    /// nothing in steady state. Invalidates the full-topology cache.
    fn resolve_churn_round<M: Clone>(
        &mut self,
        round: u64,
        intents: &[TxIntent<M>],
        adversary: &mut dyn Adversary,
        rng: &mut StdRng,
        out: &mut ReceptionBuffer<M>,
    ) {
        self.probe.count(|c| {
            c.rounds_churn += 1;
            c.grid_queries += intents.len() as u64;
        });
        let t_geom = self.probe.timer();
        self.cache_ready = false;
        self.broadcasters.clear();
        self.broadcaster_pos.clear();
        for (i, intent) in intents.iter().enumerate() {
            if intent.payload.is_some() {
                self.broadcasters.push(i);
                self.broadcaster_pos.push(intent.pos);
            }
        }
        self.grid.rebuild(&self.broadcaster_pos);

        // Mass-churn rounds shard too: workers query the broadcaster
        // index at the *receiver* positions of their chunks, which are
        // staged in `all_pos` because workers never touch intents.
        if self.shard_applicable(intents.len()) {
            self.probe.add_sharded_round();
            self.all_pos.clear();
            self.all_pos.extend(intents.iter().map(|i| i.pos));
            self.shard_geometry(ShardMode::ChurnIndex, intents.len());
            self.probe.phase_since(Phase::Geometry, t_geom);
            let t_fin = self.probe.timer();
            self.shard_finalize(ShardMode::ChurnIndex, round, intents, adversary, rng, out);
            self.probe.phase_since(Phase::Finalize, t_fin);
            return;
        }

        // Sequential churn: the per-receiver queries below interleave
        // with resolution, so geometry covers only the index rebuild.
        self.probe.phase_since(Phase::Geometry, t_geom);
        let t_fin = self.probe.timer();
        let cfg = self.cfg;
        for (j, rx_intent) in intents.iter().enumerate() {
            self.fresh.clear();
            self.grid
                .query_within_d2(rx_intent.pos, cfg.r2, &mut self.fresh);
            // Broadcaster slots are in ascending intent order, so the
            // slot-sorted query maps to ascending intent indices.
            self.txn.clear();
            self.txn.extend(
                self.fresh
                    .iter()
                    .map(|&(slot, d2)| (self.broadcasters[slot as usize] as u32, d2))
                    .filter(|&(i, _)| i as usize != j),
            );
            resolve_receiver(
                &cfg,
                round,
                rx_intent,
                rx_intent.payload.is_some(),
                &self.txn,
                intents,
                adversary,
                rng,
                out,
            );
        }
        self.probe.phase_since(Phase::Finalize, t_fin);
    }
}

/// Updates the cached squared distance of `key` in `list`.
fn list_update(list: &mut [(u32, f64)], key: u32, d2: f64) {
    let at = list
        .binary_search_by_key(&key, |&(i, _)| i)
        .expect("cached neighborhood must contain the mover");
    list[at].1 = d2;
}

/// Removes `key` from a sorted neighborhood list.
fn list_remove(list: &mut Vec<(u32, f64)>, key: u32) {
    let at = list
        .binary_search_by_key(&key, |&(i, _)| i)
        .expect("cached neighborhood must contain the departing mover");
    list.remove(at);
}

/// Inserts `(key, d2)` into a sorted neighborhood list.
fn list_insert(list: &mut Vec<(u32, f64)>, key: u32, d2: f64) {
    let at = list
        .binary_search_by_key(&key, |&(i, _)| i)
        .expect_err("cached neighborhood already contains the arriving mover");
    list.insert(at, (key, d2));
}

/// Resolves one receiver given the broadcasting subset of its `R2`
/// neighborhood (`txn`, ascending intent slots with exact squared
/// distances), appending the entry to `out`.
///
/// This is the delivery rule of [`resolve_round_reference`] verbatim —
/// including the short-circuit order of adversary consultations, which
/// the differential tests pin down.
#[allow(clippy::too_many_arguments)]
fn resolve_receiver<M: Clone>(
    cfg: &RadioConfig,
    round: u64,
    rx_intent: &TxIntent<M>,
    j_broadcasting: bool,
    txn: &[(u32, f64)],
    intents: &[TxIntent<M>],
    adversary: &mut dyn Adversary,
    rng: &mut StdRng,
    out: &mut ReceptionBuffer<M>,
) {
    out.begin(rx_intent.node);
    // The sender observes its own payload (it knows what it sent).
    if let Some(own) = &rx_intent.payload {
        out.push_message(rx_intent.node, own.clone());
    }
    // `interfered` for any specific in-R2 sender i means "some
    // broadcaster k != i, k != j within R2 of j" — with the in-R2
    // broadcaster count in hand that is simply `count >= 2`.
    let interfered = txn.len() >= 2;
    let mut lost_within_r1 = false;
    let mut lost_within_r2 = false;
    for &(i, d2) in txn {
        let tx = &intents[i as usize];
        let in_r1 = d2 <= cfg.r1 * cfg.r1;
        let physically_ok = !j_broadcasting && in_r1 && !interfered;
        let delivered = physically_ok
            && !(round < cfg.rcf && adversary.drop_message(round, tx.node, rx_intent.node, rng));
        if delivered {
            out.push_message(tx.node, tx.payload.as_ref().expect("broadcaster").clone());
        } else {
            if in_r1 {
                lost_within_r1 = true;
            }
            lost_within_r2 = true;
        }
    }
    // Collision detector output: Property 1 (completeness) forces a
    // report on any R1 loss; Property 2 (eventual accuracy) applies
    // from racc onwards; before racc the adversary may inject false
    // positives; the E13 necessity ablation may suppress reports.
    let accurate_report = if cfg.ring_reports {
        lost_within_r2
    } else {
        lost_within_r1
    };
    let mut collision = lost_within_r1
        || accurate_report
        || (round < cfg.racc && adversary.spurious_collision(round, rx_intent.node, rng));
    if collision && adversary.suppress_detection(round, rx_intent.node, rng) {
        collision = false;
    }
    out.finish(collision);
}

/// Resolves one slotted round of the channel through a fresh
/// [`Medium`] (grid-indexed path).
///
/// One-shot convenience for tests and tools; the engine keeps a
/// long-lived [`Medium`] instead so buffers amortize across rounds.
///
/// # Panics
///
/// Panics if `cfg` is invalid (see [`RadioConfig::validate`]).
pub fn resolve_round<M: Clone>(
    round: u64,
    cfg: &RadioConfig,
    intents: &[TxIntent<M>],
    adversary: &mut dyn Adversary,
    rng: &mut StdRng,
) -> Vec<AttributedReception<M>> {
    Medium::new(*cfg).resolve(round, intents, adversary, rng)
}

/// The naive O(receivers × broadcasters × nodes) resolver, kept as the
/// executable specification of the delivery rule.
///
/// [`Medium`] must be observationally identical to this function —
/// same receptions, same adversary consultation order, same RNG
/// stream. Differential tests (`tests/substrate_properties.rs`) and
/// the `radio_scale` experiment in `vi-bench` hold the two against
/// each other. Do not optimize this function: its value is being
/// obviously correct.
pub fn resolve_round_reference<M: Clone>(
    round: u64,
    cfg: &RadioConfig,
    intents: &[TxIntent<M>],
    adversary: &mut dyn Adversary,
    rng: &mut StdRng,
) -> Vec<AttributedReception<M>> {
    let broadcasters: Vec<usize> = (0..intents.len())
        .filter(|&i| intents[i].payload.is_some())
        .collect();

    let mut out = Vec::with_capacity(intents.len());
    for (j, rx_intent) in intents.iter().enumerate() {
        let j_broadcasting = rx_intent.payload.is_some();
        let mut messages: Vec<(NodeId, M)> = Vec::new();
        let mut lost_within_r1 = false;
        let mut lost_within_r2 = false;

        // The sender observes its own payload (it knows what it sent).
        if let Some(own) = &rx_intent.payload {
            messages.push((rx_intent.node, own.clone()));
        }

        for &i in &broadcasters {
            if i == j {
                continue;
            }
            let tx = &intents[i];
            let d2 = tx.pos.distance_sq(rx_intent.pos);
            let in_r1 = d2 <= cfg.r1 * cfg.r1;
            let in_r2 = d2 <= cfg.r2 * cfg.r2;
            if !in_r2 {
                continue; // out of both radii: physically irrelevant to j
            }

            // Physical deliverability: listener, in broadcast range, and
            // no *other* broadcaster interferes within R2 of j.
            let interfered = broadcasters.iter().any(|&k| {
                k != i && k != j && intents[k].pos.distance_sq(rx_intent.pos) <= cfg.r2 * cfg.r2
            });
            let physically_ok = !j_broadcasting && in_r1 && !interfered;

            let delivered = physically_ok
                && !(round < cfg.rcf
                    && adversary.drop_message(round, tx.node, rx_intent.node, rng));

            if delivered {
                messages.push((tx.node, tx.payload.as_ref().expect("broadcaster").clone()));
            } else {
                if in_r1 {
                    lost_within_r1 = true;
                }
                lost_within_r2 = true;
            }
        }

        // Collision detector output.
        // Property 1 (completeness): any loss within R1 forces a report.
        // Property 2 (eventual accuracy): from racc onwards, reports only
        // when something within R2 was lost. Before racc the adversary may
        // inject false positives.
        let accurate_report = if cfg.ring_reports {
            lost_within_r2
        } else {
            lost_within_r1
        };
        let mut collision = lost_within_r1
            || accurate_report
            || (round < cfg.racc && adversary.spurious_collision(round, rx_intent.node, rng));
        // Model-violation hook: the E13 necessity ablation may break
        // completeness here. Normal adversaries never do.
        if collision && adversary.suppress_detection(round, rx_intent.node, rng) {
            collision = false;
        }

        out.push(AttributedReception {
            node: rx_intent.node,
            messages,
            collision,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{NoAdversary, ScriptedAdversary};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    fn cfg() -> RadioConfig {
        RadioConfig::reliable(10.0, 20.0)
    }

    fn intent<M>(id: usize, x: f64, payload: Option<M>) -> TxIntent<M> {
        TxIntent {
            node: NodeId::from(id),
            pos: Point::new(x, 0.0),
            payload,
        }
    }

    /// One broadcaster, one in-range listener: delivered, no collision.
    #[test]
    fn basic_delivery() {
        let intents = vec![intent(0, 0.0, Some(7u64)), intent(1, 5.0, None)];
        let out = resolve_round(0, &cfg(), &intents, &mut NoAdversary, &mut rng());
        assert_eq!(out[1].messages, vec![(NodeId::from(0), 7)]);
        assert!(!out[1].collision);
        // Sender observes its own message and no collision.
        assert_eq!(out[0].messages, vec![(NodeId::from(0), 7)]);
        assert!(!out[0].collision);
    }

    /// Outside R1 (but inside R2): not delivered; with ring reports the
    /// listener's detector fires (accurate: a message within R2 was lost).
    #[test]
    fn gray_ring_loss_reports() {
        let intents = vec![intent(0, 0.0, Some(1u64)), intent(1, 15.0, None)];
        let out = resolve_round(0, &cfg(), &intents, &mut NoAdversary, &mut rng());
        assert!(out[1].messages.is_empty());
        assert!(out[1].collision, "ring loss should be reported by default");

        let quiet = cfg().without_ring_reports();
        let out = resolve_round(0, &quiet, &intents, &mut NoAdversary, &mut rng());
        assert!(!out[1].collision, "ring reports disabled");
    }

    /// Outside R2 entirely: silent round.
    #[test]
    fn out_of_range_is_silent() {
        let intents = vec![intent(0, 0.0, Some(1u64)), intent(1, 25.0, None)];
        let out = resolve_round(0, &cfg(), &intents, &mut NoAdversary, &mut rng());
        assert!(out[1].is_silent());
    }

    /// Two broadcasters within R2 of a listener: both messages destroyed,
    /// collision reported (completeness).
    #[test]
    fn interference_destroys_both() {
        let intents = vec![
            intent(0, 0.0, Some(1u64)),
            intent(1, 8.0, Some(2u64)),
            intent(2, 4.0, None),
        ];
        let out = resolve_round(0, &cfg(), &intents, &mut NoAdversary, &mut rng());
        assert!(out[2].messages.is_empty());
        assert!(out[2].collision);
    }

    /// Interferer outside R1 but inside R2 of the listener still
    /// destroys reception (quasi-unit-disk).
    #[test]
    fn far_interferer_still_interferes() {
        let intents = vec![
            intent(0, 0.0, Some(1u64)),
            intent(2, 5.0, None),
            intent(1, 22.0, Some(2u64)), // 17m from listener: in (R1, R2]
        ];
        let out = resolve_round(0, &cfg(), &intents, &mut NoAdversary, &mut rng());
        assert!(out[1].messages.is_empty());
        assert!(out[1].collision);
    }

    /// Half-duplex: concurrent broadcasters within R1 miss each other
    /// and completeness forces both detectors to fire.
    #[test]
    fn concurrent_broadcasters_detect_collision() {
        let intents = vec![intent(0, 0.0, Some(1u64)), intent(1, 5.0, Some(2u64))];
        let out = resolve_round(0, &cfg(), &intents, &mut NoAdversary, &mut rng());
        for rx in &out {
            assert_eq!(rx.messages.len(), 1, "only own message observed");
            assert!(rx.collision, "missed the other broadcaster");
        }
    }

    /// A lone broadcaster hears nothing but its own message and no
    /// collision.
    #[test]
    fn lone_broadcaster_clean() {
        let intents = vec![intent(0, 0.0, Some(1u64))];
        let out = resolve_round(0, &cfg(), &intents, &mut NoAdversary, &mut rng());
        assert_eq!(out[0].messages.len(), 1);
        assert!(!out[0].collision);
    }

    /// Before rcf the adversary may drop a deliverable message; the
    /// listener's detector must then fire (completeness holds even
    /// pre-stabilization).
    #[test]
    fn adversarial_drop_forces_detection() {
        let mut adv = ScriptedAdversary::new();
        adv.drop(3, NodeId::from(0), NodeId::from(1));
        let cfg = RadioConfig::stabilizing(10.0, 20.0, 100);
        let intents = vec![intent(0, 0.0, Some(1u64)), intent(1, 5.0, None)];
        let out = resolve_round(3, &cfg, &intents, &mut adv, &mut rng());
        assert!(out[1].messages.is_empty());
        assert!(out[1].collision, "completeness: lost R1 message detected");
    }

    /// After rcf the same script is impotent: the channel no longer
    /// consults the adversary for drops.
    #[test]
    fn post_rcf_drops_are_ignored() {
        let mut adv = ScriptedAdversary::new();
        adv.drop(100, NodeId::from(0), NodeId::from(1));
        let cfg = RadioConfig::stabilizing(10.0, 20.0, 100);
        let intents = vec![intent(0, 0.0, Some(1u64)), intent(1, 5.0, None)];
        let out = resolve_round(100, &cfg, &intents, &mut adv, &mut rng());
        assert_eq!(out[1].messages.len(), 1);
        assert!(!out[1].collision);
    }

    /// Spurious indications are honoured before racc and suppressed
    /// after.
    #[test]
    fn spurious_collisions_respect_racc() {
        let mut adv = ScriptedAdversary::new();
        adv.inject_collision(3, NodeId::from(0));
        adv.inject_collision(100, NodeId::from(0));
        let cfg = RadioConfig::stabilizing(10.0, 20.0, 100);
        let intents = vec![intent::<u64>(0, 0.0, None)];
        let out = resolve_round(3, &cfg, &intents, &mut adv, &mut rng());
        assert!(out[0].collision, "false positive allowed before racc");
        let out = resolve_round(100, &cfg, &intents, &mut adv, &mut rng());
        assert!(!out[0].collision, "accuracy: no false positives from racc");
    }

    /// Every sharded mode really runs — churn index, re-anchor
    /// rebuild and steady scan — at 2 and 3 workers, for rounds
    /// smaller than, equal to and not a multiple of the chunk count,
    /// with receptions and the RNG stream equal to the sequential
    /// resolver's.
    #[test]
    fn every_sharded_mode_runs_and_matches_sequential() {
        use crate::adversary::RandomLoss;
        let cfg = RadioConfig::stabilizing(10.0, 20.0, 100);
        for n in [SHARD_CHUNKS / 2 + 3, SHARD_CHUNKS, 2 * SHARD_CHUNKS + 5] {
            // About a dozen nodes per R2 disk.
            let side = (n as f64).sqrt() * 10.0;
            let mut positions: Vec<Point> = (0..n as u64)
                .map(|i| {
                    let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    Point::new(
                        (h % 1000) as f64 / 1000.0 * side,
                        ((h >> 32) % 1000) as f64 / 1000.0 * side,
                    )
                })
                .collect();
            for workers in [2, 3] {
                let mut seq = Medium::new(cfg);
                let mut shard = Medium::new(cfg);
                shard.set_workers(workers);
                shard.set_shard_min_slots(1);
                let probe = Probe::enabled();
                shard.set_probe(probe.clone());
                let (mut out_seq, mut out_shard) = (ReceptionBuffer::new(), ReceptionBuffer::new());
                let (mut rng_seq, mut rng_shard) = (rng(), rng());
                let mut adv_seq = RandomLoss::new(0.2, 0.1);
                let mut adv_shard = RandomLoss::new(0.2, 0.1);
                let everyone: Vec<u32> = (0..n as u32).collect();
                // Churn, re-anchor, steady scan, then churn again by
                // mass movement.
                for round in 0..4u64 {
                    if round == 3 {
                        for p in &mut positions {
                            p.x += 0.7;
                        }
                    }
                    let delta = match round {
                        0 => TopologyDelta::Rebuild,
                        3 => TopologyDelta::Moved(&everyone),
                        _ => TopologyDelta::Unchanged,
                    };
                    let intents: Vec<TxIntent<u64>> = positions
                        .iter()
                        .enumerate()
                        .map(|(i, &pos)| TxIntent {
                            node: NodeId::from(i),
                            pos,
                            payload: (i as u64 + round).is_multiple_of(3).then_some(i as u64),
                        })
                        .collect();
                    seq.resolve_round_cached(
                        round,
                        &intents,
                        delta,
                        &mut adv_seq,
                        &mut rng_seq,
                        &mut out_seq,
                    );
                    shard.resolve_round_cached(
                        round,
                        &intents,
                        delta,
                        &mut adv_shard,
                        &mut rng_shard,
                        &mut out_shard,
                    );
                    assert_eq!(
                        out_shard.to_attributed(),
                        out_seq.to_attributed(),
                        "n={n} workers={workers} round {round}"
                    );
                    assert_eq!(rng_shard, rng_seq, "n={n} workers={workers} round {round}");
                }
                let summary = probe.summary().expect("live probe");
                let c = summary.counters;
                assert_eq!(summary.sharded_rounds, 4, "n={n} workers={workers}");
                assert_eq!(
                    (c.rounds_churn, c.rounds_reanchor, c.rounds_steady),
                    (2, 1, 1),
                    "n={n} workers={workers}: every mode must run"
                );
            }
        }
    }

    /// Deliveries are reported in sender order, deterministically.
    #[test]
    fn deterministic_sender_order() {
        let intents = vec![
            intent(2, 1.0, Some(30u64)),
            intent(0, 2.0, Some(10u64)),
            intent(1, 50.0, None), // isolated listener, hears nothing
            intent(3, 3.0, None),
        ];
        // Node 3 is within R2 of both broadcasters: interference.
        let out = resolve_round(0, &cfg(), &intents, &mut NoAdversary, &mut rng());
        assert!(out[3].messages.is_empty() && out[3].collision);
        assert!(out[2].is_silent());
    }
}
