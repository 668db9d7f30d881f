// Package congest simulates the synchronous CONGEST and LOCAL models of
// distributed computing on top of a graph from internal/graph.
//
// The model (paper, Section 2): the communication network is the input
// graph; nodes exchange messages over edges in synchronous rounds; in
// CONGEST every message is restricted to O(log n) bits; initially a node
// knows only its ID, its weight, and its neighbor list (plus the globally
// known parameters n, Δ, α where the algorithm assumes them); at the end
// every node knows its own output.
//
// The simulator enforces the model rather than assuming it:
//
//   - messages may only be sent to neighbors,
//   - per directed edge and per round, the total size of all messages is
//     accounted in bits and checked against the bandwidth budget
//     (Strict mode errors, Audit mode records, LOCAL mode lifts the limit),
//   - messages sent in round r are delivered at the start of round r+1,
//   - randomness comes from per-node streams seeded by (runSeed, nodeID),
//     so the sequential engine and the parallel (goroutine-pool) engine
//     produce bit-identical transcripts.
//
// # Wire format
//
// Messages travel as Packet values: a Tag (4-bit header in the bit
// accounting, see MsgTagBits) plus a payload packed into at most two
// uint64 words, with the CONGEST bit cost precomputed at pack time from
// the same BitsInt/BitsUint field accounting the legacy interface-based
// path used. Outboxes and inboxes are flat slices of these values, so
// routing a message is a value copy — no boxing, no allocation, no
// reflection, no dynamic size call. A broadcast is one outbox entry, not
// deg(v) copies: receivers pull it while walking their own sorted neighbor
// lists, so each delivered Incoming's Idx — the sender's position in the
// receiver's neighbor list — is simply the receiver's loop index.
//
// # Run state
//
// All run-scoped state lives on a Runner: the worker pool, the per-node
// outbox heads and the per-shard outbox slabs (two of each, alternating by
// round parity), one inbox scratch slice per shard, the per-node random
// streams (embedded by value in NodeInfo and seeded in place by rng.Init),
// and an Arena that procs carve their neighbor caches from, whose first
// block of each type holds the graph's DegreeSum() elements. A lone send
// lives only in its node's head: the step phase drops it from the slab it
// was appended to. A node that sent more leaves its packets in the slabs
// of the shard that stepped it, and its head names that shard, the offsets
// of its broadcasts and targeted sends there, and its broadcast count, so
// no per-node list exists. The slabs grow by append and hold multi-send
// traffic only, so a round in which every node sends one packet leaves
// them empty. Nothing is sized by the message volume: an inbox exists only
// while its node steps. One byte per node, the done array, says whether
// to step it: 0 while it runs, terminated once it has returned true, and
// otherwise how many more rounds a sleeping node may sleep through. A node
// sleeps when its Step calls SleepUntil, a function of this internal
// package that only the library's own procs can call (the public Sender
// has no such method): the engine then skips its Step in every earlier
// round in which its inbox is empty, while counting it as active, so a
// sleep changes no transcript.
// A plain Run builds a transient Runner and discards
// it; serving-style callers create one Runner, pass it to every run with
// WithRunner, and amortize all of the setup — repeated runs on the same
// graph allocate almost nothing beyond the procs themselves. Transcripts
// are identical either way.
//
// # Parallel execution
//
// A round is one phase on the Runner's worker pool, followed by one
// barrier: each worker steps its node range, and stepping node u first
// pulls u's inbox from the previous round's outboxes, then calls Step,
// which appends broadcasts and targeted sends to the worker's own outbox
// slabs. The pull walks u's sorted neighbor list and appends, per
// neighbor, that neighbor's broadcasts plus any targeted sends addressed
// to u, in send order — so every inbox is in exact (sender ID, send
// index) order by construction, and transcripts are bit-identical at
// every worker count. Outboxes alternate between two sets by round
// parity, so round r+1's pulls read what round r wrote while round r+1's
// sends go to the other set. Bandwidth is accounted on the sender side,
// where all of a node's traffic on each of its edges is in one place;
// messages to terminated nodes are counted by those nodes' walks, and the
// final round's traffic, which has no live receiver, is all dropped.
//
// Not every round walks every neighbor list. A round that sends at most
// DegreeSum()/8 messages is sparse: at its barrier the coordinator marks
// each of its receivers in a per-node bitset, reading the senders each
// shard listed, in O(M + n/64). The next round is light: only marked nodes
// pull, with the same walk, so the inboxes are exactly those of a full
// walk. A dense round costs O((m+n)/W) on W workers; a light round costs
// O(n/W) plus the serial mark pass and the marked nodes' walks, and its
// per-node floor is one Step call per awake node: a sleeper without mail
// costs a read and a store of its done entry and a store to its sent
// flag. Dense
// rounds cut shard boundaries by cumulative degree (node weight deg+1, one
// binary search per boundary on the graph's CSR offsets), so hubs don't
// serialize one shard; on regular graphs the cut equals the node-count
// split. Light rounds, whose work is per node, cut by node count. The same
// code runs at every worker count: one worker is one shard stepped inline.
// The count comes from one rule in Runner.bind: an explicit WithWorkers
// wins; otherwise a graph below 16384 nodes gets one worker (two workers
// beat one from there in a sweep on a 2-vCPU host) and a larger one the
// Runner's CPU share, all of GOMAXPROCS unless a RunnerPool split it.
// Per-shard structs carry trailing cache-line padding so adjacent shards'
// hot fields never false-share.
//
// A full walk stalls on its first load of each sending neighbor's head: a
// cache miss once the heads outgrow the cache, and without help each
// pull's misses wait behind the previous node's Step. So on a graph of at
// least 131072 nodes (4 MiB of heads per parity, twice a 2 MiB L2) a round
// after a dense round steps each shard's range in touch blocks of up to 64
// nodes and 4096 neighbor slots. A tight loop first loads every block
// neighbor's sent flag and, where it is set, its head; those loads depend
// on nothing the round writes, so the core keeps many misses in flight,
// and the block's pulls then hit L1 or L2. The touch reads only what the
// pulls read, so no transcript changes. It cut the ten such rounds of the
// 10⁶-node forest3 Theorem 1.1 solve by about a fifth; below the gate the
// heads stay near the core and the touch only adds a walk (README has the
// measurements).
//
// # Batch execution
//
// A Runner serves one run at a time, so sweeps of independent runs —
// seeds × parameters × graphs, the bench layer's whole workload — scale
// across cores through a RunnerPool: a bounded set of Runners with
// checkout/checkin, plus a Batch scheduler (Submit/Wait, or the RunBatch
// convenience) that keeps at most pool-size runs in flight. The pool
// splits GOMAXPROCS between run-level and engine-level parallelism by
// giving each of its Runners an equal CPU share, which a large run on it
// takes as its worker count, and the whole construction is deterministic:
// jobs write results into their submission slots, Wait reports the
// lowest-slot error, and per-run transcripts never depend on worker
// count — so a batch sweep is bit-identical to the sequential loop it
// replaces, only faster in wall-clock terms.
package congest

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"arbods/internal/faultinject"
	"arbods/internal/graph"
	"arbods/internal/rng"
)

// Incoming is a received packet tagged with its sender and with the
// sender's position in the receiver's sorted neighbor list, so procs index
// their neighbor caches directly instead of binary-searching per message.
type Incoming struct {
	From int32 // sender ID
	Idx  int32 // position of From in the receiver's Neighbors slice
	P    Packet
}

// NodeInfo is the local knowledge a node starts with.
type NodeInfo struct {
	// ID is the node's identifier in [0, N).
	ID int
	// Neighbors is the sorted neighbor list. Read-only view: procs must not
	// modify it.
	Neighbors []int32
	// Weight is the node's weight.
	Weight int64
	// N is the number of nodes in the network (globally known).
	N int
	// Rand is the node's private random stream, embedded by value: the
	// proc that stores this NodeInfo owns the stream state in place, with
	// no per-node heap object behind a pointer. Because it is a value,
	// copying a NodeInfo forks the stream — a composite proc that embeds
	// several sub-procs each holding a NodeInfo copy must draw randomness
	// from exactly one of them, or the identically-seeded copies will emit
	// correlated sequences.
	Rand rng.Stream
	// Arena is the run-scoped slab allocator for per-node state (neighbor
	// caches and similar degree-sized scratch). Carve only while the
	// Factory runs; see Arena for the lifetime contract.
	Arena *Arena
}

// Degree returns the node's degree.
func (ni *NodeInfo) Degree() int { return len(ni.Neighbors) }

// Proc is the per-node state machine of a distributed algorithm. Step is
// called once per round with the messages delivered this round; it sends
// messages for the next round through s and returns true when the node has
// terminated locally (output fixed, no further messages will be sent, and no
// further messages need to be received). The in slice is the engine's
// scratch and is valid only during the call: a proc that needs a message
// later copies it.
//
// Once Step returns true the engine stops scheduling the node; messages that
// still arrive are counted and dropped. Output may be called only after the
// run completes.
type Proc[O any] interface {
	Step(round int, in []Incoming, s *Sender) (done bool)
	Output() O
}

// Factory builds the per-node proc. It is called once per node before round 0.
type Factory[O any] func(ni NodeInfo) Proc[O]

// Mode selects the communication model.
type Mode int

const (
	// Congest enforces the bandwidth budget strictly: a violation aborts the
	// run with a *BandwidthError.
	Congest Mode = iota + 1
	// CongestAudit records violations in the result but lets the run finish.
	CongestAudit
	// Local has unbounded messages (the LOCAL model); bits are still counted.
	Local
)

// DefaultBandwidth is the default CONGEST budget in bits for an n-node
// network: 32·⌈log₂(max(n,2))⌉, a concrete instantiation of the O(log n)
// bound that fits a small constant number of the library's messages.
func DefaultBandwidth(n int) int {
	if n < 2 {
		n = 2
	}
	return 32 * bits.Len(uint(n-1))
}

type config struct {
	mode       Mode
	bandwidth  int // 0 = DefaultBandwidth(n)
	maxRounds  int
	workers    int // below 1 = not set: the Runner picks (see WithWorkers)
	seed       uint64
	roundStats bool
	msgStats   bool
	roundObs   func(RoundStat)       // per-round progress hook (nil = none)
	runner     *Runner               // nil = transient per-run state
	ctx        context.Context       // run cancellation; nil = never canceled
	faults     *faultinject.Registry // nil = no fault injection (production)
}

// Option configures a run.
type Option interface{ apply(*config) }

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithMode selects Congest (default), CongestAudit, or Local.
func WithMode(m Mode) Option { return optionFunc(func(c *config) { c.mode = m }) }

// WithBandwidth overrides the per-edge per-round bit budget.
func WithBandwidth(b int) Option { return optionFunc(func(c *config) { c.bandwidth = b }) }

// WithMaxRounds bounds the number of rounds (default 1_000_000). Exceeding
// it is an error: every algorithm in the library has a known round bound, so
// hitting the cap means a bug.
func WithMaxRounds(r int) Option { return optionFunc(func(c *config) { c.maxRounds = r }) }

// WithWorkers sets the number of goroutines stepping nodes: w ≥ 1 is
// used as given, clamped to the node count, and 1 selects the sequential
// engine. Without it, or with w < 1, the Runner picks: one worker below
// adaptiveWorkersMin (16384) nodes, where the per-round barrier costs
// more than a second worker recovers, and the Runner's CPU share from
// there — all of GOMAXPROCS for a Runner from NewRunner or a transient
// run, GOMAXPROCS divided by the pool size for a Runner of a RunnerPool.
// Results are bit-identical for every worker count, so the choice is
// purely about wall-clock time.
func WithWorkers(w int) Option { return optionFunc(func(c *config) { c.workers = w }) }

// WithSeed sets the run seed for the per-node random streams.
func WithSeed(seed uint64) Option { return optionFunc(func(c *config) { c.seed = seed }) }

// WithRoundStats records per-round message/bit statistics in the result.
func WithRoundStats() Option { return optionFunc(func(c *config) { c.roundStats = true }) }

// WithMessageStats records per-message-type counts and bit volumes in the
// result (Result.MessageStats), keyed by tag name. Costs two array adds
// per message.
func WithMessageStats() Option { return optionFunc(func(c *config) { c.msgStats = true }) }

// WithContext attaches ctx to the run so option-based callers — the mds
// algorithm wrappers, the server's solve path, anything that forwards
// ...Option — get cancellation without a signature change.
//
// Cancellation contract: the engine checks ctx at the per-round barrier,
// so a canceled run returns ctx.Err() within one round of the
// cancellation — it never interrupts a round midway. The aborted run's
// Runner is immediately reusable (the next bind resets all per-run
// state) and there are no partial results: the error return is the whole
// outcome. A nil ctx means "never canceled".
func WithContext(ctx context.Context) Option {
	return optionFunc(func(c *config) { c.ctx = ctx })
}

// WithFaultInjection threads a faultinject.Registry into the run: the
// engine fires the "congest.step" failpoint once per round (on shard 0,
// which executes on a worker goroutine when the run is parallel), so
// chaos tests inject panics at a chosen round, slow rounds down, or fail
// them with an error — deterministically, with no build tags. A nil
// registry is the production state and costs one nil check per round.
func WithFaultInjection(reg *faultinject.Registry) Option {
	return optionFunc(func(c *config) { c.faults = reg })
}

// WithRoundObserver calls fn once per completed round with that round's
// traffic — the live-streaming form of WithRoundStats. fn runs on the
// run's coordinating goroutine between rounds, so the round loop is
// blocked while it executes: keep it cheap (hand the stat to a channel or
// an encoder, don't compute in it). The stat values are exactly the ones
// WithRoundStats would record, and the hook never changes the transcript.
func WithRoundObserver(fn func(RoundStat)) Option {
	return optionFunc(func(c *config) { c.roundObs = fn })
}

// RoundStat is the traffic of one round.
type RoundStat struct {
	Round       int
	Messages    int64
	Bits        int64
	ActiveNodes int
}

// Result is the outcome of a run.
type Result[O any] struct {
	// Outputs holds each node's output, indexed by node ID.
	Outputs []O
	// Rounds is the number of rounds executed (a round with no active nodes
	// and no in-flight messages is not counted).
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int64
	// TotalBits is the total message volume in bits.
	TotalBits int64
	// MaxEdgeBits is the largest per-directed-edge per-round bit volume seen.
	MaxEdgeBits int
	// Bandwidth is the budget that applied (0 in Local mode).
	Bandwidth int
	// BandwidthViolations counts edge-rounds above budget (CongestAudit).
	BandwidthViolations int64
	// DroppedMessages counts messages sent to locally-terminated nodes.
	DroppedMessages int64
	// RoundStats is filled when WithRoundStats is set.
	RoundStats []RoundStat
	// MessageStats is filled when WithMessageStats is set: per message type,
	// how many were sent and their total bit volume.
	MessageStats map[string]MessageStat
}

// MessageStat aggregates traffic of one message type.
type MessageStat struct {
	Count int64
	Bits  int64
}

// BandwidthError reports a CONGEST bandwidth violation in Strict mode.
type BandwidthError struct {
	Round    int
	From, To int
	Bits     int
	Budget   int
}

func (e *BandwidthError) Error() string {
	return fmt.Sprintf("congest: round %d: edge %d→%d carries %d bits > budget %d",
		e.Round, e.From, e.To, e.Bits, e.Budget)
}

// outPacket is one targeted send: the destination, how many broadcasts
// the sender had queued before it (so a receiver can interleave the two
// streams back into send order), and the packet itself.
type outPacket struct {
	to     int32
	before int32
	p      Packet
}

// outbox is the head of one node's traffic for one round: written when
// the node steps in round r, read by its neighbors' pulls in round r+1.
// A lone send lives only here, inline: the step phase drops it from the
// slab it was appended to, so the common round — one broadcast, or the
// τ-completion's one request — takes no slab space, and a receiver pulls
// it with a single 32-byte read per neighbor. A node that sent more leaves
// its packets where its Sender put them, in the slabs of the shard that
// stepped it, and its head says where: spill writes it, sends reads it.
// The head names the shard because the layout can switch between the
// degree cut and the node-count cut from one round to the next.
type outbox struct {
	// first is the node's only send when n == 1. When n > 1, A and B are
	// the offsets of its broadcasts and targeted sends in the shard's
	// slabs and Bits is its broadcast count.
	first Packet
	n     int32 // sends queued this round, broadcasts and targeted
	// to is first's receiver when it is a lone targeted send, -1 for a
	// lone broadcast, and the index of the shard that stepped the node
	// when n > 1.
	to int32
}

// spill returns the head of a node that queued n > 1 sends: nbc
// broadcasts at offset bcAt of step shard w's broadcast slab, and n-nbc
// targeted sends at offset tgAt of its targeted slab.
func spill(w, bcAt, tgAt, nbc, n int) outbox {
	return outbox{first: Packet{A: uint64(bcAt), B: uint64(tgAt), Bits: uint32(nbc)}, n: int32(n), to: int32(w)}
}

// Sender collects a node's outgoing packets for the current round. A
// broadcast is queued once, whatever the degree; receivers pull it. One
// Sender serves a whole step shard: the engine points it at each node in
// turn, and the node's sends append to the shard's slabs, which grow by
// append and keep their capacity across rounds and runs.
type Sender struct {
	owner     int32
	wake      int32 // the round the owner asked to sleep until; 0 = none
	neighbors []int32
	bc        []Packet    // the shard's broadcast slab, appended in node order
	tg        []outPacket // the shard's targeted-send slab, appended in node order
	bcStart   int         // len(bc) when the owner's Step began
	err       error
}

// A node's done entry is 0 while it runs, terminated once its Step has
// returned true, and otherwise the number of rounds it may still sleep
// through: a byte per node, so at most maxSkips rounds per sleep.
const (
	terminated = math.MaxUint8
	maxSkips   = terminated - 1
)

// SleepUntil lets the node that s is stepping skip its Step in every round
// before round in which its inbox is empty. A message wakes it for the
// round it arrives in, and round itself wakes it. A sleeper stays active:
// Rounds, RoundStats' ActiveNodes and DroppedMessages read as if it had
// been stepped. A sleep lasts until the node's next Step, which must call
// SleepUntil again to keep sleeping; within one Step the last call wins,
// so SleepUntil(s, r+1) in round r cancels an earlier one. A sleep skips
// at most 254 rounds: one asking for more is stepped, with an empty
// inbox, 255 rounds after it fell asleep.
//
// The engine cannot check that a skipped Step would have done nothing, so
// a proc may sleep only through rounds in which a Step with an empty inbox
// would send nothing, change nothing and draw no randomness: a proc that
// sleeps takes its schedule from the round number, not from counting its
// own steps, and an early step is one that changes nothing. That contract
// is why SleepUntil is a function of this internal package and not a
// Sender method: only the library's own procs, whose transcripts its
// goldens pin, can call it, and the public Sender does not gain it.
func SleepUntil(s *Sender, round int) {
	s.wake = int32(min(max(round, 0), math.MaxInt32))
}

// skips returns the done entry of a node that, stepped in round, asked to
// sleep until wake: the rounds in between, at most maxSkips.
func skips(wake int32, round int) uint8 {
	return uint8(min(max(int(wake)-round-1, 0), maxSkips))
}

// Send sends p to neighbor `to` (delivered next round). Sending to a
// non-neighbor or with an out-of-range tag records an error that aborts
// the run.
func (s *Sender) Send(to int, p Packet) {
	if s.err != nil {
		return
	}
	if s.neighborPos(to) < 0 {
		s.err = fmt.Errorf("congest: node %d sent to non-neighbor %d", s.owner, to)
		return
	}
	if err := s.validate(p); err != nil {
		return
	}
	s.tg = append(s.tg, outPacket{to: int32(to), before: int32(len(s.bc) - s.bcStart), p: p})
}

// Broadcast sends p to every neighbor: one outbox entry, which each
// neighbor pulls before its next Step.
func (s *Sender) Broadcast(p Packet) {
	if s.err != nil {
		return
	}
	if err := s.validate(p); err != nil {
		return
	}
	s.bc = append(s.bc, p)
}

// validate rejects malformed packets: an out-of-range tag (would index
// past the stats arrays) or a bit cost below the tag header (a
// hand-assembled packet with an unset Bits field would otherwise
// silently undercount the bandwidth accounting the simulator enforces;
// under the legacy Message interface that mistake was impossible).
func (s *Sender) validate(p Packet) error {
	if p.Tag >= MaxTags {
		s.err = fmt.Errorf("congest: node %d sent tag %d ≥ MaxTags", s.owner, p.Tag)
		return s.err
	}
	if p.Bits < MsgTagBits {
		s.err = fmt.Errorf("congest: node %d sent a %d-bit packet, below the %d-bit tag header", s.owner, p.Bits, MsgTagBits)
		return s.err
	}
	return nil
}

// neighborPos returns v's position in the owner's sorted neighbor list,
// or -1 if v is not a neighbor.
func (s *Sender) neighborPos(v int) int {
	i := sort.Search(len(s.neighbors), func(i int) bool { return s.neighbors[i] >= int32(v) })
	if i < len(s.neighbors) && s.neighbors[i] == int32(v) {
		return i
	}
	return -1
}

// Run executes the algorithm built by factory on g and returns the outputs
// and transcript statistics. The transcript is bit-identical for every
// worker count (see engine.go for the phase structure that guarantees it)
// and independent of whether the run executes on transient state or on a
// reused Runner (WithRunner). It never cancels unless a WithContext
// option says otherwise.
func Run[O any](g *graph.Graph, factory Factory[O], opts ...Option) (*Result[O], error) {
	cfg := config{mode: Congest, maxRounds: 1_000_000}
	for _, o := range opts {
		o.apply(&cfg)
	}
	r := cfg.runner
	transient := r == nil
	if transient {
		r = NewRunner()
	}
	e, err := newEngine(r, g, factory, cfg)
	if err != nil {
		// newEngine fails two ways with opposite ownership: a recovered
		// factory panic happens after bind took the Runner (poison and
		// release it), while a bind refusal means someone else is mid-run
		// on it — touching it here would release a run we don't own.
		if _, ok := err.(*ProcPanicError); ok {
			r.noteRunError(err)
			r.release(transient)
		} else if transient {
			r.Close() // never mid-run when fresh, but don't leak the pool
		}
		return nil, err
	}
	defer r.release(transient)
	res, err := e.run()
	r.noteRunError(err)
	return res, err
}
