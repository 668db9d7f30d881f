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
// while its node steps.
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
// DegreeSum()/16 messages is sparse: at its barrier the coordinator marks
// each of its receivers in a per-node bitset, reading the senders each
// shard listed, in O(M + n/64). The next round is light: only marked nodes
// pull, with the same walk, so the inboxes are exactly those of a full
// walk. A dense round costs O((m+n)/W) on W workers; a light round costs
// O(n/W) plus the serial mark pass and the marked nodes' walks. Dense
// rounds cut shard boundaries by cumulative degree (node weight deg+1, one
// binary search per boundary on the graph's CSR offsets), so hubs don't
// serialize one shard; on regular graphs the cut equals the node-count
// split. Light rounds, whose work is per node, cut by node count. The same
// code runs at every worker count: WithWorkers(1) is one shard stepped
// inline, and WithWorkers(0) picks adaptively by graph size. Per-shard
// structs carry trailing cache-line padding so adjacent shards' hot fields
// never false-share.
//
// # Batch execution
//
// A Runner serves one run at a time, so sweeps of independent runs —
// seeds × parameters × graphs, the bench layer's whole workload — scale
// across cores through a RunnerPool: a bounded set of Runners with
// checkout/checkin, plus a Batch scheduler (Submit/Wait, or the RunBatch
// convenience) that keeps at most pool-size runs in flight. The pool
// splits GOMAXPROCS between run-level and engine-level parallelism
// (RunnerPool.Workers), and the whole construction is deterministic:
// jobs write results into their submission slots, Wait reports the
// lowest-slot error, and per-run transcripts never depend on worker
// count — so a batch sweep is bit-identical to the sequential loop it
// replaces, only faster in wall-clock terms.
package congest

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
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
	// MaxDegree is Δ if the algorithm assumes it known, else 0.
	MaxDegree int
	// Arboricity is (an upper bound on) α if assumed known, else 0.
	Arboricity int
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
	// Factory runs; see Arena for the lifetime contract. Nil when the proc
	// is constructed outside an engine run — the carve methods then fall
	// back to plain make.
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
	workers    int
	seed       uint64
	maxDegree  bool // expose Δ in NodeInfo
	arboricity int  // expose α in NodeInfo when > 0
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

// WithWorkers sets the number of goroutines stepping nodes
// (default GOMAXPROCS; 1 selects the sequential engine). WithWorkers(0)
// selects the adaptive heuristic: the sequential engine below a node-count
// crossover — small runs never pay the per-round dispatch barriers — and
// GOMAXPROCS workers above it. Results are bit-identical for every worker
// count, so the choice is purely about wall-clock time.
func WithWorkers(w int) Option { return optionFunc(func(c *config) { c.workers = w }) }

// WithSeed sets the run seed for the per-node random streams.
func WithSeed(seed uint64) Option { return optionFunc(func(c *config) { c.seed = seed }) }

// WithKnownMaxDegree exposes Δ to the nodes via NodeInfo (the paper's
// default assumption; Remark 4.4 drops it).
func WithKnownMaxDegree() Option { return optionFunc(func(c *config) { c.maxDegree = true }) }

// WithKnownArboricity exposes the given arboricity bound to the nodes (the
// paper's default assumption; Remark 4.5 drops it).
func WithKnownArboricity(alpha int) Option {
	return optionFunc(func(c *config) { c.arboricity = alpha })
}

// WithRoundStats records per-round message/bit statistics in the result.
func WithRoundStats() Option { return optionFunc(func(c *config) { c.roundStats = true }) }

// WithMessageStats records per-message-type counts and bit volumes in the
// result (Result.MessageStats), keyed by tag name. Costs two array adds
// per message.
func WithMessageStats() Option { return optionFunc(func(c *config) { c.msgStats = true }) }

// WithContext attaches ctx to the run so option-based callers — the mds
// algorithm wrappers, the server's solve path, anything that forwards
// ...Option — get cancellation without a signature change. RunContext is
// the canonical context-first spelling for direct engine runs; the two
// are interchangeable (RunContext is implemented with this option, and
// the later of the two wins when both appear).
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
	neighbors []int32
	bc        []Packet    // the shard's broadcast slab, appended in node order
	tg        []outPacket // the shard's targeted-send slab, appended in node order
	bcStart   int         // len(bc) when the owner's Step began
	err       error
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
// reused Runner (WithRunner). Run is the context-free convenience over
// RunContext — it never cancels (unless a WithContext option says
// otherwise).
func Run[O any](g *graph.Graph, factory Factory[O], opts ...Option) (*Result[O], error) {
	cfg := config{
		mode:      Congest,
		maxRounds: 1_000_000,
		workers:   runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.workers < 0 {
		cfg.workers = 0 // negative collapses to the adaptive heuristic
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

// RunContext is Run with a cancellation context: the engine checks ctx at
// the per-round barrier, so after ctx is canceled (deadline, client
// disconnect, caller Cancel) the run returns ctx.Err() within one round.
// A canceled run has no partial results, and its Runner (WithRunner) is
// immediately reusable — the next run on it is bit-identical to one on a
// fresh Runner. There is no Runner.RunContext method form: Go methods
// cannot be type-parameterized, so RunContext(ctx, …, WithRunner(r)) is
// that spelling.
func RunContext[O any](ctx context.Context, g *graph.Graph, factory Factory[O], opts ...Option) (*Result[O], error) {
	all := make([]Option, 0, len(opts)+1)
	all = append(all, WithContext(ctx))
	all = append(all, opts...)
	return Run(g, factory, all...)
}
