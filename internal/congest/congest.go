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
// and an Arena that procs carve their neighbor caches from. Nothing is
// sized by the message volume: an inbox exists only while its node steps.
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
// # Result lifetime
//
// A plain run's Result is ordinary heap memory with no strings attached.
// Under WithRecycledResult the Result's Outputs and MessageStats instead
// live on Runner-owned slabs and are valid only until the same Runner's
// next run — the zero-allocation serving contract. Result.Detach is the
// escape hatch: it deep-copies the Result onto ordinary heap memory, so a
// caller (a server handler, a sweep that accumulates results) keeps the
// recycled hot path and detaches exactly the results that must outlive
// the next run. Detach is opt-in and costs one graph-sized copy; the hot
// path itself never pays for it.
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
	recycle    bool                  // Result.Outputs/MessageStats on runner-owned memory
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

// recycledResult is a singleton so the hot serving loop pays no closure
// allocation for the option.
var recycledResult Option = optionFunc(func(c *config) { c.recycle = true })

// WithRecycledResult assembles Result.Outputs (and Result.MessageStats,
// when recorded) on memory owned by the run's Runner instead of freshly
// allocated memory: the last graph-sized per-run allocations disappear,
// so a warm serving loop runs in O(1) allocations total. The trade is the
// arena lifetime contract extended to the Result: Outputs and
// MessageStats are valid only until the same Runner's next run, so a
// caller that keeps results across runs must copy what it needs first.
// Values (not the backing memory) are bit-identical with and without this
// option. It has no effect worth paying for on transient runs — the
// recycled slabs die with the transient Runner.
func WithRecycledResult() Option { return recycledResult }

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

// Detach returns a copy of the Result whose Outputs, RoundStats, and
// MessageStats live on ordinary heap memory, severing every tie to
// Runner-owned slabs. It is the safe hand-off for results produced under
// WithRecycledResult: a detached Result stays valid after the Runner's
// next run (and after the Runner is closed), so a serving loop can run
// recycled for the zero-allocation hot path and Detach only the results
// that must outlive the loop iteration.
//
// The copy is deep with respect to the Result's own backing memory;
// output *elements* are copied by value, so an Output type that itself
// holds references into run-scoped memory (e.g. arena-carved slices)
// stays tied to the Runner. Every Output in this library's public surface
// is scalar-only, so detached reports are fully independent. Detaching a
// Result from a non-recycled run is harmless — just an ordinary copy.
func (r *Result[O]) Detach() *Result[O] {
	if r == nil {
		return nil
	}
	cp := *r
	if r.Outputs != nil {
		cp.Outputs = make([]O, len(r.Outputs))
		copy(cp.Outputs, r.Outputs)
	}
	if r.RoundStats != nil {
		cp.RoundStats = make([]RoundStat, len(r.RoundStats))
		copy(cp.RoundStats, r.RoundStats)
	}
	if r.MessageStats != nil {
		cp.MessageStats = make(map[string]MessageStat, len(r.MessageStats))
		for k, v := range r.MessageStats {
			cp.MessageStats[k] = v
		}
	}
	return &cp
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
// A lone send sits inline, so a receiver pulls the common round — one
// broadcast, or the τ-completion's one request — with a single 32-byte
// read per neighbor; anything more lives in the node's outList.
type outbox struct {
	first Packet // the node's only send, when n == 1
	n     int32  // sends queued this round, broadcasts and targeted
	to    int32  // first's receiver when it is a targeted send; -1 for a broadcast
}

// outList is one node's full traffic for one round, as views into its
// step shard's slabs. Written and read only when the node's outbox says
// it sent more than one packet.
type outList struct {
	bc []Packet    // broadcasts, in send order
	tg []outPacket // targeted sends, grouped by receiver, send order within a group
}

// Sender collects a node's outgoing packets for the current round. A
// broadcast is queued once, whatever the degree; receivers pull it. One
// Sender serves a whole step shard: the engine points it at each node in
// turn, and the node's sends append to the shard's slabs.
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
