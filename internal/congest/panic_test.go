package congest_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"arbods/internal/congest"
	"arbods/internal/faultinject"
	"arbods/internal/gen"
)

// panicProc behaves like echoProc but panics inside Step once round
// reaches panicRound on any node with ID ≥ panicFrom. Several nodes
// panicking in the same round exercises the lowest-node-wins rule across
// worker layouts.
type panicProc struct {
	echo       echoProc
	panicRound int
	panicFrom  int
}

func (p *panicProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	if round == p.panicRound && p.echo.ni.ID >= p.panicFrom {
		panic("boom")
	}
	return p.echo.Step(round, in, s)
}

func (p *panicProc) Output() int64 { return p.echo.Output() }

// TestProcPanicIsolated: a Step panic surfaces as *ProcPanicError with the
// exact round and the lowest panicking node, for any worker count; the
// Runner is poisoned but a subsequent run on it is still byte-identical to
// a fresh-Runner run (bind resets everything — quarantine is a pool
// policy, not a correctness requirement).
func TestProcPanicIsolated(t *testing.T) {
	g := gen.ErdosRenyi(500, 0.01, 3).G
	want := runEcho(t, g)
	for _, workers := range []int{1, 4} {
		r := congest.NewRunner()
		_, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[int64] {
			return &panicProc{echo: echoProc{ni: ni, rounds: 3}, panicRound: 2, panicFrom: 123}
		}, congest.WithRunner(r), congest.WithWorkers(workers))
		if err == nil {
			t.Fatalf("workers=%d: panicking proc did not fail the run", workers)
		}
		if !errors.Is(err, congest.ErrProcPanic) {
			t.Fatalf("workers=%d: err %v does not match ErrProcPanic", workers, err)
		}
		var pe *congest.ProcPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err %T is not *ProcPanicError", workers, err)
		}
		if pe.Round != 2 || pe.Node != 123 {
			t.Fatalf("workers=%d: got (round=%d, node=%d), want (2, 123)", workers, pe.Round, pe.Node)
		}
		if pe.Value != "boom" {
			t.Fatalf("workers=%d: panic value %v, want boom", workers, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
		if !r.Poisoned() {
			t.Fatalf("workers=%d: Runner not poisoned after proc panic", workers)
		}
		// Direct reuse stays correct: the next bind rebuilds all run state.
		if got := runEcho(t, g, congest.WithRunner(r), congest.WithWorkers(workers)); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: post-panic reuse diverges:\nwant %+v\n got %+v", workers, want, got)
		}
		r.Close()
	}
}

// TestPanicInFactory: a panicking constructor fails the run before round 0
// (Round = -1) and still reports the node being constructed.
func TestPanicInFactory(t *testing.T) {
	g := gen.Cycle(100).G
	_, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[int64] {
		if ni.ID == 7 {
			panic("bad constructor")
		}
		return &echoProc{ni: ni, rounds: 1}
	})
	var pe *congest.ProcPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %v is not *ProcPanicError", err)
	}
	if pe.Round != -1 || pe.Node != 7 {
		t.Fatalf("got (round=%d, node=%d), want (-1, 7)", pe.Round, pe.Node)
	}
}

// outputPanicProc finishes normally but panics when its output is
// collected.
type outputPanicProc struct{ echoProc }

func (p *outputPanicProc) Output() int64 { panic("bad output") }

// TestPanicInOutput: a panic during output collection (after the round
// loop) is recovered with Round = -1 and the collecting node's ID.
func TestPanicInOutput(t *testing.T) {
	g := gen.Cycle(100).G
	_, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[int64] {
		if ni.ID == 42 {
			return &outputPanicProc{echoProc{ni: ni, rounds: 1}}
		}
		return &echoProc{ni: ni, rounds: 1}
	})
	var pe *congest.ProcPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %v is not *ProcPanicError", err)
	}
	if pe.Round != -1 || pe.Node != 42 {
		t.Fatalf("got (round=%d, node=%d), want (-1, 42)", pe.Round, pe.Node)
	}
}

// TestRunnerPoolReplacesPoisoned: Put swaps a poisoned Runner for a fresh
// one, the swap is counted, and the replacement serves a byte-identical
// run.
func TestRunnerPoolReplacesPoisoned(t *testing.T) {
	g := gen.Grid(20, 25).G
	want := runEcho(t, g)
	p := congest.NewRunnerPool(1)
	defer p.Close()

	r := get(t, p)
	_, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[int64] {
		return &panicProc{echo: echoProc{ni: ni, rounds: 3}, panicRound: 1, panicFrom: 0}
	}, congest.WithRunner(r))
	if !errors.Is(err, congest.ErrProcPanic) {
		t.Fatalf("want ErrProcPanic, got %v", err)
	}
	p.Put(r)
	if got := p.Replaced(); got != 1 {
		t.Fatalf("Replaced() = %d, want 1", got)
	}

	fresh := get(t, p)
	if fresh == r {
		t.Fatal("pool returned the poisoned Runner")
	}
	if fresh.Poisoned() {
		t.Fatal("replacement Runner is poisoned")
	}
	got := runEcho(t, g, congest.WithRunner(fresh))
	p.Put(fresh)
	if p.Replaced() != 1 {
		t.Fatalf("clean Put incremented Replaced to %d", p.Replaced())
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replacement Runner run diverges:\nwant %+v\n got %+v", want, got)
	}
}

// TestFaultInjectionStep: the congest.step seam converts an armed fault
// into the matching failure mode — an error fails the round it fires in, a
// panic is recovered on the engine contract (Node = -1), and a delay just
// slows the round down.
func TestFaultInjectionStep(t *testing.T) {
	g := gen.ErdosRenyi(200, 0.02, 5).G

	reg := faultinject.New(1)
	reg.Arm("congest.step", faultinject.Fault{Round: 2, Err: faultinject.ErrInjected})
	_, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[int64] {
		return &echoProc{ni: ni, rounds: 5}
	}, congest.WithFaultInjection(reg))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}

	reg = faultinject.New(1)
	reg.Arm("congest.step", faultinject.Fault{Round: 3, Panic: "injected"})
	_, err = congest.Run(g, func(ni congest.NodeInfo) congest.Proc[int64] {
		return &echoProc{ni: ni, rounds: 5}
	}, congest.WithFaultInjection(reg), congest.WithWorkers(4))
	var pe *congest.ProcPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %v is not *ProcPanicError", err)
	}
	if pe.Round != 3 || pe.Node != -1 {
		t.Fatalf("got (round=%d, node=%d), want (3, -1)", pe.Round, pe.Node)
	}

	reg = faultinject.New(1)
	reg.Arm("congest.step", faultinject.Fault{Round: 1, Delay: time.Millisecond})
	want := runEcho(t, g)
	got := runEcho(t, g, congest.WithFaultInjection(reg))
	if !reflect.DeepEqual(want, got) {
		t.Fatal("a delay-only fault changed the transcript")
	}
	if reg.Hits("congest.step") == 0 {
		t.Fatal("seam never fired")
	}
}
