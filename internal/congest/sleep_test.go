package congest

import (
	"reflect"
	"testing"

	"arbods/internal/gen"
	"arbods/internal/graph"
)

// sleepEnd bounds the round from which a sleepProc's next step terminates
// it: node v stops at sleepEnd-4·(v%3), so later nodes' mail reaches
// terminated ones.
const sleepEnd = 24

// sleepOut is a sleepProc's output: the rounds of its real steps, a sum
// over everything it received, and how many of its real steps came before
// its wake round, because mail arrived.
type sleepOut struct {
	Steps     []int32
	Sum       int64
	MailWakes int
}

// sleepProc exercises SleepUntil. A real step sums its inbox, draws
// whether to broadcast, send to a random neighbor or both, and, once its
// wake round has come, draws the next one, 1 to 6 rounds on; in round 6
// every node that steps broadcasts, so round 7 walks every neighbor list.
// The first real step at or after its end round terminates the node, after
// a last broadcast. With sleep set the proc asks for its wake round with
// SleepUntil, after asking for a later one that the second call must
// override. Without it the engine steps it every round, and it treats a
// step before its wake round with an empty inbox as one the sleeping
// engine must skip: it does nothing and counts it in idle. Both runs must
// agree on everything else.
type sleepProc struct {
	ni    NodeInfo
	sleep bool
	wake  int
	idle  int
	out   sleepOut
}

func (p *sleepProc) Step(round int, in []Incoming, s *Sender) bool {
	if round < p.wake && len(in) == 0 {
		p.idle++
		return false
	}
	p.out.Steps = append(p.out.Steps, int32(round))
	for _, m := range in {
		p.out.Sum = p.out.Sum*31 + int64(m.From)*7 + int64(m.P.A)
	}
	nb := p.ni.Neighbors
	if end := sleepEnd - 4*(p.ni.ID%3); round >= end {
		if len(nb) > 0 {
			s.Broadcast(Packet{Tag: 1, Bits: 20, A: uint64(round)})
		}
		return true
	} else if round < p.wake {
		p.out.MailWakes++
	} else {
		p.wake = min(round+1+p.ni.Rand.Intn(6), end)
	}
	if len(nb) > 0 {
		if round == 6 || p.ni.Rand.Bernoulli(0.1) {
			s.Broadcast(Packet{Tag: 1, Bits: 20, A: uint64(round)})
		}
		if p.ni.Rand.Bernoulli(0.05) {
			s.Send(int(nb[p.ni.Rand.Intn(len(nb))]), Packet{Tag: 2, Bits: 20, A: uint64(p.ni.ID)})
		}
	}
	if p.sleep {
		SleepUntil(s, round+100)
		SleepUntil(s, p.wake)
	}
	return false
}

func (p *sleepProc) Output() sleepOut { return p.out }

// runSleepy runs sleepProc on g and returns the result and the idle steps
// summed over all nodes.
func runSleepy(g *graph.Graph, sleep bool, opts ...Option) (*Result[sleepOut], int, error) {
	slab := make([]sleepProc, g.N())
	res, err := Run(g, func(ni NodeInfo) Proc[sleepOut] {
		p := &slab[ni.ID]
		*p = sleepProc{ni: ni, sleep: sleep}
		return p
	}, opts...)
	idle := 0
	for i := range slab {
		idle += slab[i].idle
	}
	return res, idle, err
}

// TestSleepUntil pins the sleep contract against a run in which every node
// is stepped in every round: a sleeper is never stepped in a round before
// its wake round with an empty inbox, mail or the wake round gets it
// stepped, it counts as active, and the whole Result — outputs, round
// stats, message stats, drops — is that of the reference at every worker
// count, through light rounds (pulls at marked nodes only) and dense ones.
func TestSleepUntil(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", gen.BarabasiAlbert(600, 3, 5).G},
		{"er", gen.ErdosRenyi(500, 0.012, 6).G},
		{"star", buildStar(t, 200)},
		{"grid", gen.Grid(15, 20).G},
	} {
		g := c.g
		opts := []Option{WithSeed(9), WithMode(Local), WithRoundStats(), WithMessageStats()}
		want, skipped, err := runSleepy(g, false, append(opts, WithWorkers(1))...)
		if err != nil {
			t.Fatal(err)
		}
		mailWakes, light, dense := 0, 0, 0
		for _, o := range want.Outputs {
			mailWakes += o.MailWakes
		}
		for _, st := range want.RoundStats {
			if st.Round < sleepEnd-8 && st.ActiveNodes != g.N() {
				t.Fatalf("%s: round %d has %d active nodes, want all %d", c.name, st.Round, st.ActiveNodes, g.N())
			}
			switch {
			case st.Messages*sparseRatio > int64(g.DegreeSum()):
				dense++
			case st.Messages > 0:
				light++
			}
		}
		if skipped == 0 || mailWakes == 0 || light < 3 || dense < 1 || want.DroppedMessages == 0 {
			t.Fatalf("%s: %d skippable steps, %d mail wakes, %d light and %d dense rounds, %d dropped — the scenario lost its teeth",
				c.name, skipped, mailWakes, light, dense, want.DroppedMessages)
		}
		for _, w := range []int{1, 2, 3} {
			got, idle, err := runSleepy(g, true, append(opts, WithWorkers(w))...)
			if err != nil {
				t.Fatal(err)
			}
			if idle != 0 {
				t.Errorf("%s workers=%d: %d sleeping nodes were stepped with an empty inbox before their wake round", c.name, w, idle)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: the sleeping run differs from the one that steps every node", c.name, w)
			}
		}
	}
}

// TestSleepRunnerReuse aborts a run while nodes sleep, then reruns on the
// same Runner: the sleeps must not reach the next run, which must equal a
// run on a fresh Runner, at one worker and at three.
func TestSleepRunnerReuse(t *testing.T) {
	g := gen.BarabasiAlbert(600, 3, 5).G
	for _, w := range []int{1, 3} {
		opts := []Option{WithSeed(9), WithWorkers(w), WithMode(Local), WithRoundStats()}
		want, _, err := runSleepy(g, true, opts...)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner()
		reused := append(opts, WithRunner(r))
		if _, _, err := runSleepy(g, true, append(reused, WithMaxRounds(4))...); err == nil {
			t.Fatal("the 4-round cap did not abort the run")
		}
		for pass := 0; pass < 2; pass++ {
			got, idle, err := runSleepy(g, true, reused...)
			if err != nil {
				t.Fatal(err)
			}
			if idle != 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d pass %d: a run on a reused Runner differs from a fresh one (%d idle steps)", w, pass, idle)
			}
		}
		r.Close()
	}
}

// capProc asks in every step to sleep until round 600, when it stops; its
// output is the rounds it was stepped in.
type capProc struct{ steps []int }

func (p *capProc) Step(round int, in []Incoming, s *Sender) bool {
	p.steps = append(p.steps, round)
	SleepUntil(s, 600)
	return round >= 600
}

func (p *capProc) Output() []int { return p.steps }

// TestSleepCap: a sleep skips at most 254 rounds, so a node that asks to
// skip 599 with no mail is stepped every 255 rounds, and is active until
// it stops.
func TestSleepCap(t *testing.T) {
	res, err := Run(gen.Path(2).G, func(NodeInfo) Proc[[]int] { return &capProc{} }, WithRoundStats())
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 255, 510, 600}; !reflect.DeepEqual(res.Outputs[0], want) {
		t.Errorf("stepped in rounds %v, want %v", res.Outputs[0], want)
	}
	for _, st := range res.RoundStats[:600] {
		if st.ActiveNodes != 2 {
			t.Fatalf("round %d has %d active nodes, want 2", st.Round, st.ActiveNodes)
		}
	}
}
