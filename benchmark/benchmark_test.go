package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"arbods"
	"arbods/internal/gen"
)

// smallSizes runs every workload through the same code as the command line
// in a few seconds.
var smallSizes = config{forestN: 20_000, baN: 5_000, serveN: 2_000, serveWarmup: 200 * time.Millisecond}

type specFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode keeps BENCHMARK.json and the metric tables the
// program prints from in step.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(code) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, code)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []metricDef
	}{{s.EndToEnd, endToEnd}, {s.PerLayer, perLayer}} {
		var f, g []string
		for _, m := range c.file {
			f = append(f, m.Name+" "+m.Unit)
		}
		for _, m := range c.code {
			g = append(g, m.name+" "+m.unit)
		}
		if fmt.Sprint(f) != fmt.Sprint(g) {
			t.Errorf("BENCHMARK.json metrics\n%v\ncode\n%v", f, g)
		}
	}
}

// TestSmoke runs all four workloads in-process at small sizes, untraced and
// traced, and checks the printed metrics and the result line.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	for _, traced := range []bool{false, true} {
		want, window := s.EndToEnd, time.Second
		if traced {
			want, window = s.PerLayer, time.Second/2
		}
		for _, w := range workloads {
			var stdout, stderr bytes.Buffer
			code := runOne(w, smallSizes, 1, window, traced, "", &stdout, &stderr)
			if code != 0 {
				t.Errorf("%s traced=%v: exit %d\n%s", w.name, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatalf("%s: result line does not parse: %v", w.name, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, r.Correct, r.Failed, r.Attempted)
			}
			printed := strings.Join(lines[:len(lines)-1], "\n")
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", w.name, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
				if !strings.Contains(printed, " "+m.Name+" ") || !strings.Contains(printed, " "+m.Unit) {
					t.Errorf("%s: %s not printed with its unit", w.name, m.Name)
				}
			}
			if traced && strings.HasPrefix(w.name, "solve_") {
				if c := r.Metrics["trace.coverage"].Value; c < 0.95 {
					t.Errorf("%s: trace.coverage = %v, want ≥ 0.95", w.name, c)
				}
			}
		}
	}
}

func TestSelfTimesAndCoverage(t *testing.T) {
	// op [0,100]: decode [0,10], run [12,90] with rounds [12,40] and
	// [40,85] and report [85,90], receipt [90,99].
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "graph.decode", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "congest.run", Start: 12, End: 90},
		{ID: 4, Parent: 3, Name: "congest.round", Start: 12, End: 40},
		{ID: 5, Parent: 3, Name: "congest.round", Start: 40, End: 85},
		{ID: 6, Parent: 3, Name: "mds.report", Start: 85, End: 90},
		{ID: 7, Parent: 1, Name: "verify.receipt", Start: 90, End: 99},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 3, 2: 10, 3: 0, 4: 28, 5: 45, 6: 5, 7: 9} {
		if math.Abs(self[id]-want) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if c := coverage(spans, 1); math.Abs(c-0.97) > 1e-9 {
		t.Errorf("coverage = %v, want 0.97", c)
	}
	if c := coverage(spans, 3); math.Abs(c-1) > 1e-9 {
		t.Errorf("coverage of congest.run = %v, want 1", c)
	}
}

// TestPinsIndependentOfWorkers checks that the transcript the pins hold
// is the same on the sequential engine and on parallel workers.
func TestPinsIndependentOfWorkers(t *testing.T) {
	for _, c := range []struct {
		spec  string
		solve solveFunc
	}{
		{"forest:n=40000,k=3,seed=1/uniform:max=100,seed=1", thm11(3)},
		{"ba:n=5000,m=3,seed=1/uniform:max=100,seed=1", thm12},
	} {
		w, err := gen.Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		body, err := encodeBinary(w.G)
		if err != nil {
			t.Fatal(err)
		}
		var pins []pin
		for _, workers := range []int{1, 0, 2, 3} {
			st, err := libraryOp(body, c.solve, nil, 0, arbods.WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.spec, workers, err)
			}
			pins = append(pins, st.pin)
		}
		for i, p := range pins[1:] {
			if err := p.diff(pins[0]); err != nil {
				t.Errorf("%s: run %d differs from workers=1: %v", c.spec, i+1, err)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 102, 103, 104}
	for _, c := range []struct {
		b      []float64
		higher bool
		want   string
	}{
		{[]float64{101, 102, 103, 104, 105}, false, "within"},
		{[]float64{120, 121, 122, 123, 124}, false, "worse"},
		{[]float64{120, 121, 122, 123, 124}, true, "better"},
		{[]float64{90, 91, 92, 93, 94}, false, "better"},
		{[]float64{60, 80, 100, 120, 140}, false, "unresolved"},
		{[]float64{10, 30, 50, 70, 90}, false, "better"},
	} {
		if got := verdict(base, c.b, c.higher, 0.1); got != c.want {
			t.Errorf("verdict(%v, higher=%v) = %s, want %s", c.b, c.higher, got, c.want)
		}
	}
}
