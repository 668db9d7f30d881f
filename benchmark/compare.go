package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json -compare judges by.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRecords reads result files: each holds one all-workload record, or a
// committed set of them under "runs".
func loadRecords(paths []string) ([]record, error) {
	var recs []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f struct {
			record
			Runs []record `json:"runs"`
		}
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if f.Runs != nil {
			recs = append(recs, f.Runs...)
		} else {
			recs = append(recs, f.record)
		}
	}
	return recs, nil
}

func valuesOf(recs []record, workload, name string) []float64 {
	var vs []float64
	for _, r := range recs {
		if m, ok := r.Workloads[workload].Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// verdict judges side b against side a for one metric. The spread is the
// wider of the two sides' quartile distances, as a share of their medians;
// wider than the bound, the comparison is unresolved unless every run of b
// reads better than every run of a. Otherwise b is worse when its median
// reads worse than a's by more than the bound, and better when it reads
// better by more than a's own quartile distance.
func verdict(a, b []float64, higherIsBetter bool, bound float64) string {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	worse := (bm - am) / am
	if higherIsBetter {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && x != y && (x > y) == higherIsBetter
		}
	}
	switch {
	case max((a3-a1)/am, (b3-b1)/bm) > bound:
		if allBetter {
			return "better"
		}
		return "unresolved"
	case worse > bound:
		return "worse"
	case worse < 0 && -worse*am > a3-a1:
		return "better"
	}
	return "within"
}

// runCompare prints, per workload and end-to-end metric, each side's median
// and quartiles, the relative delta of b against a, and the verdict against
// the metric's bound in BENCHMARK.json (read from the working directory, the
// repository root). It exits 1 when any pair is worse or unresolved.
func runCompare(args []string, stdout, stderr io.Writer) int {
	i := slices.Index(args, "--")
	if i < 1 || i == len(args)-1 {
		fmt.Fprintln(stderr, "benchmark: want -compare A1.json … -- B1.json …")
		return 2
	}
	recsA, errA := loadRecords(args[:i])
	recsB, errB := loadRecords(args[i+1:])
	var spec benchSpec
	raw, errS := os.ReadFile("BENCHMARK.json")
	if errS == nil {
		errS = json.Unmarshal(raw, &spec)
	}
	for _, err := range []error{errA, errB, errS} {
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%-18s %-14s %-30s %-30s %8s %7s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			va, vb := valuesOf(recsA, w.name, m.Name), valuesOf(recsB, w.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(va, vb, m.Better == "higher", m.Bound)
			if v == "worse" || v == "unresolved" {
				code = 1
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			fmt.Fprintf(stdout, "%-18s %-14s %-30s %-30s %+7.2f%% %6.1f%%  %s\n", w.name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", am, a1, a3, m.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", bm, b1, b3, m.Unit),
				100*(bm-am)/am, 100*m.Bound, v)
		}
	}
	return code
}
