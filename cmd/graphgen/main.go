// Command graphgen generates a workload graph and writes it in the arbods
// text format.
//
//	graphgen -gen forest:n=1000,k=3,seed=7/uniform:max=100 -out g.graph
//	graphgen -gen grid:r=20,c=20                       # stdout
package main

import (
	"flag"
	"fmt"
	"os"

	"arbods"
	"arbods/internal/arbor"
	"arbods/internal/gen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	var (
		spec = fs.String("gen", "", "graph generator spec (see internal/gen.Parse)")
		out  = fs.String("out", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spec == "" {
		return fmt.Errorf("pass -gen SPEC")
	}
	w, err := gen.Parse(*spec)
	if err != nil {
		return err
	}
	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if err := arbods.EncodeGraph(dst, w.G); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "graphgen: %s — n=%d m=%d Δ=%d arboricity≤%d\n",
		w.Name, w.G.N(), w.G.M(), w.G.MaxDegree(), effectiveBound(w))
	return nil
}

func effectiveBound(w gen.Result) int {
	if w.ArboricityBound > 0 {
		return w.ArboricityBound
	}
	return arbor.DegeneracyOf(w.G)
}
