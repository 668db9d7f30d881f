package main

import (
	"os"
	"strings"
	"testing"
)

func silenceStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

func TestRunSingleExperiment(t *testing.T) {
	silenceStdout(t)
	if err := run([]string{"-only", "E2", "-scale", "small", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-only", "E6", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	// -parallel pipelines each experiment's independent runs across a
	// RunnerPool; the emitted tables are identical (pinned by
	// bench.TestParallelMatchesSequential), so this only needs to prove
	// the flag wiring runs end to end.
	if err := run([]string{"-only", "E4", "-scale", "small", "-parallel", "3"}); err != nil {
		t.Fatal(err)
	}
	// Zero keeps its meaning for both knobs: GOMAXPROCS and the scale's
	// default repetitions.
	if err := run([]string{"-only", "E2", "-scale", "small", "-parallel", "0", "-reps", "0"}); err != nil {
		t.Fatal(err)
	}
}

func TestList(t *testing.T) {
	silenceStdout(t)
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	silenceStdout(t)
	cases := []struct {
		args []string
		want string // what the error must name
	}{
		{[]string{"-scale", "cosmic"}, "cosmic"},
		{[]string{"-format", "yaml", "-only", "E2"}, "yaml"},
		{[]string{"-format", "json", "-only", "E2"}, "json"},
		{[]string{"-only", "E99"}, "E99"},
		{[]string{"-only", "E2,E99"}, "E99"},
		{[]string{"-only", "E4", "-reps", "-3"}, "-reps -3"},
		{[]string{"-only", "E4", "-parallel", "-7"}, "-parallel -7"},
	}
	for _, c := range cases {
		if err := run(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("args %v: err = %v, want a refusal naming %q", c.args, err, c.want)
		}
	}
}
