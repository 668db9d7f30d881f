package main

import (
	"os"
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
	if err := run([]string{"-only", "E2", "-scale", "small", "-parallel", "0"}); err != nil {
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
	cases := [][]string{
		{"-scale", "cosmic"},
		{"-format", "yaml", "-only", "E2"},
		{"-format", "json", "-only", "E2"},
		{"-only", "E99"},
		{"-only", "E2,E99"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
