package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arbods/internal/server"
)

// silenceStdout redirects os.Stdout to /dev/null for the test's duration.
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

func TestRunAlgorithms(t *testing.T) {
	silenceStdout(t)
	algos := []string{
		"thm3.1", "thm1.1", "thm1.2", "thm1.3",
		"remark4.4", "remark4.5", "lw", "lrg", "greedy", "exact",
	}
	for _, a := range algos {
		t.Run(a, func(t *testing.T) {
			if err := run([]string{"-algo", a, "-gen", "forest:n=40,k=2", "-alpha", "2"}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := run([]string{"-algo", "tree", "-gen", "tree:n=50", "-print-ds"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWeighted(t *testing.T) {
	silenceStdout(t)
	if err := run([]string{"-algo", "thm1.1", "-gen", "grid:r=5,c=5/uniform:max=30", "-eps", "0.3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFromFile(t *testing.T) {
	silenceStdout(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.graph")
	content := "arbods-graph v1\nn 3 m 2\ne 0 1\ne 1 2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-algo", "thm1.1", "-graph", path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTimeout(t *testing.T) {
	silenceStdout(t)
	// A generous deadline changes nothing about the run...
	if err := run([]string{"-algo", "thm1.1", "-gen", "forest:n=40,k=2", "-timeout", "1m"}); err != nil {
		t.Fatal(err)
	}
	// ...an expired one aborts it with the context error.
	err := run([]string{"-algo", "thm1.1", "-gen", "forest:n=40,k=2", "-timeout", "1ns"})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("expired -timeout: err = %v, want a deadline error", err)
	}
}

func TestRunErrors(t *testing.T) {
	silenceStdout(t)
	cases := [][]string{
		{},                                     // no graph source
		{"-gen", "forest:n=10", "-graph", "x"}, // both sources
		{"-algo", "nope", "-gen", "path:n=5"},  // unknown algorithm
		{"-gen", "martian:n=5"},                // bad spec
		{"-algo", "tree", "-gen", "cycle:n=5"}, // tree algo on a cycle
		{"-graph", "/does/not/exist"},          // missing file
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestRunRemote(t *testing.T) {
	silenceStdout(t)
	srv, err := server.New(server.Config{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	// The full remote path: binary upload, solve with failover client,
	// receipt verified locally, receipt and DS printed.
	args := []string{"-servers", ts.URL, "-algo", "thm1.1",
		"-gen", "grid:r=5,c=5", "-print-ds", "-receipt"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	// The summary path (no -receipt) rides the same verified answer.
	if err := run([]string{"-servers", ts.URL, "-algo", "lw", "-gen", "grid:r=4,c=4"}); err != nil {
		t.Fatal(err)
	}
	// Centralized baselines are not servable; the server's rejection must
	// surface as a terminal error, not retries.
	err = run([]string{"-servers", ts.URL, "-algo", "greedy", "-gen", "grid:r=3,c=3"})
	if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("remote greedy: err = %v, want unknown algorithm", err)
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// daemon starts an in-process arbods-server and returns its base URL.
func daemon(t *testing.T) string {
	t.Helper()
	srv, err := server.New(server.Config{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// TestRemoteParity pins the one-contract promise: every name the daemon
// lists under /v1/algorithms runs locally too, and a -servers run prints
// byte-for-byte what the local run prints — the summary and the receipt.
func TestRemoteParity(t *testing.T) {
	url := daemon(t)
	resp, err := http.Get(url + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	var algos []server.AlgorithmInfo
	err = json.NewDecoder(resp.Body).Decode(&algos)
	resp.Body.Close()
	if err != nil || len(algos) == 0 {
		t.Fatalf("algorithm list: %v (%d names)", err, len(algos))
	}
	for _, a := range algos {
		for _, extra := range [][]string{nil, {"-receipt"}} {
			args := append([]string{"-algo", a.Name, "-gen", "tree:n=60", "-seed", "3"}, extra...)
			local := captureStdout(t, func() error { return run(args) })
			remote := captureStdout(t, func() error { return run(append([]string{"-servers", url}, args...)) })
			if local != remote {
				t.Errorf("%v: -servers output differs from the local run:\n--- local\n%s--- remote\n%s", args, local, remote)
			}
		}
	}
}

// TestZeroParams pins that a zero or negative -eps, -t or -k is refused,
// locally and with -servers alike: the request would read a zero as "use
// the default" and run something the caller did not ask for.
func TestZeroParams(t *testing.T) {
	silenceStdout(t)
	url := daemon(t)
	for _, where := range [][]string{nil, {"-servers", url}} {
		for _, args := range [][]string{
			{"-algo", "thm1.1", "-eps", "0"},
			{"-algo", "remark4.5", "-eps", "-0.5"},
			{"-algo", "thm1.2", "-t", "0"},
			{"-algo", "thm1.3", "-k", "0"},
			{"-algo", "kw05", "-k", "0"},
		} {
			err := run(append(append([]string{"-gen", "tree:n=20"}, where...), args...))
			if err == nil || !strings.Contains(err.Error(), "must be positive") {
				t.Errorf("%v %v: err = %v, want a refusal", where, args, err)
			}
		}
	}
}
