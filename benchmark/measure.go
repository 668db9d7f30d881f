package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss, the kernel's
// VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// settle collects the heap and returns free memory to the OS before a
// measurement, so that each library op — like a CLI solve — starts from a
// clean heap, and peak_rss_mb does not depend on whether a previous op's or
// set-up's garbage was still resident. A 10^6-node solve otherwise peaks at
// 1.8 or 3.3 GB from run to run.
func settle() { debug.FreeOSMemory() }

// percentile interpolates linearly between the closest ranks of xs
// (p in [0,1]); 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// finite maps the NaN or ±Inf of an empty ratio to 0, which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, the spread rule the benchmark's bounds are judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	var q [n - 1]float64
	m := ld + 1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// runtimeSample holds the cumulative runtime/metrics counters the go_runtime
// layer reports as deltas.
type runtimeSample struct {
	allocBytes, gcCycles     uint64
	gcCPU, idleCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		idleCPU:    s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// runtimeLayer reports the go_runtime metrics between two samples.
func runtimeLayer(o *outcome, a, b runtimeSample) {
	o.layers["go_runtime.alloc_mb"] = float64(b.allocBytes-a.allocBytes) / (1 << 20)
	o.layers["go_runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	if total := b.totalCPU - a.totalCPU; total > 0 {
		o.layers["go_runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / total
		o.layers["go_runtime.idle_cpu_frac"] = (b.idleCPU - a.idleCPU) / total
	}
}

// hostCPU is the machine-wide /proc/stat CPU line: steal and the sum of the
// first eight fields (user … steal).
type hostCPU struct{ steal, total uint64 }

func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostCPU{}
	}
	fields := strings.Fields(sc.Text())
	var h hostCPU
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealFrac is the share of machine CPU time the hypervisor stole between
// two readings.
func stealFrac(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// hostInfo stamps a record with the hardware it was measured on.
type hostInfo struct {
	NumCPU     int     `json:"numcpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	StealFrac  float64 `json:"host.steal_frac"`
}

func currentHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
