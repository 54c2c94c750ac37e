package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank on the sorted
// copy); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailOK reports whether a q-quantile of n samples keeps at least ten
// samples beyond it.
func tailOK(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio divides, reading 0/0 as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durationsSec converts set-up durations to seconds.
func durationsSec(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or the
// Go runtime's obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// settle collects the previous phase's garbage before the next timed
// phase starts, so no phase pays for another's allocations.
func settle() { runtime.GC() }

// refSink keeps the reference loop's result alive.
var refSink uint64

// refLoopMS times a fixed CPU loop. Printed at the start and end of every
// run, it tells host drift apart from a change in the program.
func refLoopMS() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for range 40_000_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return ms(time.Since(t0))
}

// cpuTicks reads the host-wide CPU time counters from /proc/stat: all
// ticks and the ticks stolen by the hypervisor (zeros without /proc).
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// parseExposition reads a Prometheus text exposition into values keyed
// both by series (name{labels}) and by name alone, the latter summed
// over labels so per-shard series roll up to one figure.
func parseExposition(body []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, name := line[:sp], line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
		if series != name {
			out[series] = v
		}
	}
	return out
}

// delta returns after[name] - before[name].
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}
