package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sample is what one timed iteration cost the whole process.
type sample struct {
	Wall       float64 // host seconds
	CPU        float64 // user+system CPU seconds of the process (every goroutine, GC included)
	AllocBytes uint64
	Allocs     uint64
	GCCycles   uint64
	GCCPU      float64 // runtime estimate of CPU seconds spent in GC
}

type counters struct {
	cpu        float64
	allocBytes uint64
	allocs     uint64
	gcCycles   uint64
	gcCPU      float64
}

var rtSamples = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(rtSamples)
	return counters{
		cpu:        processCPU(),
		allocBytes: ms.TotalAlloc,
		allocs:     ms.Mallocs,
		gcCycles:   uint64(ms.NumGC),
		gcCPU:      rtFloat(rtSamples[0]),
	}
}

func rtFloat(s metrics.Sample) float64 {
	if s.Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s.Value.Float64()
}

// processCPU returns the process's user+system CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// maxRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// measure runs fn once after a full collection, so every iteration starts
// from the same heap state, and reports what it cost the process.
func measure(fn func() error) (sample, error) {
	runtime.GC()
	before := readCounters()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	after := readCounters()
	return sample{
		Wall:       wall,
		CPU:        after.cpu - before.cpu,
		AllocBytes: after.allocBytes - before.allocBytes,
		Allocs:     after.allocs - before.allocs,
		GCCycles:   after.gcCycles - before.gcCycles,
		GCCPU:      after.gcCPU - before.gcCPU,
	}, err
}

// setupTimes times fn n times after warm discarded calls, each after a full
// collection, so the median describes set-up in a warmed-up process rather
// than first-touch page faults, thread creation and GC pacing. fn times the
// part that counts as set-up and returns it.
func setupTimes(warm, n int, fn func() (time.Duration, error)) ([]float64, error) {
	var out []float64
	for i := 0; i < warm+n; i++ {
		runtime.GC()
		d, err := fn()
		if err != nil {
			return nil, err
		}
		if i >= warm {
			out = append(out, d.Seconds())
		}
	}
	return out, nil
}

// timedLoop runs one discarded warm-up iteration, then timed iterations until
// seconds have elapsed (at least minIters of them). prepare, when not nil,
// runs untimed before each iteration. iter receives the iteration index (0
// is the warm-up) and returns whether the iteration's correctness gate
// passed; every iteration, the warm-up included, counts as gated.
func timedLoop(seconds float64, minIters int, prepare func(i int) error, iter func(i int) (bool, error)) (samples []sample, gated, failed int, err error) {
	return loop(func(ss []sample) bool {
		return len(ss) < minIters || sumWall(ss) < seconds
	}, prepare, iter)
}

// roundsLoop is timedLoop over a fixed set of n inputs: timed iterations
// come in whole rounds of n, at least one, and another round starts only
// when it is expected to end within seconds. Which inputs a run measures
// therefore does not depend on host or code speed; only how often they
// repeat does.
func roundsLoop(seconds float64, n int, prepare func(i int) error, iter func(i int) (bool, error)) (samples []sample, gated, failed int, err error) {
	return loop(func(ss []sample) bool {
		k := len(ss)
		if k < n || k%n != 0 {
			return true
		}
		rounds := float64(k / n)
		return sumWall(ss)*(rounds+1)/rounds <= seconds
	}, prepare, iter)
}

// loop runs the warm-up and then timed iterations while more says so.
func loop(more func(samples []sample) bool, prepare func(i int) error, iter func(i int) (bool, error)) (samples []sample, gated, failed int, err error) {
	for i := 0; i == 0 || more(samples); i++ {
		if prepare != nil {
			if err := prepare(i); err != nil {
				return samples, gated, failed, err
			}
		}
		var ok bool
		s, err := measure(func() error {
			var ierr error
			ok, ierr = iter(i)
			return ierr
		})
		if err != nil {
			return samples, gated, failed, err
		}
		gated++
		if !ok {
			failed++
		}
		if i > 0 {
			samples = append(samples, s)
		}
	}
	return samples, gated, failed, nil
}

func sumWall(ss []sample) float64 {
	t := 0.0
	for _, s := range ss {
		t += s.Wall
	}
	return t
}

// median returns the middle value (mean of the two middle values for even
// counts); NaN for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks; vs is sorted in place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vs[lo] + (vs[hi]-vs[lo])*(pos-float64(lo))
}

// column extracts one field of every sample.
func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// costMetrics records the per-iteration process costs common to every
// workload: CPU, allocation and GC.
func costMetrics(r *run, ss []sample) {
	r.series("cpu_s", "s", column(ss, func(s sample) float64 { return s.CPU }))
	r.series("alloc_mb", "MB", column(ss, func(s sample) float64 { return float64(s.AllocBytes) / 1e6 }))
	r.series("allocs", "count", column(ss, func(s sample) float64 { return float64(s.Allocs) }))
	r.series("runtime.gc_cycles", "count", column(ss, func(s sample) float64 { return float64(s.GCCycles) }))
	r.series("runtime.gc_cpu_frac", "ratio", column(ss, func(s sample) float64 {
		if s.CPU <= 0 {
			return 0
		}
		return s.GCCPU / s.CPU
	}))
}
