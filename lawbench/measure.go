package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// clock is the run's monotonic time base: every timestamp in a run is
// nanoseconds since one time.Time, so client, server and simulator
// spans share a clock.
type clock struct{ base time.Time }

func newClock() clock { return clock{base: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// missed stands in for the latency of a valid request that failed: it
// misses every latency limit, so it sorts above every real sample.
const missed = math.MaxInt64

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortInt64(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// us converts nanoseconds to microseconds. A missed sample reads as the
// largest float, so a failing run cannot report a plausible tail (and
// its result line still encodes as JSON).
func us(ns int64) float64 {
	if ns == missed {
		return math.MaxFloat64
	}
	return float64(ns) / 1e3
}

// median of float samples (the mean of the middle pair for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a snapshot of the process counters a timed phase is charged
// with: CPU time, heap allocations and allocated bytes.
type usage struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: cpuTime(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, mallocs: u.mallocs - v.mallocs, allocBytes: u.allocBytes - v.allocBytes}
}

// heapSampler records the in-use heap (HeapInuse: live and unswept
// objects plus free space inside in-use spans) while running, sampling
// runtime/metrics without stopping the world.
type heapSampler struct {
	clk     clock
	stop    chan struct{}
	done    sync.WaitGroup
	samples []heapSample
}

type heapSample struct {
	at    int64 // clock time
	bytes uint64
}

var heapMetrics = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func heapInuse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	var n uint64
	for _, m := range s {
		if m.Value.Kind() == metrics.KindUint64 {
			n += m.Value.Uint64()
		}
	}
	return n
}

// startHeapSampler samples every period until stopped.
func startHeapSampler(clk clock, period time.Duration) *heapSampler {
	h := &heapSampler{clk: clk, stop: make(chan struct{})}
	s := make([]metrics.Sample, len(heapMetrics))
	for i, name := range heapMetrics {
		s[i].Name = name
	}
	sample := func() { h.samples = append(h.samples, heapSample{at: clk.now(), bytes: heapInuse(s)}) }
	sample()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the highest sample taken up to
// clock time until (the first sample at least) in MB (2^20 bytes).
func (h *heapSampler) stopMB(until int64) float64 {
	close(h.stop)
	h.done.Wait()
	peak := h.samples[0].bytes
	for _, v := range h.samples[1:] {
		if v.at <= until {
			peak = max(peak, v.bytes)
		}
	}
	return float64(peak) / (1 << 20)
}
