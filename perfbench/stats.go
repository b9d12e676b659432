package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least q of the samples at or below it. xs is
// sorted in place. Nearest rank never interpolates, so every reported
// latency is one that was actually observed.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is the nearest-rank 0.5-quantile of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

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

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// rssPeakMB returns the process's peak resident set in MB (getrusage's
// ru_maxrss, the same high-water mark as VmHWM).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KB on Linux
}

// cpuTime returns the process's CPU time so far, user plus system, over all
// its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// latencies collects per-op latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// setLatency reports op latency: the nearest-rank median and 99th
// percentile of each pass, each a median over the passes. One disturbed
// pass then moves neither.
func (b *bench) setLatency(passes []latencies) {
	var p50, p99 []float64
	for _, l := range passes {
		xs := append([]float64(nil), l...)
		p50 = append(p50, quantile(xs, 0.50))
		p99 = append(p99, quantile(xs, 0.99))
	}
	b.set("run.p50_ms", median(p50), "ms")
	b.set("run.p99_ms", median(p99), "ms")
}

// opMedians reduces per-op samples (one per pass) to each op's median. On
// the workloads whose pass is a short list of unequal ops — grid rows,
// search jobs — p50 and p99 are then taken over the ops: quantiles within
// one pass would jump between ops as noise reorders them.
func opMedians(perOp []latencies) latencies {
	out := make(latencies, len(perOp))
	for i, l := range perOp {
		out[i] = median(l)
	}
	return out
}

// settle collects the garbage of set-up and earlier passes before a timed
// window opens, so no pass pays for another's allocations.
func settle() { runtime.GC() }

// passTimes are the per-pass measurements every workload shares, in
// seconds: the CPU time of set-up and of the fixed-work part, the wall time
// of the fixed-work part, and the CPU time of the speed reference
// (speedref.go), sampled before the first pass and after every pass.
type passTimes struct{ setups, cpus, walls, refs []float64 }

// start samples the speed reference before the first pass; every later
// pass starts at the sample its predecessor closed with.
func (t *passTimes) start() {
	if len(t.refs) == 0 {
		t.refs = append(t.refs, refBlock().Seconds())
	}
}

// add records one pass, whose setup and work are CPU times and wall the
// wall time of the work, and samples the speed reference after it.
func (t *passTimes) add(setup, work, wall time.Duration) {
	t.setups = append(t.setups, setup.Seconds())
	t.cpus = append(t.cpus, work.Seconds())
	t.walls = append(t.walls, wall.Seconds())
	t.refs = append(t.refs, refBlock().Seconds())
}

// setCommon reports the metrics every workload shares: set-up and
// fixed-work CPU times scaled to the reference speed, throughput per CPU
// second at that speed, the same measures unscaled and from the wall clock,
// allocations per completed op and the process's peak RSS. The set-up is a
// median over the passes. The work is a mean: the host's speed drifts in
// phases of seconds, and a mean averages over them where a median would
// pick one pass's phase. The scale is one for the run, from the median of
// its reference samples, which a burst on one sample does not move.
func (b *bench) setCommon(t passTimes, opsPerPass int64, allocs uint64, ops int64) {
	scale := refNominal.Seconds() / median(t.refs)
	b.set("setup_s", median(t.setups)*scale, "s")
	cpu := mean(t.cpus) * scale
	b.set("cpu_s", cpu, "s")
	if cpu > 0 {
		b.set("ops_per_cpu_s", float64(opsPerPass)/cpu, "1/s")
	}
	b.set("run.cpu_s", mean(t.cpus), "s")
	b.set("host.ref_ms", 1000*mean(t.refs), "ms")
	wall := median(t.walls)
	b.set("run.wall_s", wall, "s")
	if wall > 0 {
		b.set("run.ops_per_s", float64(opsPerPass)/wall, "1/s")
	}
	if ops > 0 {
		b.set("allocs_per_op", float64(allocs)/float64(ops), "count")
	}
	b.set("rss_peak_mb", rssPeakMB(), "MB")
}
