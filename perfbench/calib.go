package main

import (
	"math"
	"runtime"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on a few cores of a shared host whose speed changes
// with its neighbours' load, even with almost no hypervisor steal. On a
// 2-vCPU Xeon guest, refKernel took 3.7 ms on one sample and 7 ms on the
// next, and 10 s dse-cold runs measured 15.5k candidates/s and, minutes
// later, 10.5k, with under 0.2% steal. No run length averages that away,
// so every end-to-end timing is reported in reference-host time:
// the window pauses its load every calibEvery, samples the host's speed
// with refKernel, and divides each sub-window's throughput by the mean
// speed sampled in it (and multiplies its latencies by it). A speed of 1
// is a host on which refKernel takes refNominal.
//
// refKernel is fixed floating-point work in the standard library only, so
// no change to mcpat can change its cost: a faster or slower mcpat moves
// the calibrated figures exactly as it moves the raw ones. It allocates
// nothing, so it neither feeds nor measures the workload's garbage
// collector. Runs print the sampled speed and the raw throughput on
// stderr.
const (
	refNominal = 5 * time.Millisecond
	calibEvery = 100 * time.Millisecond
	// refCopies is how many copies of refKernel each sample runs at once:
	// one per CPU the workloads use (two workers, two clients, or one
	// worker plus the concurrent garbage collector).
	refCopies = 2
)

// refRec is one host-speed sample.
type refRec struct {
	at    time.Duration // from the window start
	speed float64       // refNominal over the kernel's time
}

// refSink keeps the compiler from discarding refKernel's result.
var refSink float64

func refKernel() float64 {
	s := 0.0
	for i := 1; i < 200000; i++ {
		x := float64(i) * 1e-5
		s += math.Exp(-x) * math.Sqrt(x) / (1 + math.Log1p(x))
	}
	return s
}

// hostSpeeds runs refCopies copies of refKernel at once and returns each
// copy's speed. It first finishes any garbage-collection cycle in
// progress, so the kernel never shares the CPUs with one, and times each
// copy from its own start, so the wait to wake an idle CPU is not counted.
func hostSpeeds() []float64 {
	runtime.GC()
	type sample struct{ speed, sum float64 }
	done := make(chan sample, refCopies)
	for g := 0; g < refCopies; g++ {
		go func() {
			t0 := time.Now()
			v := refKernel()
			done <- sample{refNominal.Seconds() / time.Since(t0).Seconds(), v}
		}()
	}
	out := make([]float64, refCopies)
	for g := range out {
		s := <-done
		out[g] = s.speed
		refSink += s.sum
	}
	return out
}

// setupClock times a workload's repeated set-ups, each preceded by
// setupSamples host-speed samples. setup_s is the median set-up time in
// reference-host time.
type setupClock struct {
	t0          time.Time
	raw, speeds []float64
}

const setupSamples = 4

func (c *setupClock) start() {
	for i := 0; i < setupSamples; i++ {
		c.speeds = append(c.speeds, hostSpeeds()...)
	}
	c.t0 = time.Now()
}

func (c *setupClock) stop() { c.raw = append(c.raw, time.Since(c.t0).Seconds()) }

// seconds is the median set-up time scaled to reference-host time.
func (c *setupClock) seconds() float64 { return median(c.raw) * mean(c.speeds) }
