package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-quantile (0 < p ≤ 1) of xs by the nearest-rank
// method; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(p*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakHeap runs fn while sampling the live heap every 5 ms, and returns
// the median over one-second windows of each window's peak, in MiB. The
// live heap is the bytes the last completed GC cycle marked reachable:
// unlike the heap's instantaneous size, it does not depend on where in
// the GC cycle a sample lands. The median over windows, unlike the single
// highest sample, does not hinge on one GC ending at the one moment the
// largest answer was live.
func peakHeap(fn func()) float64 {
	stop, done := make(chan struct{}), make(chan struct{})
	var peaks []float64 // written by the sampler only; read after done closes
	go func() {
		defer close(done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
		}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		window := time.Now().Add(time.Second) // lint:allow determinism — sampling schedule, not a measurement
		for {
			read()
			select {
			case <-stop:
				read()
				peaks = append(peaks, float64(peak)/(1<<20))
				return
			case now := <-t.C:
				if now.After(window) {
					peaks = append(peaks, float64(peak)/(1<<20))
					peak, window = 0, now.Add(time.Second)
				}
			}
		}
	}()
	fn()
	close(stop)
	<-done
	return median(peaks)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD: the calling thread's usage only.
const rusageThread = 1

// ownCPU runs fn with the calling goroutine locked to its thread and
// returns the CPU time that thread spent in fn. The benchmark's own work
// inside a timed window (answer checks, batch generation) is measured so
// and subtracted from the process CPU time: unlike the process total, the
// thread's figure holds none of the work other goroutines did meanwhile.
func ownCPU(fn func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var a, z syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &a); err != nil {
		fn()
		return 0
	}
	fn()
	if err := syscall.Getrusage(rusageThread, &z); err != nil {
		return 0
	}
	return time.Duration(z.Utime.Nano() + z.Stime.Nano() - a.Utime.Nano() - a.Stime.Nano())
}
