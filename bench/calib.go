package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"
)

// calRef is a fixed reference time for calibrate, in seconds: near its
// median on a shared 2-core Xeon VM, where it ranged from 0.0105 s to
// 0.0183 s as the host's load changed.
// Host-normalized times are wall times scaled by calRef over the run's
// median calibration.
const calRef = 0.0135

// calTable is the calibration loop's working set: 4 MB, beyond a
// core's private caches, like the simulator's and miner's data.
var calTable []uint32

// calSink keeps the calibration loop's result alive.
var calSink uint32

// calibrate times a fixed loop of dependent random reads and writes over
// calTable and returns its wall time in seconds. The loop is the
// benchmark's own code, identical on every commit, so its time measures
// only how fast the host is running right now: shared hosts change
// speed by tens of percent over minutes as their neighbours come and go.
func calibrate() float64 {
	if calTable == nil {
		calTable = make([]uint32, 1<<20)
	}
	t0 := time.Now()
	x, acc := uint32(1), uint32(0)
	for i := 0; i < 4_000_000; i++ {
		x = x*1664525 + 1013904223
		acc += calTable[x>>12]
		calTable[x>>12] = acc
	}
	calSink += acc
	return time.Since(t0).Seconds()
}

// rssSampler records the largest resident set seen while it runs.
type rssSampler struct {
	stop, done chan struct{}
	peak       float64
}

// sampleRSS starts sampling the resident set every 20 ms.
func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: rssMB()}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if v := rssMB(); v > s.peak {
					s.peak = v
				}
			}
		}
	}()
	return s
}

// end stops the sampler and returns the peak it saw, in MB.
func (s *rssSampler) end() float64 {
	close(s.stop)
	<-s.done
	if v := rssMB(); v > s.peak {
		s.peak = v
	}
	return s.peak
}

// rssMB returns the process's resident set (VmRSS) in MB, falling back
// to the Go runtime's mapped and unreleased memory off Linux.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			var kb float64
			if _, err := fmt.Sscanf(sc.Text(), "VmRSS: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mb(int64(ms.Sys - ms.HeapReleased))
}
