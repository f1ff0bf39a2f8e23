package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared virtual machines whose speed is not its
// own: the same pure-CPU loop has been seen to run up to 40% slower for
// seconds at a time while a neighbour is busy, and 50% slower for minutes.
// Raw wall times then measure the neighbours. So every timed stretch is
// bracketed by a fixed calibration loop owned by this file, and its wall
// time is rescaled to what it would have been at the calibration loop's
// nominal speed:
//
//	reference seconds = wall seconds x calNominal / calibration wall
//
// averaging the calibrations before and after the stretch. The loop shares
// no code with the program, so a change to the program moves the rescaled
// time exactly as it moves the raw time, while a change in host speed
// moves both the stretch and the calibration and largely cancels. Only
// largely: a calibration samples the host for milliseconds at the ends of
// a stretch of seconds, and the workloads feel contention more than the
// loop does. On a 2-vCPU virtual machine this roughly halved the spread of
// throughput medians between runs. Raw figures are printed beside the
// rescaled ones.

// calNominal is the calibration loop's typical wall time on a 2-vCPU
// x86-64 virtual machine (Go 1.24), so a reference second there is about
// a wall second.
const calNominal = 10 * time.Millisecond

// Calibration loop shape, per worker: calRounds passes of multiply-adds
// over a cache-sized block, then one streaming pass over a block larger
// than the cache, so both arithmetic and memory bandwidth are sampled.
const (
	calHot    = 1 << 14 // float64s: 128 KiB, stays in cache
	calCold   = 1 << 22 // float64s: 32 MiB, streams from memory
	calRounds = 320
)

// calibrator holds the calibration loop's buffers. They are mapped
// outside the Go heap, so they neither count in live_heap_mb nor change
// when the collector runs, and the loop allocates nothing.
type calibrator struct {
	hot, cold [][]float64
	sink      []float64
}

func newCalibrator() (*calibrator, error) {
	n := runtime.GOMAXPROCS(0)
	c := &calibrator{hot: make([][]float64, n), cold: make([][]float64, n), sink: make([]float64, n)}
	for w := 0; w < n; w++ {
		var err error
		if c.hot[w], err = mapFloats(calHot); err != nil {
			c.close()
			return nil, err
		}
		if c.cold[w], err = mapFloats(calCold); err != nil {
			c.close()
			return nil, err
		}
		for i := range c.hot[w] {
			c.hot[w][i] = float64(i%13) * 0.01
		}
		for i := range c.cold[w] {
			c.cold[w][i] = float64(i%7) * 0.01
		}
	}
	c.once()
	return c, nil
}

// mapFloats maps n zeroed float64s of anonymous memory.
func mapFloats(n int) ([]float64, error) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffer: %w", err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), nil
}

// close unmaps the buffers.
func (c *calibrator) close() {
	for _, bufs := range [][][]float64{c.hot, c.cold} {
		for i, f := range bufs {
			if f != nil {
				syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*8))
				bufs[i] = nil
			}
		}
	}
}

// measure runs the loop calTrials times on every worker at once, as the
// workloads use every worker, and returns the median wall time.
func (c *calibrator) measure() time.Duration {
	var d [calTrials]time.Duration
	for i := range d {
		d[i] = c.once()
	}
	sort.Slice(d[:], func(i, j int) bool { return d[i] < d[j] })
	return d[calTrials/2]
}

const calTrials = 3

func (c *calibrator) once() time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for w := range c.hot {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hot, cold := c.hot[w], c.cold[w]
			s := 0.0
			for r := 0; r < calRounds; r++ {
				for i := 1; i < len(hot); i++ {
					s += hot[i] * hot[i-1]
				}
			}
			for _, v := range cold {
				s += v
			}
			c.sink[w] = s
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// stretch is a timed stretch of work and the calibrations around it.
type stretch struct {
	wall   time.Duration
	before time.Duration
	after  time.Duration
}

// refSeconds is the stretch's wall time at nominal host speed.
func (s stretch) refSeconds() float64 {
	return s.wall.Seconds() * calNominal.Seconds() * 2 / (s.before + s.after).Seconds()
}

// hostSpeed is how fast the host ran over the stretch, as a share of
// nominal: above 1 is faster.
func (s stretch) hostSpeed() float64 {
	return calNominal.Seconds() * 2 / (s.before + s.after).Seconds()
}
