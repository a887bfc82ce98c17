package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The hosts the benchmark runs on drift: on the 2-vCPU VM the bounds
// were set on, the same spec iteration ran anywhere from 3,400 to 9,000
// mutants/s within an hour, in phases of minutes, while an arithmetic
// loop hardly slowed. The drift is in the memory system, which other
// tenants share. So the benchmark times a fixed memory-bound kernel
// before each untraced iteration, and before and after the set-ups, and
// multiplies their times (divides their rates) by the host speed:
// refKernelS over the kernel's time.
//
// The kernel runs in a child process (this binary with --ref-kernel),
// so it shares no code, heap, collector or resident set with the
// program under test, and it runs while the program is idle, so the
// program's own work cannot slow it.
const refKernelS = 0.05 // the kernel's usual time on that VM

const (
	refTableLen = 1 << 22 // uint32 entries, 16 MiB
	refSteps    = 1 << 18 // pointer-chase steps per goroutine
	refAllocs   = 1 << 14 // small allocations per goroutine
	refPasses   = 3       // the child reports the median pass
)

// hostSpeed runs the reference kernel in a child process and returns
// the host's speed relative to the VM the bounds were set on.
func hostSpeed(workers int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(exe, "--ref-kernel", strconv.Itoa(workers)).Output()
	if err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil || s <= 0 {
		return 0, fmt.Errorf("reference kernel: bad output %q", out)
	}
	return refKernelS / s, nil
}

// runRefKernel is the child's side: it builds the table, times
// refPasses passes on workers goroutines and prints the median pass in
// seconds.
func runRefKernel(workers int) {
	next := refTable(refTableLen)
	var passes []float64
	for range refPasses {
		passes = append(passes, refPass(next, workers).Seconds())
	}
	fmt.Println(median(passes))
}

// refTable returns a table of n entries whose next-links form a single
// cycle through every entry (Sattolo's algorithm), so a walk touches the
// whole table in an order the prefetcher cannot guess.
func refTable(n int) []uint32 {
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x >> 32) * uint64(i) >> 32 // in [0, i)
		next[i], next[j] = next[j], next[i]
	}
	return next
}

type refNode struct {
	v    uint32
	next *refNode
}

var refSink uint32

// refPass walks the table's cycle from a different entry on each of
// workers goroutines, allocating a small node every few steps.
func refPass(next []uint32, workers int) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := range workers {
		wg.Add(1)
		go func(p uint32) {
			defer wg.Done()
			var head *refNode
			for i := range refSteps {
				p = next[p]
				if i%(refSteps/refAllocs) == 0 {
					head = &refNode{v: p, next: head}
				}
			}
			for n := head; n != nil; n = n.next {
				p ^= n.v
			}
			mu.Lock()
			refSink += p
			mu.Unlock()
		}(uint32(w * len(next) / workers))
	}
	wg.Wait()
	return time.Since(t0)
}
