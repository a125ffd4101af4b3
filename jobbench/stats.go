package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs with
// the same exclusive method as Python's statistics.quantiles(xs, n=4), which
// is how run-to-run spreads of this benchmark are judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		// Exclusive method: position p·(n+1), 1-based, clamped to the ends.
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), median(s), at(0.75)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuSeconds is the process's user+system CPU time. Unlike wall-clock time
// it does not grow when the hypervisor steals the VM's cores.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// memSnapshot is the part of runtime.MemStats the benchmark reports.
type memSnapshot struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	pauseNs             uint64
}

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// cpuTicks is the aggregate "cpu" line of /proc/stat: busy and steal jiffies
// plus the total. It is read only, to tell a noisy host from a slow program.
type cpuTicks struct {
	steal, total uint64
	ok           bool
}

func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t cpuTicks
		// user nice system idle iowait irq softirq steal [guest guest_nice];
		// guest time is already counted in user, so stop at steal.
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(fields[i], 10, 64)
			if err != nil {
				return cpuTicks{}
			}
			t.total += v
			if i == 8 {
				t.steal = v
			}
		}
		t.ok = true
		return t
	}
	return cpuTicks{}
}

// referenceLoop times a fixed integer workload on each of threads
// goroutines at once and returns the slowest. Run single-threaded and on
// every CPU at the start and the end of a run, it shows whether the machine
// itself got slower while the program was measured; the all-CPU figure also
// shows when the VM's CPUs share a physical core, which slows the program
// without counting as steal.
func referenceLoop(threads int) time.Duration {
	times := make([]time.Duration, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			start := time.Now()
			x := uint64(0x9E3779B97F4A7C15) + uint64(t)
			for i := 0; i < 40_000_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			times[t] = time.Since(start)
			if x == 0 {
				fmt.Fprintln(os.Stderr, "unreachable")
			}
		}(t)
	}
	wg.Wait()
	slowest := times[0]
	for _, d := range times {
		slowest = max(slowest, d)
	}
	return slowest
}

// noiseProbe collects the per-run noise diagnostics printed to stderr.
type noiseProbe struct {
	threads        int
	ticks0         cpuTicks
	refOne, refAll time.Duration
}

func startNoiseProbe(threads int) *noiseProbe {
	return &noiseProbe{threads: threads, ticks0: readCPUTicks(), refOne: referenceLoop(1), refAll: referenceLoop(threads)}
}

func (p *noiseProbe) report() {
	one, all := referenceLoop(1), referenceLoop(p.threads)
	t1 := readCPUTicks()
	steal := "unavailable"
	if p.ticks0.ok && t1.ok && t1.total > p.ticks0.total {
		steal = fmt.Sprintf("%.2f%%", 100*float64(t1.steal-p.ticks0.steal)/float64(t1.total-p.ticks0.total))
	}
	logf("noise: steal %s of machine CPU time over the run; reference loop on 1 CPU %.1f ms at start, %.1f ms at end; on %d CPUs at once %.1f ms at start, %.1f ms at end",
		steal, ms(p.refOne), ms(one), p.threads, ms(p.refAll), ms(all))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "jobbench: "+format+"\n", args...)
}
