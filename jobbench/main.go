// Command jobbench is the job-level benchmark of the FLIPS reproduction. It
// drives whole FL jobs through the program's public entry points —
// flips.RunSimulationStream, the internal/server HTTP surface and
// flips.DistRunner — checks their outputs, and prints one JSON line of
// end-to-end metrics (--trace 0) or per-layer metrics from a traced run
// (--trace 1). See README.md for the workloads and metrics.
//
//	go run . --workload paper-femnist --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "paper-femnist, jobserver-flips or fleet-dist")
	seed := flag.Uint64("seed", 1, "workload seed; every job input derives from it")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Parse()

	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: jobbench --workload <paper-femnist|jobserver-flips|fleet-dist> --seed <n> --seconds <s> --trace <0|1>\n")
		os.Exit(2)
	}

	// One process, GOMAXPROCS = the machine's CPUs; every Parallelism knob
	// and the client/worker counts derive from the same number.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	noise := startNoiseProbe(nproc)
	e := &env{w: w, seed: *seed, seconds: *seconds, nproc: nproc}
	logf("workload %s, seed %d, %.0f s, trace %d, nproc %d", w.name, *seed, *seconds, *trace, nproc)

	start := time.Now()
	run := w.run
	if *trace == 1 {
		run = runTraced
	}
	metrics, err := run(e)
	if err != nil {
		logf("run failed: %v", err)
		os.Exit(1)
	}
	noise.report()
	logf("run took %.1f s", time.Since(start).Seconds())

	out := output{Correct: len(e.problems) == 0, Attempted: e.attempted, Failed: e.failed, Metrics: metrics}
	line, err := json.Marshal(out)
	if err != nil {
		logf("encode result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
