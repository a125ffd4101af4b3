package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"flips"
	"flips/internal/core"
	"flips/internal/dataset"
	"flips/internal/experiment"
	"flips/internal/fl"
	"flips/internal/metrics"
	"flips/internal/model"
	"flips/internal/parallel"
	"flips/internal/partition"
	"flips/internal/rng"
	"flips/internal/selection"
	"flips/internal/tensor"
)

// Workload sizes. Every job config of a run comes from the run's --seed. A
// run computes a reference result for each of its pool's configs and times
// jobs cycling through them. rounds_to_target is exact for a seed but
// varies widely from seed to seed (from 2 to 32 rounds on fleet-dist, 6 to
// 24 on jobserver-flips), so it summarizes the whole pool, and fleet-dist,
// whose spread is widest, gets the largest pool.
const (
	femnistParties = 200 // the paper's population
	femnistRounds  = 100
	femnistPool    = 24

	serverParties = 500
	serverRounds  = 400 // the paper's ECG round budget
	serverPool    = 24

	distParties = 20000
	distCohort  = 64
	distBuffer  = 8
	distRounds  = 600
	distShards  = 64
	distPool    = 48
)

type workload struct {
	name   string
	pool   int
	config func(seed uint64, nproc int) flips.SimulationConfig
	run    func(e *env) (map[string]metric, error)
	// own names the public surface the workload's jobs go through.
	own surface
}

type surface int

const (
	inProcess surface = iota
	overHTTP
	overDist
)

var workloads = []*workload{
	{name: "paper-femnist", pool: femnistPool, config: femnistConfig, run: runFemnist, own: inProcess},
	{name: "jobserver-flips", pool: serverPool, config: serverConfig, run: runJobServer, own: overHTTP},
	{name: "fleet-dist", pool: distPool, config: distConfig, run: runFleetDist, own: overDist},
}

func femnistConfig(seed uint64, nproc int) flips.SimulationConfig {
	return flips.SimulationConfig{
		Dataset: "femnist", Algorithm: "fedyogi", Strategy: "flips",
		Alpha: 0.3, PartyFraction: 0.2, StragglerRate: 0.1,
		Parties: femnistParties, Rounds: femnistRounds, Parallelism: nproc, Seed: seed,
	}
}

func serverConfig(seed uint64, _ int) flips.SimulationConfig {
	return flips.SimulationConfig{
		Dataset: "mit-bih-ecg", Algorithm: "fedyogi", Strategy: "flips",
		Alpha: 0.3, PartyFraction: 0.2,
		Parties: serverParties, Rounds: serverRounds, Parallelism: 1, Seed: seed,
	}
}

func distConfig(seed uint64, nproc int) flips.SimulationConfig {
	return flips.SimulationConfig{
		Dataset: "mit-bih-ecg", Algorithm: "fedavg", Strategy: "flips",
		Alpha: 0.3, PartyFraction: float64(distCohort) / distParties,
		Aggregation: "buffered", BufferSize: distBuffer, Shards: distShards,
		Parties: distParties, Rounds: distRounds, Parallelism: nproc, Seed: seed,
	}
}

// env is one benchmark run.
type env struct {
	w        *workload
	seed     uint64
	seconds  float64
	nproc    int
	deadline time.Time

	mu        sync.Mutex
	problems  []string
	attempted int
	failed    int
}

func (e *env) check(what string, err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	msg := what + ": " + err.Error()
	e.problems = append(e.problems, msg)
	logf("CHECK FAILED %s", msg)
}

// op counts n attempted operations, failed ones among them.
func (e *env) op(n int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted += n
	if err != nil {
		e.failed++
		logf("operation failed: %v", err)
	}
}

// pool returns the run's job configs. Seeds come from --seed through
// splitmix64, so the same --seed always gives the same jobs.
func (e *env) pool() []flips.SimulationConfig {
	cfgs := make([]flips.SimulationConfig, e.w.pool)
	x := e.seed
	for i := range cfgs {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		cfgs[i] = e.w.config(z^(z>>31), e.nproc)
	}
	return cfgs
}

// startClock starts the measured --seconds, once the run's set-up
// (reference runs, warm-up) is done.
func (e *env) startClock() {
	e.deadline = time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
}

func (e *env) expired() bool { return time.Now().After(e.deadline) }

// forEach runs f(0..n-1) on at most width goroutines.
func forEach(n, width int, f func(i int)) {
	parallel.New(width).ForEach(n, f)
}

// phase measures the timed part of a run: wall time, process CPU time and
// allocation over the whole phase, plus per-job samples.
type phase struct {
	start  time.Time
	cpu0   float64
	mem0   memSnapshot
	setup  []float64
	job    []float64
	rounds []float64
}

func (e *env) startPhase() *phase {
	runtime.GC()
	e.startClock()
	return &phase{start: time.Now(), cpu0: cpuSeconds(), mem0: readMem()}
}

func (p *phase) add(setup, job float64, roundRates []float64) {
	p.setup = append(p.setup, setup)
	p.job = append(p.job, job)
	p.rounds = append(p.rounds, roundRates...)
}

// endToEnd closes the phase and computes the end-to-end metrics.
func (p *phase) endToEnd(roundsToTarget float64) (map[string]metric, error) {
	wall := time.Since(p.start).Seconds()
	cpu := cpuSeconds() - p.cpu0
	mem := readMem()
	n := float64(len(p.job))
	if n == 0 {
		return nil, fmt.Errorf("no job completed in the measured phase")
	}
	for name, xs := range map[string][]float64{"setup_s": p.setup, "job_s": p.job, "rounds_per_s": p.rounds} {
		q1, med, q3 := quartiles(xs)
		logf("%s over %d samples: q1 %.4g, median %.4g, q3 %.4g", name, len(xs), q1, med, q3)
	}
	return map[string]metric{
		"setup_s":          {median(p.setup), "s"},
		"job_s":            {median(p.job), "s"},
		"rounds_per_s":     {median(p.rounds), "1/s"},
		"jobs_per_s":       {n / wall, "1/s"},
		"cpu_s_per_job":    {cpu / n, "s"},
		"alloc_mb_per_job": {float64(mem.totalAlloc-p.mem0.totalAlloc) / 1e6 / n, "MB"},
		"rounds_to_target": {roundsToTarget, "rounds"},
	}, nil
}

// roundsToTarget is the interquartile mean of the references'
// RoundsToTarget: the mean of the middle half of the sorted values. A few
// seeds converge far later than the rest (up to 32 rounds where most take
// 6 to 16 on fleet-dist), and the plain mean of 24 followed them.
func roundsToTarget(refs []*flips.SimulationResult) float64 {
	xs := make([]float64, len(refs))
	for i, r := range refs {
		xs[i] = float64(r.RoundsToTarget)
	}
	sort.Float64s(xs)
	return mean(xs[len(xs)/4 : len(xs)-len(xs)/4])
}

// references runs every pool config at Parallelism 1, nproc at a time and
// outside any timing, built apart from the public call (experiment.Build +
// fl.Run with a recording selector). Each timed job must match its
// reference bit for bit, which checks the program's width invariance and,
// over dist and HTTP, that training and results survive the wire.
func references(e *env, cfgs []flips.SimulationConfig) ([]*constructedRun, []*flips.SimulationResult, error) {
	refs := make([]*constructedRun, len(cfgs))
	errs := make([]error, len(cfgs))
	forEach(len(cfgs), e.nproc, func(i int) {
		c := cfgs[i]
		c.Parallelism = 1
		refs[i], errs[i] = runConstructed(c, nil, 0, nil, nil)
	})
	results := make([]*flips.SimulationResult, len(cfgs))
	for i, r := range refs {
		if errs[i] != nil {
			return nil, nil, fmt.Errorf("reference run: %w", errs[i])
		}
		results[i] = r.res
		what := fmt.Sprintf("seed %d reference", cfgs[i].Seed)
		e.check(what+" clusters", checkClusters(r.built.Clusters, len(r.built.Parties)))
		e.check(what+" history", checkHistory(r.res))
	}
	return refs, results, nil
}

// runFemnist: one cell of the paper's grid per job, in-process through
// flips.RunSimulationStream at Parallelism nproc.
func runFemnist(e *env) (map[string]metric, error) {
	cfgs := e.pool()
	refs, results, err := references(e, cfgs)
	if err != nil {
		return nil, err
	}
	for i, r := range refs {
		checkFemnistMethod(e, cfgs[i], r)
	}

	_, warm, err := runPublic(cfgs[0])
	if err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	e.check("warm-up job vs Parallelism 1", compareResults(results[0], warm))

	p := e.startPhase()
	for i := 0; i == 0 || !e.expired(); i++ {
		k := i % len(cfgs)
		rec, res, err := runPublic(cfgs[k])
		e.op(1, err)
		if err == nil {
			p.add(rec.setupSeconds(), rec.jobSeconds(), rec.roundRates())
			e.check(fmt.Sprintf("job %d vs Parallelism 1", i), compareResults(results[k], res))
		}
		runtime.GC()
	}
	return p.endToEnd(roundsToTarget(results))
}

// checkFemnistMethod checks a reference run for the properties the FLIPS
// method must have beyond those every reference is checked for: the
// Dirichlet sample sets are disjoint and cover the training set (and are
// the ones the fleet was built from), and Select keeps Algorithm 1's
// round-robin invariant.
func checkFemnistMethod(e *env, cfg flips.SimulationConfig, r *constructedRun) {
	what := fmt.Sprintf("seed %d", cfg.Seed)
	e.check(what+" round-robin", checkRoundRobin(r.built.Clusters, len(r.built.Parties), r.calls))
	in, err := generateInputs(cfg)
	if err != nil {
		e.check(what+" partition", err)
		return
	}
	e.check(what+" partition", checkPartition(in.part.Parties, in.train.Len()))
	for id, party := range r.built.Parties {
		if party.NumSamples() != len(in.part.Parties[id]) {
			e.check(what+" partition", fmt.Errorf("party %d built with %d samples, partition gives it %d", id, party.NumSamples(), len(in.part.Parties[id])))
			break
		}
	}
}

// layerInputs are a job's dataset and partition, made the way
// experiment.Build makes them (its root RNG splits 1 and 2).
type layerInputs struct {
	spec      dataset.Spec
	setting   experiment.Setting
	scale     experiment.Scale
	train     *dataset.Dataset
	part      *partition.Partition
	genSec    float64
	dirichSec float64
}

// selectorRNG returns the stream experiment.Build hands the selector
// registry. Splitting draws from the parent, so this replays Build's
// splits in its order: dataset, partition, parties, feature shift (when the
// profile has one), model init (MLP profiles), then the selector.
func (in *layerInputs) selectorRNG() *rng.Source {
	root := rng.New(in.setting.Seed)
	root.Split(1)
	root.Split(2)
	root.Split(3)
	profile := experiment.DefaultProfile(in.spec)
	if profile.FeatureShiftSigma > 0 {
		root.Split(5)
	}
	if profile.Hidden > 0 {
		root.Split(6)
	}
	return root.Split(4)
}

func generateInputs(cfg flips.SimulationConfig) (*layerInputs, error) {
	setting, scale, err := resolveSetting(cfg)
	if err != nil {
		return nil, err
	}
	in := &layerInputs{setting: setting, scale: scale}
	in.spec = setting.Spec.WithSizes(scale.TrainSize, max(scale.TestSize, 1))
	root := rng.New(setting.Seed)
	t := time.Now()
	in.train, _, err = dataset.Generate(in.spec, root.Split(1))
	in.genSec = time.Since(t).Seconds()
	if err != nil {
		return nil, err
	}
	t = time.Now()
	in.part, err = partition.Dirichlet(in.train, scale.Parties, setting.Alpha, root.Split(2))
	in.dirichSec = time.Since(t).Seconds()
	return in, err
}

// runJobServer: nproc closed-loop HTTP clients against an in-process job
// server with nproc workers. The clients start each job together, so the
// garbage collection between jobs lands outside every job's span.
func runJobServer(e *env) (map[string]metric, error) {
	cfgs := e.pool()
	_, refs, err := references(e, cfgs)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(e.nproc, flips.RunSimulationStream)
	if err != nil {
		return nil, err
	}
	submitted, streamed := 0, 0
	wave := func(first int, p *phase) {
		jobs := make([]httpJob, e.nproc)
		errs := make([]error, e.nproc)
		forEach(e.nproc, e.nproc, func(c int) { jobs[c], errs[c] = srv.runHTTP(cfgs[(first+c)%len(cfgs)], false) })
		for c, j := range jobs {
			k := (first + c) % len(cfgs)
			engine := srv.clock.take(cfgs[k].Seed)
			if p != nil {
				e.op(j.requests, errs[c])
			} else if errs[c] != nil {
				e.check("warm-up job", errs[c])
			}
			if j.id != "" {
				submitted++
			}
			streamed += len(j.rounds)
			if errs[c] != nil {
				continue
			}
			what := fmt.Sprintf("job %s (seed %d)", j.id, cfgs[k].Seed)
			if j.state != "done" {
				e.check(what, fmt.Errorf("ended %q", j.state))
			}
			e.check(what+" stream", compareRounds(refs[k].History, j.rounds))
			e.check(what+" result vs in-process", compareResults(refs[k], j.result))
			if p != nil {
				// The NDJSON stream delivers a job's rounds in one burst at
				// its end, so the round loop's rate is timed at the engine.
				p.add(j.rec.setupSeconds(), j.rec.jobSeconds(), engine.roundRates())
			}
		}
		runtime.GC()
	}
	wave(0, nil)
	p := e.startPhase()
	for w := 0; w == 0 || !e.expired(); w++ {
		wave((w+1)*e.nproc, p)
	}
	m, err := srv.metrics()
	e.op(1, err)
	if err == nil {
		e.check("/metrics counters", checkCounters(m, submitted, streamed))
	}
	out, perr := p.endToEnd(roundsToTarget(refs))
	if err := srv.close(); err != nil && perr == nil {
		return nil, fmt.Errorf("close job server: %w", err)
	}
	return out, perr
}

// runFleetDist: one 20k-party job per operation through flips.DistRunner,
// training on nproc shard workers served over loopback TCP.
func runFleetDist(e *env) (map[string]metric, error) {
	cfgs := e.pool()
	_, refs, err := references(e, cfgs)
	if err != nil {
		return nil, err
	}
	for i, r := range refs {
		e.check(fmt.Sprintf("seed %d reference buffered steps", cfgs[i].Seed), checkBufferedSteps(r.History, distBuffer))
	}
	d, err := startDist(e.nproc)
	if err != nil {
		return nil, err
	}
	job := func(k int) (jobRecord, error) {
		rec, res, slots, err := runDistPublic(d, cfgs[k])
		if err != nil {
			return rec, err
		}
		what := fmt.Sprintf("seed %d", cfgs[k].Seed)
		e.check(what+" vs in-process", compareResults(refs[k], res))
		e.check(what+" buffered steps", checkBufferedSteps(res.History, distBuffer))
		e.check(what+" wire", checkWire(slots, e.nproc))
		return rec, nil
	}
	_, err = job(0)
	e.check("warm-up job", err)
	runtime.GC()
	p := e.startPhase()
	for i := 0; i == 0 || !e.expired(); i++ {
		rec, err := job(i % len(cfgs))
		e.op(1, err)
		if err == nil {
			p.add(rec.setupSeconds(), rec.jobSeconds(), rec.roundRates())
		}
		runtime.GC()
	}
	out, perr := p.endToEnd(roundsToTarget(refs))
	if err := d.close(); err != nil && perr == nil {
		return nil, fmt.Errorf("close dist workers: %w", err)
	}
	return out, perr
}

// labelClusterBounds is the selection registry's sweep bound for FLIPS
// label clustering: maxK = n/4 (at least 3) with 5 repeats, capped at 12
// clusters × 2 repeats above the fleet-scale threshold. The traced run
// checks the clusters it gets against the job's.
func labelClusterBounds(n int) (maxK, repeats int) {
	maxK, repeats = n/4, 5
	if maxK < 3 {
		maxK = min(3, n)
	}
	if n > 2048 {
		maxK, repeats = min(maxK, 12), 2
	}
	return maxK, repeats
}

func sameClusters(a, b [][]int) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d clusters, the job has %d", len(a), len(b))
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return fmt.Errorf("cluster %d has %d parties, the job's has %d", c, len(a[c]), len(b[c]))
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				return fmt.Errorf("cluster %d differs from the job's", c)
			}
		}
	}
	return nil
}

// layers collects per-layer samples; each metric reports their median.
type layers map[string][]float64

func (l layers) add(name string, v float64) { l[name] = append(l[name], v) }

// standaloneLayers times each layer's public call on the job's own inputs.
func standaloneLayers(e *env, cfg flips.SimulationConfig, tr *tracer, job int, l layers) error {
	in, err := generateInputs(cfg)
	if err != nil {
		return err
	}
	l.add("dataset.generate_s", in.genSec)
	l.add("partition.dirichlet_s", in.dirichSec)
	var built *experiment.BuildResult
	l.add("experiment.build_s", tr.timed("experiment.build", 0, job, func() { built, err = experiment.Build(in.setting, in.scale) }))
	if err != nil {
		return err
	}
	n := len(built.Parties)
	lds := fl.NormalizedLabelDists(built.Parties)
	maxK, repeats := labelClusterBounds(n)
	var clusters [][]int
	l.add("cluster.label_clustering_s", tr.timed("cluster.label_clustering", 0, job, func() {
		clusters, err = core.ClusterLabelDistributions(lds, maxK, repeats, in.selectorRNG().Split(1))
	}))
	if err != nil {
		return err
	}
	e.check("standalone clustering vs the job's", sameClusters(clusters, built.Clusters))

	global := built.Config.Factory(rng.New(cfg.Seed).Split(0xF0))
	ctx := selection.BuildContext{
		NumParties: n,
		ParamDim:   global.NumParams(),
		RNG:        in.selectorRNG(),
		DataSizes: func() []int {
			sizes := make([]int, n)
			for i, p := range built.Parties {
				sizes[i] = p.NumSamples()
			}
			return sizes
		},
		LabelDists: func() []tensor.Vec { return fl.NormalizedLabelDists(built.Parties) },
	}
	l.add("selection.build_s", tr.timed("selection.build", 0, job, func() { _, clusters, err = selection.Build(cfg.Strategy, ctx) }))
	if err != nil {
		return err
	}
	e.check("standalone selector build vs the job's", sameClusters(clusters, built.Clusters))

	params := global.Params()
	replica := global.Clone()
	train := tr.timed("model.train_local", 0, job, func() {
		for id, p := range built.Parties {
			replica.SetParams(params)
			model.TrainLocal(replica, p.Data, built.Config.SGD, params, rng.New(cfg.Seed).Split(uint64(id)+1))
		}
	})
	l.add("model.train_local_ms", 1000*train/float64(n))

	const evalCalls = 10
	pool := parallel.New(e.nproc)
	eval := tr.timed("metrics.eval", 0, job, func() {
		for i := 0; i < evalCalls; i++ {
			metrics.ShardedClassCounts(global, built.Test.Samples, built.Config.NumClasses, pool)
		}
	})
	l.add("metrics.eval_ms", 1000*eval/evalCalls)

	l.add("server.validate_s", tr.timed("server.validate", 0, job, func() { err = cfg.Validate() }))
	if err != nil {
		return err
	}
	spec, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	l.add("dist.worker_build_s", tr.timed("dist.worker_build", 0, job, func() { _, err = flips.DistWorkerBuilder()(spec, 0, n/e.nproc) }))
	return err
}

// runTraced is the traced run of any workload. For each pool config until
// the run's time is up it
//   - runs the job untraced on the workload's own surface (the runtime
//     counters come from this job),
//   - runs it again traced, built with experiment.Build and run with fl.Run
//     behind a recording selector (and, over dist, a timed transport), and
//     checks the result bit-identical to the untraced one,
//   - times each layer's standalone public call on the job's inputs, and
//   - sends the job once through the public surface the workload does not
//     use (the job server, a dist runner), so every layer is reported.
func runTraced(e *env) (map[string]metric, error) {
	cfgs := e.pool()
	tr := newTracer()
	l := layers{}
	// Servers and workers started below are stopped on every return; the
	// normal path reports the first error stopping them.
	var closers []func() error
	closeAll := func() error {
		var first error
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i](); err != nil && first == nil {
				first = err
			}
		}
		closers = nil
		return first
	}
	defer closeAll()
	plain, err := startServer(e.nproc, flips.RunSimulationStream)
	if err != nil {
		return nil, err
	}
	closers = append(closers, plain.close)
	// The traced job server runs jobs on its own goroutines; its runner
	// hands each finished run back through serverRuns.
	var mu sync.Mutex
	traceJob := 0
	var serverRuns []*constructedRun
	traced, err := startServer(e.nproc, func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
		mu.Lock()
		job := traceJob
		mu.Unlock()
		r, err := runConstructed(cfg, tr, job, nil, onRound)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		serverRuns = append(serverRuns, r)
		mu.Unlock()
		return r.res, nil
	})
	if err != nil {
		return nil, err
	}
	closers = append(closers, traced.close)
	d, err := startDist(e.nproc)
	if err != nil {
		return nil, err
	}
	closers = append(closers, d.close)
	var untracedJob, tracedJob []float64

	e.startClock()
	for i := 0; i == 0 || !e.expired(); i++ {
		cfg := cfgs[i%len(cfgs)]
		job := i + 1
		what := fmt.Sprintf("traced job %d (seed %d)", job, cfg.Seed)

		runtime.GC()
		mem0 := readMem()
		var u *flips.SimulationResult
		var urec jobRecord
		var httpU httpJob
		switch e.w.own {
		case inProcess:
			urec, u, err = runPublic(cfg)
		case overHTTP:
			httpU, err = plain.runHTTP(cfg, true)
			urec, u = httpU.rec, httpU.result
			plain.clock.take(cfg.Seed)
		case overDist:
			urec, u, _, err = runDistPublic(d, cfg)
		}
		mem := readMem()
		e.op(1, err)
		if err != nil {
			continue
		}
		l.add("runtime.mallocs_per_job", float64(mem.mallocs-mem0.mallocs))
		l.add("runtime.gc_cycles_per_job", float64(mem.numGC-mem0.numGC))
		l.add("runtime.gc_pause_ms_per_job", float64(mem.pauseNs-mem0.pauseNs)/1e6)
		untracedJob = append(untracedJob, urec.jobSeconds())
		e.check(what+" untraced history", checkHistory(u))
		if e.w.own == overHTTP {
			recordServer(l, httpU)
		}

		runtime.GC()
		var t *flips.SimulationResult
		var trec jobRecord
		switch e.w.own {
		case inProcess, overDist:
			var dc *distCluster
			if e.w.own == overDist {
				dc = d
			}
			var r *constructedRun
			r, err = runConstructed(cfg, tr, job, dc, nil)
			if err == nil {
				t, trec = r.res, r.rec
				recordRun(tr, l, r)
				if e.w.own == inProcess {
					e.check(what+" round-robin", checkRoundRobin(r.built.Clusters, len(r.built.Parties), r.calls))
				}
			}
		case overHTTP:
			mu.Lock()
			traceJob = job
			mu.Unlock()
			var h httpJob
			h, err = traced.runHTTP(cfg, true)
			traced.clock.take(cfg.Seed)
			t, trec = h.result, h.rec
			mu.Lock()
			runs := serverRuns
			serverRuns = nil
			mu.Unlock()
			for _, r := range runs {
				recordRun(tr, l, r)
			}
		}
		e.op(1, err)
		if err != nil {
			continue
		}
		tracedJob = append(tracedJob, trec.jobSeconds())
		e.check(what+" traced vs untraced", compareResults(u, t))

		if e.w.own != overHTTP {
			h, err := plain.runHTTP(cfg, true)
			plain.clock.take(cfg.Seed)
			e.op(1, err)
			if err == nil {
				e.check(what+" via job server", compareResults(u, h.result))
				recordServer(l, h)
			}
		}
		if e.w.own != overDist {
			r, err := runConstructed(cfg, tr, job, d, nil)
			e.op(1, err)
			if err == nil {
				e.check(what+" via dist", compareResults(u, r.res))
				recordDist(tr, l, r)
			}
		}
		e.check(what+" standalone layers", standaloneLayers(e, cfg, tr, job, l))
		runtime.GC()
	}
	if err := closeAll(); err != nil {
		return nil, err
	}
	path := fmt.Sprintf(".bench_build/traces/%s-seed%d.jsonl", e.w.name, e.seed)
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	if len(untracedJob) == 0 || len(tracedJob) == 0 {
		return nil, fmt.Errorf("no traced job completed")
	}
	logf("spans written to %s", path)
	// The untraced public call builds the job twice in-process and three
	// times through the job server (once more than the traced
	// construction); flips.DistRunner builds it as often as the traced run.
	extraBuilds := 1.0
	if e.w.own == overDist {
		extraBuilds = 0
	}
	tj, uj := median(tracedJob), median(untracedJob)
	corrected := tj - uj + extraBuilds*median(l["experiment.build_s"])
	cost := spanCost()
	spans := float64(len(tr.spans)) / float64(len(tracedJob))
	logf("tracing overhead: traced job_s %.4g s - untraced job_s %.4g s = %.4g s over %d jobs; "+
		"%.4g s (%.1f%%) after adding back the untraced path's %.0f extra experiment.Build; "+
		"span bookkeeping %.0f spans/job x %v = %.4g s/job",
		tj, uj, tj-uj, len(tracedJob), corrected, 100*corrected/uj, extraBuilds, spans, cost, spans*cost.Seconds())
	return perLayer(tr, l), nil
}

// recordServer derives the job server's per-layer metrics from one HTTP
// job's client timeline and its GET /jobs/{id} status.
func recordServer(l layers, h httpJob) {
	st := h.status
	l.add("server.submit_ms", 1000*h.rec.accepted.Sub(h.rec.submit).Seconds())
	l.add("server.queue_wait_ms", 1000*st.StartedAt.Sub(st.SubmittedAt).Seconds())
	l.add("server.run_s", st.FinishedAt.Sub(st.StartedAt).Seconds())
	l.add("server.stream_tail_ms", 1000*h.rec.done.Sub(st.FinishedAt).Seconds())
}

// recordRun derives fl.run_s and fl.run_self_s from one traced fl.Run and,
// for a run over dist, the dist metrics.
func recordRun(tr *tracer, l layers, r *constructedRun) {
	l.add("fl.run_s", r.runSecs)
	l.add("fl.run_self_s", r.runSecs-tr.childSeconds(r.runSpan))
	if r.wire != nil {
		recordDist(tr, l, r)
	}
}

func recordDist(tr *tracer, l layers, r *constructedRun) {
	var waves []float64
	for _, s := range tr.named("dist.train_wave") {
		if s.Parent == r.runSpan {
			waves = append(waves, s.seconds())
		}
	}
	l.add("dist.train_wave_ms", 1000*mean(waves))
	var bytes int64
	for _, s := range r.wire {
		bytes += s.BytesIn + s.BytesOut
	}
	rounds := r.res.History[len(r.res.History)-1].Round
	l.add("dist.wire_kb_per_round", float64(bytes)/1e3/float64(rounds))
}

// perLayerUnits lists the traced run's metrics and units.
var perLayerUnits = []struct{ name, unit string }{
	{"dataset.generate_s", "s"},
	{"partition.dirichlet_s", "s"},
	{"cluster.label_clustering_s", "s"},
	{"selection.build_s", "s"},
	{"experiment.build_s", "s"},
	{"selection.select_us", "us/call"},
	{"selection.observe_us", "us/call"},
	{"fl.run_s", "s"},
	{"fl.run_self_s", "s"},
	{"model.train_local_ms", "ms/party"},
	{"metrics.eval_ms", "ms/call"},
	{"dist.worker_build_s", "s"},
	{"dist.train_wave_ms", "ms/wave"},
	{"dist.wire_kb_per_round", "kB"},
	{"server.validate_s", "s"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_s", "s"},
	{"server.stream_tail_ms", "ms"},
	{"runtime.mallocs_per_job", "count"},
	{"runtime.gc_cycles_per_job", "count"},
	{"runtime.gc_pause_ms_per_job", "ms"},
}

func perLayer(tr *tracer, l layers) map[string]metric {
	perCall := func(name string) float64 {
		spans := tr.named(name)
		var sum float64
		for _, s := range spans {
			sum += s.seconds()
		}
		return 1e6 * sum / float64(len(spans))
	}
	l.add("selection.select_us", perCall("selection.select"))
	l.add("selection.observe_us", perCall("selection.observe"))
	out := make(map[string]metric, len(perLayerUnits))
	for _, m := range perLayerUnits {
		out[m.name] = metric{median(l[m.name]), m.unit}
	}
	return out
}
