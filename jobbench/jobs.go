package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"flips"
	"flips/internal/dataset"
	"flips/internal/dist"
	"flips/internal/experiment"
	"flips/internal/fl"
	"flips/internal/server"
)

// jobRecord is the client-side timeline of one job.
type jobRecord struct {
	submit, accepted, done time.Time
	// roundAt[i] is when streamed round roundNo[i] arrived.
	roundAt []time.Time
	roundNo []int
}

func (r *jobRecord) observe(round int, at time.Time) {
	r.roundAt = append(r.roundAt, at)
	r.roundNo = append(r.roundNo, round)
}

// setupSeconds is submission to the first streamed round.
func (r *jobRecord) setupSeconds() float64 {
	if len(r.roundAt) == 0 {
		return math.NaN()
	}
	return r.roundAt[0].Sub(r.submit).Seconds()
}

// jobSeconds is submission to the job's result.
func (r *jobRecord) jobSeconds() float64 { return r.done.Sub(r.submit).Seconds() }

// roundWindow is how many consecutive streamed-round intervals one rate
// sample spans.
const roundWindow = 10

// roundRates samples the round loop's speed between the first and the last
// streamed round: aggregation rounds per second over each window of
// roundWindow consecutive intervals. The metric is the median over all
// windows of a run's jobs, so a burst of steal time slows a few windows
// instead of the whole figure.
func (r *jobRecord) roundRates() []float64 {
	var rates []float64
	for i := 0; i+roundWindow < len(r.roundAt); i += roundWindow {
		j := i + roundWindow
		rates = append(rates, float64(r.roundNo[j]-r.roundNo[i])/r.roundAt[j].Sub(r.roundAt[i]).Seconds())
	}
	return rates
}

// resolveSetting builds the experiment.Setting and Scale a SimulationConfig
// resolves to, for the fields this benchmark sets. flips resolves configs in
// an unexported method, so the traced run and the reference runs construct
// the job themselves; every such run is compared bit for bit with the public
// call, which catches any drift between the two constructions.
func resolveSetting(cfg flips.SimulationConfig) (experiment.Setting, experiment.Scale, error) {
	spec, ok := dataset.ByName(cfg.Dataset)
	if !ok {
		return experiment.Setting{}, experiment.Scale{}, fmt.Errorf("unknown dataset %q", cfg.Dataset)
	}
	scale := experiment.LaptopScale()
	scale.Rounds = cfg.Rounds
	scale.Parties = cfg.Parties
	if scale.TrainSize < 2*scale.Parties {
		scale.TrainSize = 2 * scale.Parties
	}
	scale.Parallelism = cfg.Parallelism
	scale.Repeats = 1
	return experiment.Setting{
		Spec:           spec,
		Algorithm:      cfg.Algorithm,
		Strategy:       cfg.Strategy,
		Alpha:          cfg.Alpha,
		PartyFraction:  cfg.PartyFraction,
		StragglerRate:  cfg.StragglerRate,
		Aggregation:    cfg.Aggregation,
		BufferSize:     cfg.BufferSize,
		Shards:         cfg.Shards,
		TargetAccuracy: experiment.TargetFor(spec),
		Seed:           cfg.Seed,
	}, scale, nil
}

func roundPoint(h fl.RoundStats) flips.RoundPoint {
	return flips.RoundPoint{
		Round: h.Round, Accuracy: h.Accuracy, PerLabel: h.PerLabel, CommBytes: h.CommBytes,
		Invited: h.Invited, Completed: h.Completed, MeanLoss: h.MeanLoss, RoundTime: h.RoundTime,
		SimTime: h.SimTime, ShardsTouched: h.ShardsTouched, Rejected: h.Rejected, MaskAborted: h.MaskAborted,
	}
}

func publicResult(res *fl.Result, built *experiment.BuildResult) *flips.SimulationResult {
	out := &flips.SimulationResult{
		PeakAccuracy:   res.PeakAccuracy,
		RoundsToTarget: res.RoundsToTarget,
		TimeToTarget:   res.TimeToTarget,
		SimTime:        res.SimTime,
		TargetAccuracy: built.Config.TargetAccuracy,
		TotalCommBytes: res.TotalCommBytes,
		NumClusters:    len(built.Clusters),
	}
	for _, h := range res.History {
		out.History = append(out.History, roundPoint(h))
	}
	return out
}

// runPublic runs one job through flips.RunSimulationStream.
func runPublic(cfg flips.SimulationConfig) (jobRecord, *flips.SimulationResult, error) {
	var rec jobRecord
	rec.submit = time.Now()
	res, err := flips.RunSimulationStream(cfg, func(p flips.RoundPoint) { rec.observe(p.Round, time.Now()) })
	rec.done = time.Now()
	return rec, res, err
}

// runDistPublic runs one job through flips.DistRunner and returns the
// job's final shard-slot stats.
func runDistPublic(d *distCluster, cfg flips.SimulationConfig) (jobRecord, *flips.SimulationResult, []dist.WorkerStat, error) {
	var rec jobRecord
	rec.submit = time.Now()
	res, err := d.runner.Run(cfg, func(p flips.RoundPoint) { rec.observe(p.Round, time.Now()) })
	rec.done = time.Now()
	if err != nil {
		return rec, nil, nil, err
	}
	// The runner numbers jobs from 1 and keeps the last few finished jobs'
	// slot snapshots; this job is the newest.
	var newest uint64
	stats := d.runner.WorkerStats()
	for id := range stats {
		newest = max(newest, id)
	}
	return rec, res, d.jobWire(stats[newest]), nil
}

// constructedRun is a job built with experiment.Build and run with fl.Run,
// with the selector (and, over dist, the transport) decorated.
type constructedRun struct {
	rec     jobRecord
	res     *flips.SimulationResult
	built   *experiment.BuildResult
	calls   []selectCall
	runSpan int
	runSecs float64
	wire    []dist.WorkerStat
}

// runConstructed builds and runs cfg in-process, or over d's workers when d
// is non-nil, recording spans into tr when it is non-nil.
func runConstructed(cfg flips.SimulationConfig, tr *tracer, job int, d *distCluster, onRound func(flips.RoundPoint)) (*constructedRun, error) {
	setting, scale, err := resolveSetting(cfg)
	if err != nil {
		return nil, err
	}
	out := &constructedRun{}
	out.rec.submit = time.Now()
	var bspan int
	if tr != nil {
		bspan = tr.begin("experiment.build", 0, job)
	}
	built, err := experiment.Build(setting, scale)
	if tr != nil {
		tr.end(bspan)
	}
	if err != nil {
		return nil, err
	}
	out.built = built
	sel := &recordingSelector{inner: built.Config.Selector, tr: tr, job: job}
	built.Config.Selector = sel
	var tt *tracedTransport
	var djob *dist.Job
	if d != nil {
		spec, err := json.Marshal(cfg)
		if err != nil {
			return nil, err
		}
		nspan := 0
		if tr != nil {
			nspan = tr.begin("dist.new_job", 0, job)
		}
		djob, err = dist.NewJob(d.coord, spec, scale.Parties, d.workers)
		if tr != nil {
			tr.end(nspan)
		}
		if err != nil {
			return nil, err
		}
		defer djob.Close()
		built.Config.Transport = djob
		if tr != nil {
			tt = &tracedTransport{inner: djob, tr: tr, job: job}
			built.Config.Transport = tt
		}
	}
	built.Config.OnRound = func(h fl.RoundStats) {
		out.rec.observe(h.Round, time.Now())
		if onRound != nil {
			onRound(roundPoint(h))
		}
	}
	if tr != nil {
		out.runSpan = tr.begin("fl.run", 0, job)
		sel.run = out.runSpan
		if tt != nil {
			tt.run = out.runSpan
		}
	}
	runStart := time.Now()
	res, err := fl.Run(built.Config)
	out.runSecs = time.Since(runStart).Seconds()
	out.rec.done = time.Now()
	if tr != nil {
		tr.end(out.runSpan)
	}
	if err != nil {
		return nil, err
	}
	if djob != nil {
		out.wire = d.jobWire(djob.Stats())
	}
	out.res = publicResult(res, built)
	out.calls = sel.calls
	return out, nil
}

// distCluster is a dist.Coordinator with shard workers served from
// goroutines of this process over loopback TCP, each building its jobs with
// flips.DistWorkerBuilder as flipsd's worker processes do.
type distCluster struct {
	coord   *dist.Coordinator
	runner  *flips.DistRunner
	workers int
	wg      sync.WaitGroup
	mu      sync.Mutex
	errs    []error
	// seen is each worker's byte counters after its previous job.
	seen map[int]dist.WorkerStat
}

// jobWire returns the bytes each slot moved during the job that just
// ended. A slot's counters are its worker connection's totals since the
// worker registered, earlier jobs included, so the job's share is the
// change since that worker's previous job. Every job on the cluster must
// pass through here, in order.
func (d *distCluster) jobWire(slots []dist.WorkerStat) []dist.WorkerStat {
	out := make([]dist.WorkerStat, len(slots))
	for i, s := range slots {
		prev := d.seen[s.WorkerID]
		d.seen[s.WorkerID] = s
		s.BytesIn -= prev.BytesIn
		s.BytesOut -= prev.BytesOut
		out[i] = s
	}
	return out
}

func startDist(workers int) (*distCluster, error) {
	d := &distCluster{coord: dist.NewCoordinator(), workers: workers, seen: make(map[int]dist.WorkerStat)}
	d.coord.ErrorLog = log.New(io.Discard, "", 0)
	addr, err := d.coord.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < workers; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			if err := dist.RunWorker(addr, dist.WorkerOptions{Builder: flips.DistWorkerBuilder(), Parallelism: 1}); err != nil {
				d.mu.Lock()
				d.errs = append(d.errs, err)
				d.mu.Unlock()
			}
		}()
	}
	if err := d.coord.AwaitWorkers(workers, 30*time.Second); err != nil {
		d.close()
		return nil, err
	}
	d.runner = &flips.DistRunner{Coord: d.coord, Workers: workers}
	return d, nil
}

// close shuts the coordinator down, which sends every worker a shutdown
// frame, and waits for the worker goroutines to return.
func (d *distCluster) close() error {
	cerr := d.coord.Close()
	d.wg.Wait()
	if len(d.errs) > 0 {
		return fmt.Errorf("dist worker: %w", d.errs[0])
	}
	return cerr
}

type runFunc = func(flips.SimulationConfig, func(flips.RoundPoint)) (*flips.SimulationResult, error)

// engineClock timestamps the rounds a server-side runner emits, keyed by
// job seed (jobs in flight at once always have distinct seeds here).
type engineClock struct {
	mu     sync.Mutex
	bySeed map[uint64]*jobRecord
}

func (c *engineClock) wrap(run runFunc) runFunc {
	return func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
		rec := &jobRecord{}
		c.mu.Lock()
		c.bySeed[cfg.Seed] = rec
		c.mu.Unlock()
		return run(cfg, func(p flips.RoundPoint) {
			c.mu.Lock()
			rec.observe(p.Round, time.Now())
			c.mu.Unlock()
			onRound(p)
		})
	}
}

func (c *engineClock) take(seed uint64) jobRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.bySeed[seed]
	delete(c.bySeed, seed)
	if rec == nil {
		return jobRecord{}
	}
	return *rec
}

// jobServer is an in-process server.New behind a loopback listener.
type jobServer struct {
	srv    *server.Server
	hs     *http.Server
	client *http.Client
	base   string
	served chan error
	clock  *engineClock
}

func startServer(workers int, run runFunc) (*jobServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	clock := &engineClock{bySeed: make(map[uint64]*jobRecord)}
	srv := server.New(server.Config{Workers: workers, JobParallelism: 1, Run: clock.wrap(run)})
	s := &jobServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		clock:  clock,
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the job server, then stops the listener and waits for the
// serve loop to return.
func (s *jobServer) close() error {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

// httpJob is one job's outcome as an HTTP client sees it.
type httpJob struct {
	rec    jobRecord
	id     string
	rounds []flips.RoundPoint
	state  string
	result *flips.SimulationResult
	status server.JobStatus
	// requests counts the HTTP requests made; the job stops at the first
	// one that fails.
	requests int
}

// runHTTP submits cfg with POST /jobs, follows GET /jobs/{id}/stream to the
// terminal event and, when withStatus is set, reads GET /jobs/{id}.
func (s *jobServer) runHTTP(cfg flips.SimulationConfig, withStatus bool) (httpJob, error) {
	var j httpJob
	body, err := json.Marshal(cfg)
	if err != nil {
		return j, err
	}
	j.rec.submit = time.Now()
	j.requests++
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return j, fmt.Errorf("POST /jobs: %w", err)
	}
	var st server.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	j.rec.accepted = time.Now()
	if resp.StatusCode != http.StatusAccepted {
		return j, fmt.Errorf("POST /jobs: status %d", resp.StatusCode)
	}
	if derr != nil {
		return j, fmt.Errorf("POST /jobs: %w", derr)
	}
	j.id = st.ID

	j.requests++
	resp, err = s.client.Get(s.base + "/jobs/" + j.id + "/stream")
	if err != nil {
		return j, fmt.Errorf("GET stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return j, fmt.Errorf("GET stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		var ev server.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return j, fmt.Errorf("stream event: %w", err)
		}
		now := time.Now()
		if ev.Round != nil {
			j.rec.observe(ev.Round.Round, now)
			j.rounds = append(j.rounds, *ev.Round)
		}
		if ev.Done {
			j.rec.done = now
			j.state, j.result = ev.State, ev.Result
			if ev.Error != "" {
				return j, fmt.Errorf("job %s ended %s: %s", j.id, ev.State, ev.Error)
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		return j, fmt.Errorf("read stream: %w", err)
	}
	if j.rec.done.IsZero() {
		return j, fmt.Errorf("stream of %s ended without a terminal event", j.id)
	}
	if !withStatus {
		return j, nil
	}
	j.requests++
	sresp, err := s.client.Get(s.base + "/jobs/" + j.id)
	if err != nil {
		return j, fmt.Errorf("GET status: %w", err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		return j, fmt.Errorf("GET status: status %d", sresp.StatusCode)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&j.status); err != nil {
		return j, fmt.Errorf("GET status: %w", err)
	}
	return j, nil
}

// metrics reads GET /metrics.
func (s *jobServer) metrics() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseProm(string(body)), nil
}
