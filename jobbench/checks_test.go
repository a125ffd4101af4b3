package main

import (
	"math"
	"strings"
	"testing"

	"flips"
	"flips/internal/dist"
)

func sampleResult() *flips.SimulationResult {
	res := &flips.SimulationResult{PeakAccuracy: 0.8, RoundsToTarget: 4, TargetAccuracy: 0.65, TotalCommBytes: 1200, NumClusters: 3}
	for r := 2; r <= 6; r += 2 {
		res.History = append(res.History, flips.RoundPoint{
			Round: r, Accuracy: 0.5 + 0.05*float64(r), PerLabel: []float64{0.5, 0.75, math.NaN()},
			CommBytes: 400, Invited: 8, Completed: 8, MeanLoss: 1 / float64(r),
		})
	}
	return res
}

func clone(res *flips.SimulationResult) *flips.SimulationResult {
	out := *res
	out.History = nil
	for _, p := range res.History {
		p.PerLabel = append([]float64(nil), p.PerLabel...)
		out.History = append(out.History, p)
	}
	return &out
}

func flipBit(x float64) float64 { return math.Float64frombits(math.Float64bits(x) ^ 1) }

func TestCompareResultsRejectsOneFlippedBit(t *testing.T) {
	want := sampleResult()
	if err := compareResults(want, clone(want)); err != nil {
		t.Fatalf("identical results rejected: %v", err)
	}
	corrupt := []func(r *flips.SimulationResult){
		func(r *flips.SimulationResult) { r.History[1].Accuracy = flipBit(r.History[1].Accuracy) },
		func(r *flips.SimulationResult) { r.History[2].PerLabel[0] = flipBit(r.History[2].PerLabel[0]) },
		func(r *flips.SimulationResult) { r.History[0].MeanLoss = flipBit(r.History[0].MeanLoss) },
		func(r *flips.SimulationResult) { r.PeakAccuracy = flipBit(r.PeakAccuracy) },
		func(r *flips.SimulationResult) { r.RoundsToTarget++ },
		func(r *flips.SimulationResult) { r.NumClusters-- },
	}
	for i, f := range corrupt {
		got := clone(want)
		f(got)
		if compareResults(want, got) == nil {
			t.Errorf("corruption %d accepted", i)
		}
	}
}

func TestCompareRoundsRejectsDroppedRepeatedOrReorderedRound(t *testing.T) {
	want := sampleResult().History
	dropped := append([]flips.RoundPoint{want[0]}, want[2:]...)
	repeated := append(append([]flips.RoundPoint(nil), want...), want[2])
	reordered := []flips.RoundPoint{want[1], want[0], want[2]}
	for name, got := range map[string][]flips.RoundPoint{"dropped": dropped, "repeated": repeated, "reordered": reordered} {
		if compareRounds(want, got) == nil {
			t.Errorf("%s round accepted", name)
		}
	}
}

func TestCheckHistoryRejectsImpossibleRounds(t *testing.T) {
	if err := checkHistory(sampleResult()); err != nil {
		t.Fatalf("sane history rejected: %v", err)
	}
	corrupt := map[string]func(r *flips.SimulationResult){
		"NaN accuracy":     func(r *flips.SimulationResult) { r.History[1].Accuracy = math.NaN() },
		"accuracy above 1": func(r *flips.SimulationResult) { r.History[1].Accuracy = 1.5 },
		"more completed":   func(r *flips.SimulationResult) { r.History[0].Completed = 9 },
		"target missed":    func(r *flips.SimulationResult) { r.RoundsToTarget = -1 },
	}
	for name, f := range corrupt {
		r := clone(sampleResult())
		f(r)
		if checkHistory(r) == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCheckClustersAndPartitionRejectOverlapAndGaps(t *testing.T) {
	if err := checkClusters([][]int{{0, 2}, {1, 3}}, 4); err != nil {
		t.Fatalf("partition of parties rejected: %v", err)
	}
	for name, c := range map[string][][]int{"duplicate": {{0, 2}, {1, 2, 3}}, "missing": {{0, 2}, {1}}, "out of range": {{0, 2}, {1, 3, 4}}} {
		if checkClusters(c, 4) == nil {
			t.Errorf("clusters with a %s party accepted", name)
		}
	}
	if err := checkPartition([][]int{{0, 3}, {1, 2, 4}}, 5); err != nil {
		t.Fatalf("disjoint covering partition rejected: %v", err)
	}
	for name, p := range map[string][][]int{"shared": {{0, 3}, {1, 2, 3, 4}}, "unowned": {{0, 3}, {1, 2}}} {
		if checkPartition(p, 5) == nil {
			t.Errorf("partition with a %s sample accepted", name)
		}
	}
}

func TestCheckRoundRobinRejectsMovedPick(t *testing.T) {
	clusters := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}
	calls := []selectCall{{target: 3, ids: []int{0, 4, 8, 5}}, {target: 3, ids: []int{1, 5, 9}}}
	if err := checkRoundRobin(clusters, 12, calls); err != nil {
		t.Fatalf("round-robin picks rejected: %v", err)
	}
	// Party 9 (cluster 2) replaced by party 2 (cluster 0): cluster 0 leads
	// cluster 2 by two picks.
	moved := []selectCall{calls[0], {target: 3, ids: []int{1, 5, 2}}}
	if checkRoundRobin(clusters, 12, moved) == nil {
		t.Error("pick moved to another cluster accepted")
	}
	dup := []selectCall{calls[0], {target: 3, ids: []int{1, 5, 5}}}
	if checkRoundRobin(clusters, 12, dup) == nil {
		t.Error("duplicate pick accepted")
	}
}

func TestCheckRoundRobinExemptsExhaustedCluster(t *testing.T) {
	// Cluster 2 has one member: picked whole in each call, it loses its
	// later turns, so cluster 0 and 1 pull ahead of it.
	clusters := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8}}
	calls := []selectCall{{target: 4, ids: []int{0, 4, 8, 1}}, {target: 4, ids: []int{5, 2, 8, 6}}}
	if err := checkRoundRobin(clusters, 9, calls); err != nil {
		t.Fatalf("exhausted cluster not exempt: %v", err)
	}
}

// TestRoundRobinHoldsOnARealJob runs a small FLIPS job and checks that its
// recorded picks pass the round-robin check and that moving one pick from
// the least- to the most-picked cluster fails it.
func TestRoundRobinHoldsOnARealJob(t *testing.T) {
	cfg := flips.SimulationConfig{Dataset: "mit-bih-ecg", Algorithm: "fedyogi", Strategy: "flips",
		Alpha: 0.3, PartyFraction: 0.2, StragglerRate: 0.1, Parties: 40, Rounds: 6, Parallelism: 1, Seed: 7}
	r, err := runConstructed(cfg, nil, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	public, err := flips.RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareResults(public, r.res); err != nil {
		t.Fatalf("constructed run differs from the public call: %v", err)
	}
	clusters, n := r.built.Clusters, len(r.built.Parties)
	if err := checkClusters(clusters, n); err != nil {
		t.Fatal(err)
	}
	if err := checkRoundRobin(clusters, n, r.calls); err != nil {
		t.Fatalf("real picks rejected: %v", err)
	}
	clusterOf := map[int]int{}
	for c, members := range clusters {
		for _, p := range members {
			clusterOf[p] = c
		}
	}
	// Move one pick of the first call from its least- to its most-picked
	// cluster, choosing a most-picked cluster that the move does not pick
	// whole (which would exempt it).
	first := r.calls[0]
	counts := make([]int, len(clusters))
	for _, id := range first.ids[:first.target] {
		counts[clusterOf[id]]++
	}
	lo, hi := -1, -1
	for c := range counts {
		if counts[c] > 0 && counts[c] < len(clusters[c]) && (lo < 0 || counts[c] < counts[lo]) {
			lo = c
		}
		if counts[c]+1 < len(clusters[c]) && (hi < 0 || counts[c] > counts[hi]) {
			hi = c
		}
	}
	if lo < 0 || hi < 0 || lo == hi {
		t.Skip("first call leaves no pick to move")
	}
	inCall := map[int]bool{}
	for _, id := range first.ids {
		inCall[id] = true
	}
	replacement := -1
	for _, p := range clusters[hi] {
		if !inCall[p] {
			replacement = p
			break
		}
	}
	ids := append([]int(nil), first.ids...)
	for i, id := range ids[:first.target] {
		if clusterOf[id] == lo {
			ids[i] = replacement
			break
		}
	}
	corrupt := append([]selectCall{{target: first.target, ids: ids}}, r.calls[1:]...)
	if checkRoundRobin(clusters, n, corrupt) == nil {
		t.Error("pick moved from the least- to the most-picked cluster accepted")
	}
}

func TestCheckBufferedStepsRejectsShortFold(t *testing.T) {
	h := sampleResult().History
	if err := checkBufferedSteps(h, 8); err != nil {
		t.Fatalf("full folds rejected: %v", err)
	}
	h[1].Completed = 7
	if checkBufferedSteps(h, 8) == nil {
		t.Error("a step folding K-1 updates accepted")
	}
}

func TestCheckWireRejectsSilentSlot(t *testing.T) {
	slots := []dist.WorkerStat{{Slot: 0, BytesIn: 10, BytesOut: 20}, {Slot: 1, BytesIn: 5, BytesOut: 7}}
	if err := checkWire(slots, 2); err != nil {
		t.Fatalf("busy slots rejected: %v", err)
	}
	slots[1].BytesIn = 0
	if checkWire(slots, 2) == nil {
		t.Error("slot with no inbound bytes accepted")
	}
	if checkWire(slots[:1], 2) == nil {
		t.Error("missing slot accepted")
	}
}

func TestCheckCountersRejectsUnbalancedBooks(t *testing.T) {
	text := strings.Join([]string{
		"# TYPE flipsd_jobs_accepted_total counter",
		"flipsd_jobs_accepted_total 4", "flipsd_jobs_done_total 4", "flipsd_jobs_rejected_total 0",
		"flipsd_jobs_failed_total 0", "flipsd_jobs_inflight 0", "flipsd_queue_depth 0", "flipsd_rounds_total 40",
		`flipsd_job_latency_seconds{quantile="0.5"} 1.5`,
	}, "\n")
	m := parseProm(text)
	if err := checkCounters(m, 4, 40); err != nil {
		t.Fatalf("balanced books rejected: %v", err)
	}
	m["flipsd_jobs_done_total"] = 3
	if checkCounters(m, 4, 40) == nil {
		t.Error("a lost job accepted")
	}
	if checkCounters(parseProm(text), 4, 39) == nil {
		t.Error("a miscounted round accepted")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
