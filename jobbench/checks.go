package main

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"

	"flips"
	"flips/internal/dist"
)

// The checks below judge the program's outputs against a computation made
// apart from the timed call (a reference run of the same config) or against
// a property the method must have. None compares against a stored copy of
// an earlier output. checks_test.go shows each one rejecting a corrupted
// result.

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// compareResults reports the first difference between two results, bit for
// bit on every float.
func compareResults(want, got *flips.SimulationResult) error {
	if want == nil || got == nil {
		return fmt.Errorf("missing result (want %v, got %v)", want != nil, got != nil)
	}
	if err := compareRounds(want.History, got.History); err != nil {
		return err
	}
	switch {
	case !sameFloat(want.PeakAccuracy, got.PeakAccuracy):
		return fmt.Errorf("PeakAccuracy %v, want %v", got.PeakAccuracy, want.PeakAccuracy)
	case want.RoundsToTarget != got.RoundsToTarget:
		return fmt.Errorf("RoundsToTarget %d, want %d", got.RoundsToTarget, want.RoundsToTarget)
	case !sameFloat(want.TimeToTarget, got.TimeToTarget):
		return fmt.Errorf("TimeToTarget %v, want %v", got.TimeToTarget, want.TimeToTarget)
	case !sameFloat(want.SimTime, got.SimTime):
		return fmt.Errorf("SimTime %v, want %v", got.SimTime, want.SimTime)
	case !sameFloat(want.TargetAccuracy, got.TargetAccuracy):
		return fmt.Errorf("TargetAccuracy %v, want %v", got.TargetAccuracy, want.TargetAccuracy)
	case want.TotalCommBytes != got.TotalCommBytes:
		return fmt.Errorf("TotalCommBytes %d, want %d", got.TotalCommBytes, want.TotalCommBytes)
	case want.NumClusters != got.NumClusters:
		return fmt.Errorf("NumClusters %d, want %d", got.NumClusters, want.NumClusters)
	}
	return nil
}

// compareRounds checks that got holds exactly the rounds of want, in order,
// each bit-identical. A stream that drops, repeats or reorders a round fails
// it.
func compareRounds(want, got []flips.RoundPoint) error {
	for i := 0; i < len(want) && i < len(got); i++ {
		w, g := want[i], got[i]
		if w.Round != g.Round {
			return fmt.Errorf("round entry %d is round %d, want round %d", i, g.Round, w.Round)
		}
		if err := compareRound(w, g); err != nil {
			return fmt.Errorf("round %d: %w", w.Round, err)
		}
	}
	if len(want) != len(got) {
		return fmt.Errorf("%d rounds, want %d", len(got), len(want))
	}
	return nil
}

func compareRound(w, g flips.RoundPoint) error {
	switch {
	case !sameFloat(w.Accuracy, g.Accuracy):
		return fmt.Errorf("Accuracy %v, want %v", g.Accuracy, w.Accuracy)
	case len(w.PerLabel) != len(g.PerLabel):
		return fmt.Errorf("%d per-label recalls, want %d", len(g.PerLabel), len(w.PerLabel))
	case w.CommBytes != g.CommBytes || w.Invited != g.Invited || w.Completed != g.Completed:
		return fmt.Errorf("CommBytes/Invited/Completed %d/%d/%d, want %d/%d/%d",
			g.CommBytes, g.Invited, g.Completed, w.CommBytes, w.Invited, w.Completed)
	case !sameFloat(w.MeanLoss, g.MeanLoss):
		return fmt.Errorf("MeanLoss %v, want %v", g.MeanLoss, w.MeanLoss)
	case !sameFloat(w.RoundTime, g.RoundTime) || !sameFloat(w.SimTime, g.SimTime):
		return fmt.Errorf("RoundTime/SimTime %v/%v, want %v/%v", g.RoundTime, g.SimTime, w.RoundTime, w.SimTime)
	case w.ShardsTouched != g.ShardsTouched || w.Rejected != g.Rejected || w.MaskAborted != g.MaskAborted:
		return fmt.Errorf("ShardsTouched/Rejected/MaskAborted %d/%d/%v, want %d/%d/%v",
			g.ShardsTouched, g.Rejected, g.MaskAborted, w.ShardsTouched, w.Rejected, w.MaskAborted)
	}
	for i := range w.PerLabel {
		if !sameFloat(w.PerLabel[i], g.PerLabel[i]) {
			return fmt.Errorf("PerLabel[%d] %v, want %v", i, g.PerLabel[i], w.PerLabel[i])
		}
	}
	return nil
}

// checkHistory checks the properties every finished job must have: each
// accuracy is a finite balanced accuracy in [0, 1], no round folds more
// arrivals than it dispatched, and the job reached its target.
func checkHistory(res *flips.SimulationResult) error {
	if len(res.History) == 0 {
		return fmt.Errorf("empty history")
	}
	for _, p := range res.History {
		if math.IsNaN(p.Accuracy) || p.Accuracy < 0 || p.Accuracy > 1 {
			return fmt.Errorf("round %d: accuracy %v outside [0, 1]", p.Round, p.Accuracy)
		}
		for l, r := range p.PerLabel {
			if !math.IsNaN(r) && (r < 0 || r > 1) {
				return fmt.Errorf("round %d: label %d recall %v outside [0, 1]", p.Round, l, r)
			}
		}
		if p.Completed > p.Invited {
			return fmt.Errorf("round %d: %d completed of %d invited", p.Round, p.Completed, p.Invited)
		}
	}
	if math.IsNaN(res.PeakAccuracy) || res.PeakAccuracy < 0 || res.PeakAccuracy > 1 {
		return fmt.Errorf("peak accuracy %v outside [0, 1]", res.PeakAccuracy)
	}
	if res.RoundsToTarget <= 0 {
		return fmt.Errorf("target %v not reached (RoundsToTarget %d)", res.TargetAccuracy, res.RoundsToTarget)
	}
	return nil
}

// checkClusters checks that the clusters partition the parties 0..n-1:
// every party in exactly one non-empty cluster.
func checkClusters(clusters [][]int, n int) error {
	seen := make([]bool, n)
	count := 0
	for c, members := range clusters {
		if len(members) == 0 {
			return fmt.Errorf("cluster %d is empty", c)
		}
		for _, p := range members {
			if p < 0 || p >= n {
				return fmt.Errorf("cluster %d holds party %d outside [0, %d)", c, p, n)
			}
			if seen[p] {
				return fmt.Errorf("party %d is in more than one cluster", p)
			}
			seen[p] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("clusters cover %d of %d parties", count, n)
	}
	return nil
}

// checkPartition checks that the parties' sample index sets are disjoint
// and together cover the training set 0..samples-1.
func checkPartition(parties [][]int, samples int) error {
	owner := make([]int, samples)
	for i := range owner {
		owner[i] = -1
	}
	for p, idxs := range parties {
		if len(idxs) == 0 {
			return fmt.Errorf("party %d holds no samples", p)
		}
		for _, i := range idxs {
			if i < 0 || i >= samples {
				return fmt.Errorf("party %d holds sample %d outside [0, %d)", p, i, samples)
			}
			if owner[i] >= 0 {
				return fmt.Errorf("sample %d belongs to parties %d and %d", i, owner[i], p)
			}
			owner[i] = p
		}
	}
	for i, o := range owner {
		if o < 0 {
			return fmt.Errorf("sample %d belongs to no party", i)
		}
	}
	return nil
}

// selectCall is one recorded Selector.Select call.
type selectCall struct {
	target int
	ids    []int
}

// checkRoundRobin checks Algorithm 1's equitable selection over a job: the
// IDs of every Select call are unique and in range, and, counting only each
// call's first target IDs (the round-robin picks; the rest are straggler
// over-provisioning), the cumulative picks of any two clusters never differ
// by more than one. The selector takes the least-picked cluster each time,
// so its per-cluster turn counts stay within one; a cluster loses a turn
// only when every member is already in the round. Clusters that were ever
// picked whole within one call are therefore exempt from then on.
func checkRoundRobin(clusters [][]int, n int, calls []selectCall) error {
	clusterOf := make([]int, n)
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	for c, members := range clusters {
		for _, p := range members {
			if p >= 0 && p < n {
				clusterOf[p] = c
			}
		}
	}
	picks := make([]int, len(clusters))
	exhausted := make([]bool, len(clusters))
	for k, call := range calls {
		target := min(call.target, n)
		if len(call.ids) < target {
			return fmt.Errorf("select %d: %d IDs for target %d", k, len(call.ids), target)
		}
		seen := make(map[int]bool, len(call.ids))
		for _, id := range call.ids {
			if id < 0 || id >= n || clusterOf[id] < 0 {
				return fmt.Errorf("select %d: party %d outside the clustered range [0, %d)", k, id, n)
			}
			if seen[id] {
				return fmt.Errorf("select %d: party %d picked twice", k, id)
			}
			seen[id] = true
		}
		inCall := make([]int, len(clusters))
		for _, id := range call.ids[:target] {
			picks[clusterOf[id]]++
			inCall[clusterOf[id]]++
		}
		for c, members := range clusters {
			if inCall[c] == len(members) {
				exhausted[c] = true
			}
		}
		lo, hi, loC, hiC := math.MaxInt, -1, -1, -1
		for c := range clusters {
			if exhausted[c] {
				continue
			}
			if picks[c] < lo {
				lo, loC = picks[c], c
			}
			if picks[c] > hi {
				hi, hiC = picks[c], c
			}
		}
		if hiC >= 0 && hi-lo > 1 {
			return fmt.Errorf("after select %d: cluster %d has %d round-robin picks, cluster %d has %d", k, hiC, hi, loC, lo)
		}
	}
	return nil
}

// checkBufferedSteps checks FedBuff's property: every aggregation step folds
// exactly the buffer size k.
func checkBufferedSteps(history []flips.RoundPoint, k int) error {
	for _, p := range history {
		if p.Completed != k {
			return fmt.Errorf("buffered step %d folded %d updates, want the buffer size %d", p.Round, p.Completed, k)
		}
	}
	return nil
}

// checkWire checks that every shard slot of a distributed job moved bytes in
// both directions, i.e. that training really crossed the wire.
func checkWire(slots []dist.WorkerStat, workers int) error {
	if len(slots) != workers {
		return fmt.Errorf("%d worker slots, want %d", len(slots), workers)
	}
	for _, s := range slots {
		if s.BytesIn <= 0 || s.BytesOut <= 0 {
			return fmt.Errorf("slot %d moved %d bytes in, %d out", s.Slot, s.BytesIn, s.BytesOut)
		}
	}
	return nil
}

// parseProm reads the unlabelled samples of a Prometheus text exposition.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// checkCounters checks that the job server's /metrics books balance once
// every job has ended: each submission accepted and done, none rejected or
// failed, nothing queued or running, and every streamed round counted.
func checkCounters(m map[string]float64, submitted, rounds int) error {
	want := map[string]float64{
		"flipsd_jobs_accepted_total": float64(submitted),
		"flipsd_jobs_done_total":     float64(submitted),
		"flipsd_jobs_rejected_total": 0,
		"flipsd_jobs_failed_total":   0,
		"flipsd_jobs_inflight":       0,
		"flipsd_queue_depth":         0,
		"flipsd_rounds_total":        float64(rounds),
	}
	for _, name := range []string{"flipsd_jobs_accepted_total", "flipsd_jobs_done_total", "flipsd_jobs_rejected_total",
		"flipsd_jobs_failed_total", "flipsd_jobs_inflight", "flipsd_queue_depth", "flipsd_rounds_total"} {
		got, ok := m[name]
		if !ok {
			return fmt.Errorf("/metrics lacks %s", name)
		}
		if got != want[name] {
			return fmt.Errorf("/metrics %s = %v, want %v", name, got, want[name])
		}
	}
	return nil
}
