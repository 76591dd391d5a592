package patch

import (
	"sort"

	"sunwaylb/internal/mpi"
)

// Stats summarises a patch-mode run for benchmarks and the service
// gauges. Only rank 0 writes it (during the run), and it is read after
// the world joins.
type Stats struct {
	// Patches and Workers describe the final topology (Workers shrinks
	// when a supervised run loses owners).
	Patches int `json:"patches"`
	Workers int `json:"workers"`
	// Rebalances counts adopted balancer plans; Migrations counts the
	// individual patch moves they caused (including forced rotations).
	Rebalances int `json:"rebalances"`
	Migrations int `json:"migrations"`
	// ImbalancePre is the per-worker step-cost imbalance (max/mean) at
	// the first measurement boundary; ImbalancePost is the ratio at the
	// end of the run — the balancer's effect is Pre − Post.
	ImbalancePre  float64 `json:"imbalance_pre"`
	ImbalancePost float64 `json:"imbalance_post"`
	// PatchesPerOwner is the final ownership histogram.
	PatchesPerOwner []int `json:"patches_per_owner"`
	// PatchMLUPS is the final modelled throughput of each patch
	// (cells / measured cost), indexed by patch ID.
	PatchMLUPS []float64 `json:"patch_mlups"`
	// Kernel names the code path every worker, priced or not, steps its
	// patches through (worker 0's lattices' core.KernelPath at the end of
	// the run), so a roster cannot fall onto a slow path silently.
	Kernel string `json:"kernel"`
}

// rebalanceDue reports whether a balance boundary falls after `done`
// completed steps. Nothing moves after the final step.
func (n *node) rebalanceDue(done int) bool {
	if done >= n.steps {
		return false
	}
	opt := n.opt
	if opt.ForceMigrateEvery > 0 && done%opt.ForceMigrateEvery == 0 {
		return true
	}
	return opt.RebalanceEvery > 0 && done%opt.RebalanceEvery == 0
}

// collectCosts allgathers the per-patch EWMA costs masked to ownership
// and merges them into one vector every rank agrees on: entry p comes
// from p's owner. The contribution is freshly allocated because the
// transport passes references across ranks.
func (n *node) collectCosts() []float64 {
	P := n.til.P()
	vec := make([]float64, P)
	for _, o := range n.owned {
		vec[o.ID] = n.cost[o.ID]
	}
	msgs := n.c.Allgather(mpi.Message{Data: vec})
	merged := make([]float64, P)
	for p := 0; p < P; p++ {
		merged[p] = msgs[n.owner[p]].Data[p]
	}
	return merged
}

// workerLoads folds merged per-patch costs into per-worker loads and the
// max/mean imbalance ratio.
func (n *node) workerLoads(merged []float64) (loads []float64, imbalance float64) {
	loads = make([]float64, len(n.opt.Workers))
	for p, c := range merged {
		loads[n.owner[p]] += c
	}
	total, max := 0.0, 0.0
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total > 0 {
		imbalance = max / (total / float64(len(loads)))
	}
	return loads, imbalance
}

// rebalance runs one balance boundary: merge measurements, decide a plan
// (forced rotation or greedy replan past the imbalance threshold), and
// migrate. Every rank computes the identical plan from the identical
// merged vector, so ownership stays replicated without a coordinator.
func (n *node) rebalance(done int) error {
	opt := n.opt
	merged := n.collectCosts()
	loads, imbalance := n.workerLoads(merged)
	if n.me == 0 {
		if n.w.stats.ImbalancePre == 0 {
			n.w.stats.ImbalancePre = imbalance
		}
		n.w.stats.ImbalancePost = imbalance
	}

	var newOwner []int
	if opt.ForceMigrateEvery > 0 && done%opt.ForceMigrateEvery == 0 {
		newOwner = n.rotatePlan()
	} else if imbalance > opt.Threshold {
		newOwner = n.greedyPlan(merged, loads)
	}
	if newOwner == nil {
		return nil
	}
	if err := n.migrate(newOwner); err != nil {
		return err
	}
	// New owners inherit the merged estimates until they re-measure.
	copy(n.cost, merged)
	return nil
}

// rotatePlan moves every patch to the next worker — the deterministic
// forced-migration mode the conform oracle uses.
func (n *node) rotatePlan() []int {
	W := len(n.opt.Workers)
	if W < 2 {
		return nil
	}
	newOwner := make([]int, len(n.owner))
	for p, o := range n.owner {
		newOwner[p] = (o + 1) % W
	}
	return newOwner
}

// greedyPlan is the measured-throughput replan: estimate each worker's
// seconds-per-cell from its current patches, then assign patches largest
// first to the worker with the least predicted load (LPT). The plan is
// adopted only if it shortens the predicted makespan by at least 2%, so
// noisy measurements cannot thrash patches back and forth.
func (n *node) greedyPlan(merged, loads []float64) []int {
	W := len(n.opt.Workers)
	if W < 2 {
		return nil
	}
	cells := make([]float64, W)
	for p, o := range n.owner {
		cells[o] += float64(n.til.Patches[p].Cells())
	}
	spc := make([]float64, W)
	knownSum, known := 0.0, 0
	for w := 0; w < W; w++ {
		if cells[w] > 0 && loads[w] > 0 {
			spc[w] = loads[w] / cells[w]
			knownSum += spc[w]
			known++
		}
	}
	if known == 0 {
		return nil
	}
	mean := knownSum / float64(known)
	for w := 0; w < W; w++ {
		if spc[w] == 0 {
			spc[w] = mean // idle or unmeasured worker: assume average speed
		}
	}

	order := make([]int, len(n.owner))
	for p := range order {
		order[p] = p
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		ca, cb := n.til.Patches[a].Cells(), n.til.Patches[b].Cells()
		if ca != cb {
			return ca > cb
		}
		return a < b
	})
	newOwner := make([]int, len(n.owner))
	newLoad := make([]float64, W)
	for _, p := range order {
		best, bestCost := 0, 0.0
		for w := 0; w < W; w++ {
			c := newLoad[w] + float64(n.til.Patches[p].Cells())*spc[w]
			if w == 0 || c < bestCost {
				best, bestCost = w, c
			}
		}
		newOwner[p] = best
		newLoad[best] += float64(n.til.Patches[p].Cells()) * spc[best]
	}
	cur, pred := 0.0, 0.0
	for w := 0; w < W; w++ {
		if loads[w] > cur {
			cur = loads[w]
		}
		if newLoad[w] > pred {
			pred = newLoad[w]
		}
	}
	if pred >= cur*0.98 {
		return nil
	}
	return newOwner
}

// finishStats runs the final measurement collective and fills the
// throughput/ownership summary on rank 0. Every rank must call it (the
// cost merge is an allgather).
func (n *node) finishStats() {
	merged := n.collectCosts()
	if n.me != 0 {
		return
	}
	st := n.w.stats
	if len(n.owned) > 0 {
		st.Kernel = n.owned[0].Lat.KernelPath()
	}
	_, imbalance := n.workerLoads(merged)
	if st.ImbalancePre == 0 {
		st.ImbalancePre = imbalance
	}
	st.ImbalancePost = imbalance
	st.Workers = len(n.opt.Workers)
	st.PatchesPerOwner = make([]int, len(n.opt.Workers))
	for _, o := range n.owner {
		st.PatchesPerOwner[o]++
	}
	st.PatchMLUPS = make([]float64, n.til.P())
	for p := range st.PatchMLUPS {
		if merged[p] > 0 {
			st.PatchMLUPS[p] = float64(n.til.Patches[p].Cells()) / merged[p] / 1e6
		}
	}
}
