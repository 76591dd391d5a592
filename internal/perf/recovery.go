package perf

import (
	"fmt"
	"time"
)

// RecoveryStats accounts for the fault-tolerance overhead of a supervised
// run — the §IV-B checkpoint/restart controller's scorecard. LostSteps ×
// the per-step LUPS rate gives the recomputation cost of a failure;
// Restarts and TimeToRecover bound the control-plane overhead; the
// checkpoint counters show how often the health gate and the integrity
// verification earned their keep. The multi-level counters split the
// restarts by severity: HotSwaps recovered from memory (L2 buddy copies
// or L3 parity) with no disk access and no global rollback past the last
// snapshot, DiskRollbacks escalated to the L4 checkpoint file.
type RecoveryStats struct {
	// Restarts counts supervised world teardown + restore cycles
	// (HotSwaps + DiskRollbacks).
	Restarts int `json:"restarts"`
	// LostSteps is the total forward progress discarded by rollbacks
	// (furthest step reached minus the step resumed from, summed over
	// restarts).
	LostSteps int `json:"lost_steps"`
	// Shrinks counts restarts that re-decomposed onto fewer ranks.
	Shrinks int `json:"shrinks"`
	// CheckpointsWritten counts verified-good checkpoints accepted as
	// rollback targets.
	CheckpointsWritten int `json:"checkpoints_written"`
	// CheckpointsRejected counts checkpoints refused by the health gate
	// or failing read-back verification (corruption).
	CheckpointsRejected int `json:"checkpoints_rejected"`
	// TimeToRecover is the wall-clock time spent in rollback machinery
	// (teardown, re-decomposition, restore), excluding step replay —
	// replay cost is LostSteps at the solver's step rate.
	TimeToRecover time.Duration `json:"time_to_recover_ns"`

	// HotSwaps counts restarts repaired from the in-memory snapshot
	// hierarchy with the world size preserved (no disk, no shrink).
	HotSwaps int `json:"hot_swaps"`
	// DiskRollbacks counts restarts that escalated to the L4 disk
	// checkpoint (multi-loss in a parity group, no valid generation).
	DiskRollbacks int `json:"disk_rollbacks"`
	// BuddyRestores counts dead blocks recovered from an L2 buddy copy.
	BuddyRestores int `json:"buddy_restores"`
	// Reconstructions counts dead blocks rebuilt from L3 parity algebra.
	Reconstructions int `json:"reconstructions"`
	// SparesUsed counts spare ranks consumed by hot swaps.
	SparesUsed int `json:"spares_used"`
	// SnapshotBytes is the cumulative bytes deposited per checkpoint
	// level (L1 own, L2 buddy, L3 parity, L4 disk).
	SnapshotBytes [4]int64 `json:"snapshot_bytes"`
	// Downtime is the wall-clock time the simulation made no forward
	// progress because of failures: from failure detection to the world
	// resuming (either recovery path).
	Downtime time.Duration `json:"downtime_ns"`

	// SnapshotWaves counts the in-memory snapshot waves rank 0 completed
	// and SnapshotTime the wall-clock time it spent inside them — plain
	// counters, live with the tracer off.
	SnapshotWaves int           `json:"snapshot_waves"`
	SnapshotTime  time.Duration `json:"snapshot_time_ns"`
	// SnapshotFirst is the first of those waves, taken apart: the one
	// that faults the store's memory in.
	SnapshotFirst time.Duration `json:"snapshot_first_ns"`
	// SnapshotResident is the payload memory the snapshot store held at
	// the end of the run (its high-water mark: records are reused, never
	// released).
	SnapshotResident int64 `json:"snapshot_resident_bytes"`
	// SnapshotResidentLevels splits SnapshotResident's records by level
	// (L1 own, L2 buddy, L3 parity); the rest are transport buffers.
	SnapshotResidentLevels [3]int64 `json:"snapshot_resident_level_bytes"`
}

// Merge accumulates another run's recovery scorecard into r — the
// service-level aggregation: the lbmserve /metrics endpoint sums every
// job's stats into one fleet view. Counters and byte ledgers add;
// durations add (MTTR stays consistent because Downtime and Restarts
// both accumulate), except the first wave, which keeps the slowest run's.
func (r *RecoveryStats) Merge(o RecoveryStats) {
	r.Restarts += o.Restarts
	r.LostSteps += o.LostSteps
	r.Shrinks += o.Shrinks
	r.CheckpointsWritten += o.CheckpointsWritten
	r.CheckpointsRejected += o.CheckpointsRejected
	r.TimeToRecover += o.TimeToRecover
	r.HotSwaps += o.HotSwaps
	r.DiskRollbacks += o.DiskRollbacks
	r.BuddyRestores += o.BuddyRestores
	r.Reconstructions += o.Reconstructions
	r.SparesUsed += o.SparesUsed
	for i := range r.SnapshotBytes {
		r.SnapshotBytes[i] += o.SnapshotBytes[i]
	}
	r.Downtime += o.Downtime
	r.SnapshotWaves += o.SnapshotWaves
	r.SnapshotTime += o.SnapshotTime
	r.SnapshotFirst = max(r.SnapshotFirst, o.SnapshotFirst)
	r.SnapshotResident = max(r.SnapshotResident, o.SnapshotResident)
	for i := range r.SnapshotResidentLevels {
		r.SnapshotResidentLevels[i] = max(r.SnapshotResidentLevels[i], o.SnapshotResidentLevels[i])
	}
}

// SnapshotLine renders the snapshot-wave accounting as the one-line
// summary the CLI prints: wave count, first and mean wave time, the rate
// at which the L1–L3 ledger bytes were produced, and the store's resident
// size, split by level.
func (r RecoveryStats) SnapshotLine() string {
	bytes := r.SnapshotBytes[0] + r.SnapshotBytes[1] + r.SnapshotBytes[2]
	sec := r.SnapshotTime.Seconds()
	gbps := 0.0
	if sec > 0 {
		gbps = float64(bytes) / sec / 1e9
	}
	lv := r.SnapshotResidentLevels
	return fmt.Sprintf("snapshots: %d waves, first %.1f ms, %.1f ms/wave, %.2f GB/s, %.0f MB resident in store (L1 %.1f, L2 %.1f, L3 %.1f MB)",
		r.SnapshotWaves, 1e3*r.SnapshotFirst.Seconds(), 1e3*sec/float64(max(r.SnapshotWaves, 1)), gbps, float64(r.SnapshotResident)/1e6,
		float64(lv[0])/1e6, float64(lv[1])/1e6, float64(lv[2])/1e6)
}

// Clean reports whether the run needed no recovery at all.
func (r RecoveryStats) Clean() bool {
	return r.Restarts == 0 && r.CheckpointsRejected == 0
}

// MTTR returns the mean time to repair: total downtime divided by the
// number of repairs (zero when nothing failed).
func (r RecoveryStats) MTTR() time.Duration {
	if r.Restarts == 0 {
		return 0
	}
	return r.Downtime / time.Duration(r.Restarts)
}

// String implements fmt.Stringer.
func (r RecoveryStats) String() string {
	s := fmt.Sprintf("restarts=%d (hot-swaps=%d, disk=%d, shrinks=%d), lost steps=%d, checkpoints %d good/%d rejected, recovery time %v",
		r.Restarts, r.HotSwaps, r.DiskRollbacks, r.Shrinks, r.LostSteps,
		r.CheckpointsWritten, r.CheckpointsRejected,
		r.TimeToRecover.Round(time.Microsecond))
	if r.Restarts > 0 {
		s += fmt.Sprintf(", MTTR %v", r.MTTR().Round(time.Microsecond))
	}
	if r.BuddyRestores > 0 || r.Reconstructions > 0 {
		s += fmt.Sprintf(", blocks recovered %d buddy/%d parity", r.BuddyRestores, r.Reconstructions)
	}
	if r.SparesUsed > 0 {
		s += fmt.Sprintf(", spares used %d", r.SparesUsed)
	}
	return s
}

// ReplayCost returns the modelled recomputation time of the lost steps
// for a domain of cells advancing at the given rate.
func (r RecoveryStats) ReplayCost(cells int64, rate LUPS) float64 {
	if rate <= 0 {
		return 0
	}
	return float64(r.LostSteps) * float64(cells) / float64(rate)
}
