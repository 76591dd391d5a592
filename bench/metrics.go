package main

// metricDef names one metric: its unit, which direction is better and,
// for end-to-end metrics, the share of the parent's median by which it
// may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// setupFloorSec keeps a few milliseconds of jitter on a sub-second
// set-up time from counting as a regression: setup_s is "worse" only
// when it exceeds both its relative bound and this absolute floor.
const setupFloorSec = 0.1

// endToEnd are the metrics a user of the two binaries sees; every
// workload reports all of them, measured with tracing off.
var endToEnd = []metricDef{
	{"mlups", "MLUPS", "higher", 0.25},
	{"job_latency_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced-pass metrics, one block per module. They carry
// no bound: they explain an end-to-end move, they do not gate it.
var perLayer = []metricDef{
	// perf: the host probe the roofline fractions are taken against.
	{"perf.triad_gbps", "GB/s", "higher", 0},
	{"perf.copy_gbps", "GB/s", "higher", 0},
	{"perf.llc_mib", "MiB", "higher", 0},
	{"perf.array_mib", "MiB", "higher", 0},
	{"perf.roofline_db_mlups", "MLUPS", "higher", 0},
	{"perf.roofline_aa_mlups", "MLUPS", "higher", 0},

	{"core.kernel_db_mlups", "MLUPS", "higher", 0},
	{"core.kernel_aa_mlups", "MLUPS", "higher", 0},
	{"core.kernel_aa_pool_mlups", "MLUPS", "higher", 0},
	{"core.pool_speedup", "x", "higher", 0},
	{"core.kernel_db_mlups_40", "MLUPS", "higher", 0},
	{"core.kernel_aa_mlups_40", "MLUPS", "higher", 0},
	{"core.kernel_db_gbps", "GB/s", "higher", 0},
	{"core.kernel_aa_gbps", "GB/s", "higher", 0},
	{"core.kernel_db_roofline_frac", "frac", "higher", 0},
	{"core.kernel_aa_roofline_frac", "frac", "higher", 0},
	{"core.periodic_db_ms", "ms", "lower", 0},
	{"core.periodic_aa_ms", "ms", "lower", 0},
	{"core.step_db_mlups", "MLUPS", "higher", 0},
	{"core.step_aa_mlups", "MLUPS", "higher", 0},
	{"core.pack_ms", "ms", "lower", 0},
	{"core.unpack_ms", "ms", "lower", 0},
	{"core.macro_ms", "ms", "lower", 0},
	{"core.alloc_s", "s", "lower", 0},
	{"core.alloc_aa_s", "s", "lower", 0},
	{"core.resident_mb_db", "MB", "lower", 0},
	{"core.resident_mb_aa", "MB", "lower", 0},
	{"core.allocs_per_step", "count", "lower", 0},

	{"boundary.apply_ms", "ms", "lower", 0},
	{"boundary.share", "frac", "lower", 0},

	{"mpi.pingpong_us", "us", "lower", 0},
	{"mpi.halo_roundtrip_ms", "ms", "lower", 0},
	{"mpi.allocs_per_msg", "count", "lower", 0},
	{"mpi.alloc_bytes_per_msg", "B", "lower", 0},
	{"mpi.barrier_us", "us", "lower", 0},

	{"psolve.step_ms_1x1", "ms", "lower", 0},
	{"psolve.step_ms_2x1", "ms", "lower", 0},
	{"psolve.mlups_1x1", "MLUPS", "higher", 0},
	{"psolve.mlups_2x1", "MLUPS", "higher", 0},
	{"psolve.tax_1x1", "x", "lower", 0},
	{"psolve.scaling_eff_2x1", "frac", "higher", 0},
	{"psolve.rank_imbalance", "x", "lower", 0},
	{"psolve.setup_s", "s", "lower", 0},
	{"psolve.gather_ms", "ms", "lower", 0},
	{"psolve.allocs_per_step", "count", "lower", 0},
	{"psolve.alloc_bytes_per_step", "B", "lower", 0},
	{"psolve.halo_bytes_per_step", "B", "lower", 0},
	{"psolve.msgs_per_step", "count", "lower", 0},
	{"psolve.share_compute", "frac", "higher", 0},
	{"psolve.share_halo", "frac", "lower", 0},
	{"psolve.share_wait", "frac", "lower", 0},
	{"psolve.share_bc", "frac", "lower", 0},
	{"psolve.supervise_tax", "frac", "lower", 0},
	{"psolve.wave_ms_l1", "ms", "lower", 0},
	{"psolve.wave_ms_l123", "ms", "lower", 0},
	{"psolve.mttr_ms", "ms", "lower", 0},
	{"psolve.lost_steps", "count", "lower", 0},

	{"resil.capture_ms", "ms", "lower", 0},
	{"resil.capture_gbps", "GB/s", "higher", 0},
	{"resil.parity_ms", "ms", "lower", 0},
	{"resil.restore_ms", "ms", "lower", 0},
	{"resil.snapshot_bytes_l1", "B", "lower", 0},
	{"resil.snapshot_bytes_l2", "B", "lower", 0},
	{"resil.snapshot_bytes_l3", "B", "lower", 0},
	{"resil.alloc_bytes_per_wave", "B", "lower", 0},

	{"swio.checkpoint_s", "s", "lower", 0},
	{"swio.checkpoint_mbps", "MB/s", "higher", 0},
	{"swio.restart_s", "s", "lower", 0},
	{"swio.checkpoint_bytes", "B", "lower", 0},

	{"patch.mlups_2w", "MLUPS", "higher", 0},
	{"patch.tax_vs_psolve", "x", "lower", 0},
	{"patch.setup_s", "s", "lower", 0},
	{"patch.migrate_ms", "ms", "lower", 0},
	{"patch.migrations", "count", "lower", 0},
	{"patch.rebalances", "count", "lower", 0},
	{"patch.imbalance_post", "x", "lower", 0},

	{"serve.post_ms_p50", "ms", "lower", 0},
	{"serve.queued_ms_p50", "ms", "lower", 0},
	{"serve.run_ms_p50_small", "ms", "lower", 0},
	{"serve.run_ms_p50_large", "ms", "lower", 0},
	{"serve.result_ms_p50", "ms", "lower", 0},
	{"serve.latency_p90_s", "s", "lower", 0},
	{"serve.overhead_frac", "frac", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.journal_bytes_per_job", "B", "lower", 0},
	{"serve.drain_s", "s", "lower", 0},

	{"trace.tax_frac", "frac", "lower", 0},
	{"cli.single_p1_mlups", "MLUPS", "higher", 0},
	{"cli.scaling_eff", "frac", "higher", 0},
}

// needsTwoCores are the metrics that compare one core against two; on a
// one-core host they are omitted with a printed reason, not reported
// wrong.
var needsTwoCores = map[string]bool{
	"core.pool_speedup":      true,
	"cli.scaling_eff":        true,
	"psolve.scaling_eff_2x1": true,
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
