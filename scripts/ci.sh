#!/usr/bin/env bash
# CI tiers for SunwayLB-Go.
#
#   tier 1  — build + full test suite (the repo's acceptance gate), then
#             vet + tests of bench/, a module of its own that compiles
#             against internal/*: an API break shows here, not only when
#             the benchmark next runs
#   tier 2  — gofmt cleanliness + vet (also for darwin/arm64 and
#             linux/arm64) + race detector on every package
#   race    — focused race-detector sweep over the concurrent packages
#             (mpi transport, psolve rank goroutines, swlb MPE/CPE
#             collaboration, sunway CPE cluster, trace ring buffers,
#             conform's in-process multi-rank matrix, the gpu model),
#             run twice to shake schedule-dependent interleavings; the
#             device pricing contract runs among them: an swlb price equals the functional
#             step's time on every conform case and stage, the step time
#             depends on geometry alone, a gpu price is its node model,
#             and priced ranks keep their recorded modelled times
#   conform — differential + metamorphic conformance suite: ≥25 seeded
#             cases through all 22 backends (serial core and its AA
#             variants, all swlb stages' functional step, AA ranks under the
#             overlapped exchange in 1-D/2-D at 1..8 ranks, the patch
#             world, whose patches run the ranks' block step, on 2-D and
#             3-D patch tilings) and 11 properties, plus
#             the mutation self-test proving the oracles catch injected
#             numerical bugs; any violation exits non-zero with a
#             minimal replay string
#   analyze — lbmvet, the domain-specific static-analysis suite: the
#             whole module must be free of LDM-budget, span-pairing,
#             hot-allocation, float-determinism and memory-traffic
#             findings, and go vet must be clean
#   chaos   — race-checked chaos matrix: the one recovery ladder, on
#             rank grids, patch worlds and the single rank, must survive
#             deterministic rank kills (single and per-group), link
#             flaps under the phi detector, multi-loss escalation to
#             the disk tier, checkpoint corruption and straggler skew —
#             hot-swapping from the in-memory L2/L3 snapshot hierarchy
#             where the loss pattern allows it; plus the snapshot-wave
#             and halo-link contracts on ranks and patches (steady-state
#             waves and rank steps allocation-free, a stale duplicate
#             never taken for a wave's payload or a step's face, a bit
#             flipped in flight reaching neither a recovery nor a halo:
#             it fails typed or the restart ends bit-exact), the
#             recoverability oracle (every dead set after one wave of
#             every world, group size and level set, never worse than
#             full-group parity's recorded verdicts, a rotted kept
#             record held to them without its owner's replica), and the
#             run-time leak checks: a closed pool, a cancelled supervised
#             run and a world torn down by a rank death leave no
#             goroutine behind
#   trace   — observability smoke: a traced distributed chaos run must
#             export a Chrome trace that round-trips through
#             postproc -tracestat (ReadChrome + Validate + Analyze)
#   serve   — lbmserve service tier: the full internal/serve suite under
#             the race detector (chaos isolation with concurrent faulty
#             tenants bit-identical to solo runs, journal-replay restart,
#             HTTP API, admission/backpressure, cancellation/deadlines)
#             including the load soak (hundreds of queued jobs, mixed
#             fault plans, bounded trace ring and heap) and a drain that
#             leaves no goroutine behind, the daemon SIGTERM-drain smoke,
#             and the spanpair/hotalloc static rules over the service
#             code
#   patch   — patch-decomposition tier: the internal/patch suite under
#             the race detector (tiling fuzz seeds, bit-identity across
#             tilings/backends/forced migrations, the balancer's
#             straggler response, and the migration chaos tests that
#             kill owners mid-run), the mixed-backend conformance slice
#             with mid-run migrations, the hotalloc/spanpair static
#             rules over the patch code, and the supervisor driving it
#             leaving no goroutine behind when cancelled
#   perf    — AA-kernel performance-critical contracts: the AA conform
#             slice (serial/pool backends, AA ranks, the 3-D and mixed
#             patch tilings and the halo-flip property, MaxULP=0 against
#             the reference at both storage parities), the race-checked
#             face wire format on core and the link, the CLI
#             pins (every default path names the AA kernel and writes
#             the same bytes, resumes any other path's checkpoint to the
#             same bytes, and refuses foreign checkpoints and
#             out-of-world fault plans), the one collision operator against its
#             definition and the unrolled row against the operator, the
#             race-checked worker-pool soak plus the AVX-512 row kernel's
#             bitwise equivalence tests, the boundary conditions' face plans
#             against their per-cell definition on both storage schemes
#             and phases (with a two-worker pool stepping in between),
#             ranks and patches (one block step: in-sweep fill, links
#             and same-owner copies) bitwise against a whole fill and
#             against one rank,
#             the lattice's arrays on transparent huge pages,
#             the allocation-free rank/patch steps (links and copies)
#             and snapshot waves,
#             the unrolled D3Q19 macro row bitwise against MacroAt,
#             and the memtraffic/hotalloc static budgets over the
#             kernel, boundary, resilience and rank data-path code
#   bench   — refresh BENCH_results.json from the measured benchmark
#             cases so every CI run extends the perf trajectory; when a
#             committed baseline exists, the AA-kernel MLUPS (kernel-aa,
#             the kernel every default path runs) must not regress more
#             than 10% against it
#
# Usage: scripts/ci.sh [tier1|tier2|race|conform|analyze|perf|chaos|serve|trace|patch|bench|all]
# (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

tier1() {
    echo "== tier 1: build + tests =="
    go build ./...
    go test ./...
    go vet -C bench ./...
    go test -C bench ./...
}

tier2() {
    echo "== tier 2: gofmt + vet + race =="
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt: files need formatting:" >&2
        echo "$unformatted" >&2
        exit 1
    fi
    go vet ./...
    # Cross-vet: the !linux allocation helper and the non-amd64 row-kernel
    # fallback must keep compiling.
    GOOS=darwin GOARCH=arm64 go vet ./...
    GOOS=linux GOARCH=arm64 go vet ./...
    go test -race ./...
}

race() {
    echo "== race: concurrent packages under the race detector =="
    go test -race -count=2 -timeout 600s \
        ./internal/mpi ./internal/psolve ./internal/swlb \
        ./internal/sunway ./internal/trace ./internal/conform ./internal/gpu
}

conform() {
    echo "== conform: differential + metamorphic conformance suite =="
    # Deterministic 25-case matrix; non-zero exit on any oracle violation.
    go run ./cmd/conform -seed 1 -cases 25
    # Mutation sensitivity: every injected bug must be caught and shrunk.
    go run ./cmd/conform -selftest -seed 1 -cases 10
    # A known-bad replay must reproduce (exit 1) — guards the replay path.
    if go run ./cmd/conform \
        -replay 'v1;seed=1;grid=2x2x2;tau=0.8;steps=1;bc=periodic' \
        -run 'mutant/drop-population' >/dev/null; then
        echo "conform: mutant replay unexpectedly passed" >&2
        exit 1
    fi
}

bench() {
    echo "== bench: refresh BENCH_results.json =="
    # Gate against the committed baseline (if any) before overwriting it:
    # a kernel-aa MLUPS regression beyond 10% fails the tier.
    base=""
    if git cat-file -e HEAD:BENCH_results.json 2>/dev/null; then
        base=$(mktemp)
        trap 'rm -f "$base"' RETURN
        git show HEAD:BENCH_results.json > "$base"
    fi
    go run ./cmd/benchsuite -json BENCH_results.json ${base:+-baseline "$base"}
    test -s BENCH_results.json
}

perf() {
    echo "== perf: AA kernel conformance + pool soak + static budgets =="
    # AA backends (serial, worker pool, ranks that fill their halo in
    # their sweeps: a 2x2 grid, a y split and an x-interior rank) must
    # stay bit-identical (MaxULP=0) to the serial reference at every
    # storage parity, and the parity metamorphic property must hold. The
    # 3-D patch tilings, the mixed rosters and the halo-flip property are
    # where a face wire-format or step-order mistake shows: a face carries
    # only the populations that cross it.
    go run ./cmd/conform -seed 1 -cases 10 -run 'core/aa|core/pool|psolve/2x2|psolve/1x2|psolve/4x1|prop/aa-parity|patch/1x1x2|patch/1x2x2|patch/2x2x2|patch/mixed|prop/halo-flip'
    # No silent slow path, no path-dependent answer: single rank, ranks
    # and patches, priced on a device or not, all report the AA kernel
    # and write identical images; a
    # checkpoint of any of them resumes on the others to the same bytes;
    # and every world refuses a foreign checkpoint or an out-of-world
    # fault plan.
    go test -count=1 -run 'TestCLIKernelPath|TestCLIPathsAgree|TestCLICheckpointsPortable|TestCLIRestoreChecksDims|TestCLIFaultPlanInWorld' ./cmd/sunwaylb
    # Race-checked AA suite: the lattice builder against the per-cell
    # construction, the collision operator against its
    # per-direction definition, the unrolled row against the operator
    # (walls in the halo, lattices wider than the flag window), the
    # sweep's row classification against its definition, pool soak and
    # close (no worker left running), step/pool bit-identity on every descriptor, parity-aware halo
    # pack/unpack of the crossing populations on every descriptor, the
    # sweep that reads across its wrapped axes against whole wraps (the
    # unrolled row and the generic one, every combination of axes), and
    # (on capable hardware) the AVX-512 row kernel's bitwise equivalence
    # to the scalar canon.
    go test -race -count=1 -timeout 600s \
        -run 'TestBuildMatchesDefinition|TestRelaxMatchesDefinition|TestUnrolledKernelBitIdentical|TestForRowsMatchesDefinition|TestGenericRows|TestAA|TestPool|TestPack|TestCrossing|TestPeriodic|TestSweepAcrossWrap' ./internal/core
    # The face wire format on the link: slots of crossing·FaceCells + 3
    # words, and a receiver's halo holding exactly the peer's crossing
    # populations at both AA parities, on every descriptor.
    go test -race -count=1 -run 'TestLinkSlotIsCrossingFace|TestLinkCarriesCrossingOnly' ./internal/psolve
    # Boundary handling on AA storage: every condition on every face
    # against its per-cell definition at both phases, seeded condition
    # sets between the steps of a two-worker pool, inside the sweep of a
    # pool of one to three and on rank grids, and the pool's in-sweep
    # conditions bitwise against Apply-then-Step at 1-3 workers (the lid
    # regime, and the wrapped y, z, yz and xyz sets in the CLI's and the
    # bench's orders, included). Two Ps, so a row that reads across the
    # y wrap into another worker's band runs beside that worker.
    GOMAXPROCS=2 go test -race -count=1 -timeout 600s \
        -run 'TestFacePlans|TestPoolFaces|FuzzAAStepConditions' ./internal/boundary
    # Ranks fill their next halo inside their sweeps and read across the
    # axes they wrap themselves: every rank's state bitwise against the
    # whole fill before each step, on edge and x-interior ranks, at 1, 2,
    # 7 and 8 steps. Patches run the same block step, each phase over all
    # of a worker's patches: the patch world against one rank bitwise,
    # with links, same-owner copies, an axis a patch wraps itself and a
    # migration after every step, at an odd and an even step.
    GOMAXPROCS=2 go test -race -count=1 -timeout 600s \
        -run 'TestRankFacesMatchApplyThenStep' ./internal/psolve
    GOMAXPROCS=2 go test -race -count=1 -timeout 600s \
        -run 'MatchesRanks' ./internal/patch
    # Every array a run writes in full comes from core.Alloc: the lattice,
    # the macro arrays, a wave's snapshot records and transport buffers
    # and the macro gather's payload are advised onto transparent huge
    # pages before their first write (skipped where THP is absent or
    # off), and Alloc's slices are zeroed, sized as asked and take their
    # faults up front. The checksum's unrolled lanes equal the rotating
    # definition however a stream is cut.
    go test -count=1 -v -run 'TestLargeArraysOnHugePages|TestAllocZeroedAndPopulated' \
        ./internal/core ./internal/resil ./internal/psolve
    go test -count=1 -run 'TestLanesMatchRotatingReference|TestChecksumDetectsEveryBitFlip' ./internal/resil
    # Ungated smoke of the wave and edge-wrap benchmarks: a pair's and a
    # group of three's steady wave (ms/wave, allocations) and the z edge
    # wrap of a patch2-shaped patch at both parities.
    go test -run '^$' -bench 'BenchmarkWave|BenchmarkPeriodicEdges' -benchtime 1x ./internal/psolve ./internal/core
    # The rank data paths allocate nothing of this module's in steady
    # state (internal/alloctest): a 2x1 rank step, a patch2 step and the
    # snapshot wave on ranks and on patches, plus the row-wise macro
    # extraction and its unrolled D3Q19 row bitwise against the per-cell
    # definition (the row on ±0, subnormal, NaN/Inf and cancelling input).
    go test -count=1 -run 'AllocFree|TestMacroInto|TestMacroRowD3Q19' \
        ./internal/psolve ./internal/patch ./internal/core
    # Static budgets over the performance-critical code: per-cell memory
    # traffic of every //lbm:hot kernel (the D3Q19 macro row held to its
    # 185 B) and no hot-loop allocations.
    go run ./cmd/lbmvet -rules memtraffic,hotalloc \
        ./internal/core ./internal/resil ./internal/boundary \
        ./internal/psolve ./internal/patch
}

analyze() {
    echo "== analyze: lbmvet static-analysis suite =="
    go vet ./...
    # The command and library trees carry the full five-rule contract:
    # every //lbm:hot kernel inside them must also meet its declared
    # //lbm:traffic per-cell byte budget.
    go run ./cmd/lbmvet ./cmd/... ./internal/...
    go run ./cmd/lbmvet ./...
    # The -json mode must emit a well-formed (empty) array on a clean tree.
    out=$(go run ./cmd/lbmvet -json ./...)
    [ "$(echo "$out" | head -c 1)" = "[" ] || {
        echo "lbmvet -json: expected a JSON array, got: $out" >&2
        exit 1
    }
}

chaos() {
    echo "== chaos: supervised recovery matrix under fault injection =="
    # Crash / flap / multi-kill / corrupt matrix plus the severity-aware
    # recovery paths: memory-tier hot swaps (buddy + parity), multi-loss
    # escalation to the L4 disk checkpoint, spare-budget exhaustion and
    # phi-accrual straggler tolerance — all under the race detector. The
    # ladder is one supervisor driving both decompositions, so its tests
    # run on ranks and on patches, three times over: they exercise rank
    # interleavings.
    go test -race -count=3 -timeout 600s -run \
        'TestChaosMatrix|TestSupervisor|TestMigrationChaos|TestChaosEscalatesToCheckpoint' \
        ./internal/psolve ./internal/patch
    # Snapshot-wave and halo-link contracts on ranks and patches. Both
    # worlds run the one wave of internal/resil (Store.Wave), a rank being
    # a worker that owns one block: a 2x1 and a 4x1 rank world leave
    # bitwise the records and byte ledger of a patch world with one patch
    # per worker (TestWavesAgreeAcrossWorlds), and the one pass writes each
    # message, buddy record and replica bitwise as capture then pack, copy
    # or XOR would (resil's TestWaveCopiesMatchCaptureAndPack). Steady-state waves and steps
    # allocate nothing of this module's (a patch world with two patches
    # per worker included, so same-worker buddy copies and remote sends
    # both run, and one whose workers send members of two parity groups,
    # its transport pool held to one buffer per message), a duplicated message of an earlier wave or step is
    # discarded, in-flight corruption of a buddy copy or parity member
    # reaches neither the sender's own record nor a recovery plan on
    # either world, and a flipped halo face fails typed (ErrHaloCorrupt)
    # while the supervised restart ends bit-exact. The recoverability
    # oracle tries every dead set after one wave of every world, group
    # size and level set, with and without a torn, corrupted or rotted
    # record, against the verdicts of full-group parity, and a pair with
    # L1 and L2 stores no parity.
    # -count=3: the tests exercise rank interleavings.
    go test -race -count=3 -timeout 300s -run 'Halo|AllocFree|Wave|TestRecoverabilityOracle|TestPairStoresNoParity' \
        ./internal/psolve ./internal/patch ./internal/resil
    go run ./cmd/conform -seed 1 -cases 10 -run 'prop/halo-flip'
    go test -race -timeout 120s -run \
        'TestRecvFromExitedRank|TestAbortUnblocksEveryone|TestRecvSuspectsSilentPeer|TestRecvNoFalseSuspicionUnderLoad|TestFaultHookDuplicate' \
        ./internal/mpi
    go test -race -timeout 120s ./internal/fault ./internal/resil
    # The single rank runs on the same ladder: a crash of rank 0 rolls
    # back to the verified checkpoint and ends on the clean run's images,
    # and an interrupt saves the step it stopped at.
    go test -race -count=1 -timeout 300s \
        -run 'TestSingleRankFaultRecovery|TestLocalRestoreRejoinsAtOddSteps' ./cmd/sunwaylb
    # CLI-level smoke: a group kill must hot-swap with zero disk rollbacks.
    swap=$(go run ./cmd/sunwaylb -preset cavity -nx 16 -ny 16 -nz 16 -steps 8 \
        -decomp 2x2 -snapshot-every 2 -ckpt-levels 123 -ckpt-group 2 \
        -spare-ranks 2 -detector phi -max-restarts 2 \
        -fault-plan 'seed=7;crash@group=0,count=1,step=5' 2>&1)
    echo "$swap" | grep -q 'hot-swaps=1, disk=0'
    # Lifecycles leave no goroutine behind: a closed pool, the ladder's
    # cancel watcher (a run completed and a run cancelled mid-run) and a
    # world torn down by a rank death, each back to its goroutine count
    # within a bounded poll. -count=3: the teardowns race their ranks.
    go test -race -count=3 -timeout 300s -run 'LeavesNoGoroutines' \
        ./internal/core ./internal/psolve ./internal/mpi
}

serve() {
    echo "== serve: multi-tenant service tier =="
    # Full service suite under the race detector, load soak included:
    # per-job fault isolation must hold bit-identically with hundreds of
    # concurrent tenants and the daemon's memory must stay bounded — a
    # finished job keeps its result digest, never its field
    # (TestFinishedJobsRetainNoFields).
    go test -race -count=1 -timeout 600s ./internal/serve
    # Static contracts on the service code: spans paired, no hot-loop
    # allocation regressions in the scheduler.
    go run ./cmd/lbmvet -rules spanpair,hotalloc ./internal/serve
    # Daemon smoke: SIGTERM must drain cleanly (exit 0) and leave a
    # replayable journal behind.
    out=$(mktemp -d)
    trap 'rm -rf "$out"' RETURN
    go build -o "$out/lbmserve" ./cmd/lbmserve
    "$out/lbmserve" -addr 127.0.0.1:18431 -data "$out/data" -workers 2 &
    pid=$!
    sleep 1
    curl -sf -X POST 127.0.0.1:18431/jobs -d \
        '{"tenant":"ci","case":{"name":"smoke","nx":12,"ny":10,"nz":6,"tau":0.7,"steps":400000},"decomp":"2x1","snapshot_every":2}' \
        >/dev/null
    sleep 1
    kill -TERM "$pid"
    wait "$pid"   # non-zero drain exit fails the tier via set -e
    test -s "$out/data/jobs.journal"
}

patch() {
    echo "== patch: patch decomposition + measured-throughput balancing =="
    # The whole patch suite — including the migration chaos tests that
    # kill an owner mid-step and the patch-wave contracts (records reused
    # from the third wave on, stale parity duplicates discarded, in-flight
    # corruption refused at reconstruction) — must hold under the race
    # detector.
    go test -race -count=1 -timeout 600s ./internal/patch
    # Every patch oracle: homogeneous core patches on the 2-D tiling and
    # the 3-D tilings (1x1x2, 1x2x2, 2x2x2), core+swlb+gpu workers
    # (the devices price AA steps), and the same roster with a forced
    # migration after every step, all bit-identical (MaxULP=0) to the
    # serial kernel across seeds.
    go run ./cmd/conform -seed 3 -cases 8 -run 'patch/'
    # Static contracts on the patch code: spans paired, no hot-loop
    # allocation regressions in the exchange/migration paths.
    go run ./cmd/lbmvet -rules hotalloc,spanpair ./internal/patch
    # The supervisor that drives patch worlds leaves no goroutine behind,
    # its cancel watcher included.
    go test -race -count=1 -run 'LeavesNoGoroutines' ./internal/psolve
}

trace() {
    echo "== trace smoke: traced chaos run + analysis round trip =="
    out=$(mktemp -d)
    trap 'rm -rf "$out"' RETURN
    go run ./cmd/sunwaylb -preset cavity -nx 24 -ny 24 -nz 24 -steps 60 \
        -decomp 2x2 -sunway \
        -checkpoint-every 20 -checkpoint "$out/state.cpk" -max-restarts 1 \
        -fault-plan 'seed=42;crash@rank=1,step=35;straggle@rank=3,x=3' \
        -trace "$out/run.trace.json"
    test -s "$out/run.trace.json"
    stat=$(go run ./cmd/postproc -tracestat "$out/run.trace.json")
    echo "$stat"
    # "events, valid" (not just "valid": INVALID traces print "INVALID"
    # but a substring grep for "valid" would still match them).
    echo "$stat" | grep -q "events, valid"
    echo "$stat" | grep -q "STRAGGLER rank 3"
    echo "$stat" | grep -q "fault-crash=1"
    # The supervised-trace integration test covers the same path under -race.
    go test -race -run TestSupervisedRunTraceTimeline -timeout 120s ./internal/psolve
}

case "${1:-all}" in
    tier1) tier1 ;;
    tier2) tier2 ;;
    race) race ;;
    conform) conform ;;
    analyze) analyze ;;
    perf) perf ;;
    chaos) chaos ;;
    serve) serve ;;
    trace) trace ;;
    patch) patch ;;
    bench) bench ;;
    all)   tier1; tier2; race; conform; analyze; perf; chaos; serve; trace; patch; bench ;;
    *) echo "usage: $0 [tier1|tier2|race|conform|analyze|perf|chaos|serve|trace|patch|bench|all]" >&2; exit 2 ;;
esac
echo "ok"
