#!/usr/bin/env bash
# Full local gate: everything CI would run. Referenced from README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> block-phase golden (merges, moves and blocks pinned per model)"
# run on its own first, so a change that alters any block is reported as
# block-phase drift rather than as a downstream plan difference
cargo test -q --offline --test block_golden \
    || { echo "FAILED: block phase drifted from tests/block_golden.rs"; exit 1; }

echo "==> cargo test"
cargo test -q --workspace --offline

echo "==> formula-ownership gate (collective math only in rannc-hw / rannc-cost)"
# every comm/collective-time formula lives behind the CostModel layer;
# nothing outside rannc-hw / rannc-cost may call the ring formula directly
if grep -rn --include='*.rs' "ring_allreduce_time" crates tests examples \
    | grep -v '^crates/hw/' | grep -v '^crates/cost/'; then
    echo "FAILED: ring_allreduce_time referenced outside rannc-hw/rannc-cost"
    exit 1
fi
# the Megatron column/row-parallel split formulas have exactly one owner
# (rannc-cost's tensor module); the Megatron baseline may sweep
# megatron_partition but must never reimplement the math. The baseline's
# test module keeps one sanctioned verbatim copy — the parity test that
# pins the moved formulas bit-identical to the pre-move owner.
if grep -rn --include='*.rs' "ALLOCATOR_OVERHEAD" crates tests examples \
    | grep -v '^crates/cost/' | grep -v '^crates/baselines/src/megatron.rs'; then
    echo "FAILED: Megatron split math referenced outside rannc-cost"
    exit 1
fi
if grep -rn --include='*.rs' "megatron_partition" crates tests examples \
    | grep -v '^crates/cost/' | grep -v '^crates/baselines/src/megatron.rs'; then
    echo "FAILED: megatron_partition called outside rannc-cost / the Megatron baseline"
    exit 1
fi

echo "==> one-path gate (one DP, one search, one campaign engine, no cost-model wrapper, one planner benchmark, one counter source, one issue order)"
# rannc-core exports one DP entry point (form_stage_dp) and one search
# entry point (form_stage_with); the slow references live in test
# support (crates/core/tests/support/reference.rs), the analytical
# cost model is the Profiler itself, and fault plans run on the churn
# campaign engine (simulate_churn) rather than a second simulator
if grep -rnE --include='*.rs' \
    "form_stage_dp_[a-z]|form_stage_seq|shared_cache|AnalyticalCost|simulate_faulted|FaultSimConfig|FaultSimReport|RecoveryPolicy" \
    crates/*/src; then
    echo "FAILED: duplicate DP/search/campaign entry point or cost-model wrapper in crates/*/src"
    exit 1
fi
# planner counters have one source, the per-run SearchStats/CacheStats
# (published to the metrics registry once, never read back from it), the
# profiler memo claims each key under one shard lock, and pipeline issue
# orders are built by rannc-verify's ScheduleModel alone (the bracket
# expressions keep this line from matching itself)
if grep -rnE --include='*.rs' \
    "render[_]registry|cache_nums_from[_]registry|lock[_]memo|shard[_]sizes|max[_]shard|Search[T]ally|sync_work[_]orders|Work[K]ind" \
    crates/*/src; then
    echo "FAILED: a second planner-counter source or a second pipeline issue order in crates/*/src"
    exit 1
fi
# planner wall time is measured by perfbench/ alone; the retired second
# planner benchmark, its report file and its library module must not
# come back (the bracket expressions keep this line from matching itself)
if grep -rnE "planner[_]bench|BENCH[_]partition|rannc_bench::planne[r]" \
    crates scripts tests; then
    echo "FAILED: second planner benchmark referenced under crates/, scripts/ or tests/"
    exit 1
fi

echo "==> block-phase adjacency gate (CSR neighbour tables only)"
# the block phase reads neighbours from ConvexChecker's CSR tables; the
# allocating per-task graph queries (a fresh sorted Vec per call) must
# not come back into its hot loops
if grep -n "task_successors(\|task_predecessors(" \
    crates/core/src/coarsen.rs crates/core/src/uncoarsen.rs \
    crates/core/src/compact.rs crates/core/src/blocks.rs \
    crates/graph/src/convex.rs; then
    echo "FAILED: allocating successor/predecessor query on the block path"
    exit 1
fi

echo "==> verifier smoke-gate (rannc-plan verify --deep, all models x 16/32 devices)"
# --deep adds the dataflow-certified layer: liveness-certified peak
# memory within capacity and a race-free derived communication program
# under both pipeline schedules.
for nodes in 2 4; do
    for model in mlp bert gpt t5 resnet; do
        case "$model" in
            mlp)    flags="--hidden 256 --layers 8" ;;
            resnet) flags="--layers 50 --width-factor 1" ;;
            *)      flags="--hidden 256 --layers 4" ;;
        esac
        # shellcheck disable=SC2086
        ./target/release/rannc-plan verify --model "$model" $flags \
            --nodes "$nodes" --batch 256 --k 8 --deep >/dev/null \
            || { echo "deep verify FAILED: $model on $nodes nodes"; exit 1; }
        echo "    deep verify clean: $model on $nodes node(s)"
    done
done

echo "==> tensor-parallel smoke (3D sweep picks T>1, deep-verifies, beats 2D)"
# Megatron-regime configuration: mini-batch 4 on one 8-GPU node, so data
# parallelism alone cannot occupy the node — the (S, MB, T) sweep must
# shard the stage, and the plan must survive the deep verifier's RV07x
# tensor-parallel checks. The quantitative half of this gate (3D beats
# the best 2D plan's simulated iteration) is the integration test
# tests/end_to_end.rs::tensor_parallel_plan_beats_the_best_2d_plan.
./target/release/rannc-plan verify --model bert --hidden 1024 --layers 4 \
    --nodes 1 --batch 4 --k 8 --tp-max 4 --deep >/dev/null \
    || { echo "tensor-parallel deep verify FAILED"; exit 1; }
TP_PLAN="$(./target/release/rannc-plan --model bert --hidden 1024 --layers 4 \
    --nodes 1 --batch 4 --k 8 --tp-max 4)"
if ! echo "$TP_PLAN" | grep -q "tensor"; then
    echo "3D sweep never chose T>1 on the Megatron-regime case"; exit 1
fi
# with --tp-max 1 the same config must reproduce the historical 2D plan
# (no tensor-parallel stage anywhere in the summary)
TP1_PLAN="$(./target/release/rannc-plan --model bert --hidden 1024 --layers 4 \
    --nodes 1 --batch 4 --k 8 --tp-max 1)"
if echo "$TP1_PLAN" | grep -q "tensor"; then
    echo "2D search (--tp-max 1) printed a tensor-parallel stage"; exit 1
fi
echo "    tensor-parallel smoke clean: T>1 chosen, deep verify passed, 2D unchanged"

echo "==> paper-scale smoke (bert-256l at 128 devices, 120 s budget, 1 vs 4 threads)"
# a ~7.4k-task BERT planned at 128 devices must finish well inside the
# wall-clock budget, and the sweep's worker count must not change the
# plan: the saved plans at 1 and 4 threads are byte-identical
PAPER_TMP="$(mktemp -d)"
trap 'rm -rf "$PAPER_TMP"' EXIT
for threads in 1 4; do
    timeout 120 ./target/release/rannc-plan --model bert --hidden 2048 \
        --layers 256 --nodes 16 --batch 1024 --k 32 --threads "$threads" \
        --save "$PAPER_TMP/plan_t$threads.rncp" >/dev/null 2>&1 \
        || { echo "paper-scale plan FAILED at $threads thread(s) (or blew the 120 s budget)"; exit 1; }
done
cmp "$PAPER_TMP/plan_t1.rncp" "$PAPER_TMP/plan_t4.rncp" \
    || { echo "paper-scale plan differs between 1 and 4 threads"; exit 1; }
echo "    paper-scale smoke clean: plans identical at 1 and 4 threads"

echo "==> mismatched-plan smoke (a saved plan offered for another model)"
# a plan whose stage sets range over another graph's tasks must be
# rejected with a message and exit 1, with or without a device loss
for extra in "" "--lose-device 3"; do
    status=0
    # shellcheck disable=SC2086
    ./target/release/rannc-plan --model bert --hidden 256 --layers 4 \
        --nodes 2 --batch 64 --k 8 --load "$PAPER_TMP/plan_t1.rncp" $extra \
        >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 1 ]; then
        echo "mismatched plan ${extra:+with $extra }exited $status, expected 1"; exit 1
    fi
done
rm -rf "$PAPER_TMP"
echo "    mismatched-plan smoke clean: rejected with exit 1"

echo "==> observability smoke (trace + metrics export, validated by obs-check)"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
./target/release/rannc-plan --model bert --hidden 256 --layers 4 \
    --nodes 2 --batch 64 --k 8 \
    --trace-out "$OBS_TMP/trace.json" --metrics-out "$OBS_TMP/metrics.jsonl" \
    >/dev/null 2>&1 \
    || { echo "obs export FAILED"; exit 1; }
./target/release/rannc-plan obs-check \
    --trace "$OBS_TMP/trace.json" --metrics "$OBS_TMP/metrics.jsonl" \
    || { echo "obs-check FAILED"; exit 1; }

echo "==> explain smoke (flight recorder -> explain -> device-loss diff)"
# plan with the flight recorder on, render the artifact, replan after a
# device loss, and attribute the delta; a corrupted artifact must be
# rejected with a nonzero exit.
./target/release/rannc-plan --model bert --hidden 256 --layers 4 \
    --nodes 2 --batch 64 --k 8 \
    --explain-out "$OBS_TMP/explain_a.json" >/dev/null 2>&1 \
    || { echo "explain recording FAILED"; exit 1; }
./target/release/rannc-plan explain "$OBS_TMP/explain_a.json" >/dev/null \
    || { echo "explain rendering FAILED"; exit 1; }
./target/release/rannc-plan --model bert --hidden 256 --layers 4 \
    --nodes 2 --batch 64 --k 8 --lose-device 0 \
    --explain-out "$OBS_TMP/explain_b.json" >/dev/null 2>&1 \
    || { echo "explain recording after device loss FAILED"; exit 1; }
./target/release/rannc-plan explain --diff \
    "$OBS_TMP/explain_a.json" "$OBS_TMP/explain_b.json" >/dev/null \
    || { echo "explain --diff FAILED"; exit 1; }
head -c 120 "$OBS_TMP/explain_a.json" > "$OBS_TMP/explain_corrupt.json"
if ./target/release/rannc-plan explain "$OBS_TMP/explain_corrupt.json" \
    >/dev/null 2>&1; then
    echo "explain accepted a corrupted artifact"; exit 1
fi

echo "==> faults smoke (README fault campaign on the churn engine, traced)"
# the README's faults command: a device loss and a straggler, run under
# degrade-in-place and replan-always; the trace it emits must validate
./target/release/rannc-plan faults --model mlp --hidden 64 --layers 8 \
    --nodes 2 --batch 32 --k 8 --fail 0@50000 --straggler 3@2.0 \
    --trace-out "$OBS_TMP/faults_trace.json" >/dev/null \
    || { echo "faults campaign FAILED"; exit 1; }
./target/release/rannc-plan obs-check --trace "$OBS_TMP/faults_trace.json" \
    || { echo "faults obs-check FAILED"; exit 1; }

echo "==> churn smoke (seeded 50-event campaign, all policies, verified plans)"
# bert at 16 devices under a seeded 50-event churn stream: the campaign
# must complete (every adopted plan passes VerifyMode::Fail inside the
# planner) and the obs trace it emits must validate.
./target/release/rannc-plan churn --model bert --hidden 256 --layers 4 \
    --nodes 2 --batch 64 --k 8 --events 50 --seed 7 \
    --save-trace "$OBS_TMP/churn_events.json" \
    --trace-out "$OBS_TMP/churn_trace.json" \
    >/dev/null \
    || { echo "churn campaign FAILED"; exit 1; }
# the saved event stream must replay to the same campaign
./target/release/rannc-plan churn --model bert --hidden 256 --layers 4 \
    --nodes 2 --batch 64 --k 8 --churn-trace "$OBS_TMP/churn_events.json" \
    --policy adaptive >/dev/null \
    || { echo "churn trace replay FAILED"; exit 1; }
./target/release/rannc-plan obs-check --trace "$OBS_TMP/churn_trace.json" \
    || { echo "churn obs-check FAILED"; exit 1; }

echo "==> cargo clippy"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "All checks passed."
