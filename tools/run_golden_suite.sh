#!/usr/bin/env bash
# Run every CSV-producing fig/table bench from the repository root and
# compare the outputs against the checked-in goldens (goldens/*.csv).
#
# Usage:
#   tools/run_golden_suite.sh BUILD_DIR            # check against goldens
#   tools/run_golden_suite.sh BUILD_DIR --update   # bless current outputs
#
# Each bench is checked against the specific CSVs it produces, so the
# suite can print a per-bench pass/fail summary and name the first
# diverging bench in its failure message. The check appends per-column
# diffs to golden_diff.txt (CI uploads it as an artifact on failure).
# Benches run with the counter audit enabled at its default cadence
# (see bench_util.hpp), so a conservation violation fails the suite
# even before the CSV diff does.
#
# Every bench runs under timeout(1) (BENCH_TIMEOUT seconds, default
# 600), so a hung bench fails the suite with its name instead of
# wedging CI until the runner-level kill — which reports nothing.
set -euo pipefail

BUILD=${1:?usage: tools/run_golden_suite.sh BUILD_DIR [--update]}
MODE=${2:-}
BENCH_TIMEOUT=${BENCH_TIMEOUT:-600}
cd "$(dirname "$0")/.."

# If anything aborts the suite mid-bench (set -e, a signal, the
# runner's own kill), name the bench in flight: a suite that dies
# silently is indistinguishable from a hung one.
current_bench=""
on_exit() {
    local rc=$?
    if [ "${rc}" -ne 0 ] && [ -n "${current_bench}" ]; then
        echo "golden suite aborted (exit ${rc}) while running:" \
            "${current_bench}" >&2
    fi
}
trap on_exit EXIT

# bench executable -> the CSV files it writes.
BENCHES=(
    table2_configs
    fig3_vertex_invocations
    fig6_frametime_correlation
    fig6b_pcie_anomaly
    fig9_l1tex_lod
    fig10_texlines_histogram
    fig11_l2_composition
    fig12_warped_slicer
    fig13_occupancy_timeline
    fig14_tap
    fig15_tap_l2_composition
    fig16_mgpu_occupancy
    fig17_interconnect
    ablation_pipeline
    ablation_memory
    scenario_suite
)
declare -A BENCH_CSVS=(
    [table2_configs]="table2_configs.csv"
    [fig3_vertex_invocations]="fig3_vertex_invocations.csv fig3_batch_sweep.csv"
    [fig6_frametime_correlation]="fig6_frametime.csv"
    [fig6b_pcie_anomaly]="fig6b_pcie.csv"
    [fig9_l1tex_lod]="fig9_l1tex.csv"
    [fig10_texlines_histogram]="fig10_texlines.csv"
    [fig11_l2_composition]="fig11a_pistol.csv fig11b_sponza.csv"
    [fig12_warped_slicer]="fig12_warped_slicer.csv"
    [fig13_occupancy_timeline]="fig13_occupancy.csv"
    [fig14_tap]="fig14_tap.csv"
    [fig15_tap_l2_composition]="fig15_tap_l2.csv"
    [fig16_mgpu_occupancy]="fig16_mgpu_occupancy.csv"
    [fig17_interconnect]="fig17_interconnect.csv"
    [ablation_pipeline]="ablation_batching.csv ablation_overlap.csv ablation_lod.csv"
    [ablation_memory]="ablation_l1.csv ablation_l2bw.csv ablation_mshr.csv ablation_sectors.csv"
    [scenario_suite]="scenario_suite.csv"
)

declare -A RESULT=()
first_failure=""

note_failure() {
    RESULT[$1]="FAIL ($2)"
    if [ -z "${first_failure}" ]; then
        first_failure=$1
    fi
}

: > golden_diff.txt
for b in "${BENCHES[@]}"; do
    echo "== ${b}"
    current_bench=${b}
    rc=0
    timeout --foreground "${BENCH_TIMEOUT}" "${BUILD}/bench/${b}" \
        > /dev/null || rc=$?
    # timeout(1): 124 = timed out (SIGTERM), 137 = 128+SIGKILL (the
    # --kill-after escalation or the OOM killer).
    if [ "${rc}" -eq 124 ] || [ "${rc}" -eq 137 ]; then
        note_failure "${b}" "hung: killed after ${BENCH_TIMEOUT}s"
        continue
    elif [ "${rc}" -ne 0 ]; then
        note_failure "${b}" "crashed: exit ${rc}"
        continue
    fi
    # shellcheck disable=SC2206  # deliberate word split: list of CSVs
    csvs=(${BENCH_CSVS[$b]})
    if [ "${MODE}" = "--update" ]; then
        if ! "${BUILD}/tools/golden_check" --goldens goldens --update \
                "${csvs[@]}"; then
            note_failure "${b}" "golden update failed"
            continue
        fi
    else
        if ! "${BUILD}/tools/golden_check" --goldens goldens \
                --tolerances goldens/tolerances.csv "${csvs[@]}" \
                | tee -a golden_diff.txt; then
            note_failure "${b}" "diverges from golden"
            continue
        fi
    fi
    RESULT[$b]="PASS"
done
current_bench=""

echo
echo "== golden suite summary"
for b in "${BENCHES[@]}"; do
    printf '%-28s %s\n' "${b}" "${RESULT[$b]}"
done

if [ -n "${first_failure}" ]; then
    echo "golden suite FAILED: first diverging bench: ${first_failure}" \
        "(${RESULT[$first_failure]})" >&2
    exit 1
fi
echo "golden suite: all ${#BENCHES[@]} benches match"
