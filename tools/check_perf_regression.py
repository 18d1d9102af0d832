#!/usr/bin/env python3
"""Gate single-thread engine throughput against the checked-in trajectory.

Usage:
    tools/check_perf_regression.py BENCH_engine.json BENCH_engine_throughput.json

Compares the fresh run's threads=1 cycles_per_sec (per num_sms config)
against the newest trajectory entry recorded on a host with the same
host_cores as the fresh run, so a 4-core runner is never gated against
1-core numbers. When no entry matches it warns and falls back to the
newest entry. It prints the label of the entry it used. Fails (exit 1)
if any config regressed by more than the tolerance (default 15%, override
with CRISP_PERF_TOLERANCE=0.25 etc.).

The checked-in numbers come from whatever host last blessed the
trajectory; CI runners are typically faster, so this gate catches code
regressions, not host variance in the other direction. When the runner is
genuinely slower than the blessing host, raise the tolerance rather than
re-blessing from CI.
"""

import json
import os
import sys


def single_thread_rates(configs):
    """{num_sms: cycles_per_sec at threads=1} for a configs array."""
    rates = {}
    for cfg in configs:
        for run in cfg.get("runs", []):
            if run.get("threads") == 1:
                rates[cfg["num_sms"]] = run["cycles_per_sec"]
                break
    return rates


def pick_reference(trajectory, host_cores):
    """Newest entry whose host_cores equals @host_cores, else the newest
    entry with a warning on stderr."""
    for entry in reversed(trajectory):
        if host_cores is not None and entry.get("host_cores") == host_cores:
            return entry
    print(f"warning: no trajectory entry has host_cores={host_cores}; "
          f"falling back to the newest entry", file=sys.stderr)
    return trajectory[-1]


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        trajectory_doc = json.load(f)
    with open(sys.argv[2]) as f:
        fresh_doc = json.load(f)

    trajectory = trajectory_doc.get("trajectory")
    if not trajectory:
        print(f"{sys.argv[1]}: no trajectory entries", file=sys.stderr)
        return 2
    reference = pick_reference(trajectory, fresh_doc.get("host_cores"))
    ref_rates = single_thread_rates(reference.get("configs", []))
    new_rates = single_thread_rates(fresh_doc.get("configs", []))
    if not ref_rates or not new_rates:
        print("missing threads=1 runs in reference or fresh results",
              file=sys.stderr)
        return 2

    tolerance = float(os.environ.get("CRISP_PERF_TOLERANCE", "0.15"))
    label = reference.get("label", "latest")
    print(f"reference: trajectory entry '{label}' "
          f"(host_cores={reference.get('host_cores')})")
    failed = False
    for num_sms, ref in sorted(ref_rates.items()):
        new = new_rates.get(num_sms)
        if new is None:
            print(f"num_sms={num_sms}: missing from fresh run (skipped)")
            continue
        ratio = new / ref
        status = "OK"
        if ratio < 1.0 - tolerance:
            status = "REGRESSION"
            failed = True
        print(f"num_sms={num_sms}: {new:.0f} vs {ref:.0f} c/s "
              f"({label}) -> {ratio:.2f}x  {status}")
    for num_sms in sorted(set(new_rates) - set(ref_rates)):
        # A config the benchmark grew after the last blessing has no
        # reference yet: it gains a gate once a trajectory entry records
        # it, never retroactively.
        print(f"num_sms={num_sms}: no reference in trajectory entry "
              f"'{label}' (warned, skipped)")
    if failed:
        print(f"single-thread throughput regressed more than "
              f"{tolerance:.0%} vs checked-in trajectory", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
