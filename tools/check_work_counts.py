#!/usr/bin/env python3
"""Gate crisp_sim's exact work counts against the checked-in values.

Usage:
    tools/check_work_counts.py CRISP_SIM [EXPECTED_JSON] [--update]

Runs `CRISP_SIM --scenario FILE --profile` for every scenario named in
EXPECTED_JSON (default tools/expected_work_counts.json, scenario paths
relative to the repository root) and compares the "simulator work counts
(exact)" table, one value per device, at zero tolerance. The counts are
what the run loop did (ticks, SM steps, issue tries, retry offers, ...):
they repeat exactly between runs and builds of the same code, so unlike a
wall-clock bound they cannot flake. A change that moves them re-blesses
them with --update and says why in CHANGES.md, as for the goldens.

Exits 1 on any missing, extra or different count.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = "simulator work counts (exact):"


def work_counts(crisp_sim, scenario):
    """{count name: [value per device]} from one --profile run."""
    out = subprocess.run(
        [crisp_sim, "--scenario", scenario, "--profile", "--quiet"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    if HEADER not in lines:
        raise SystemExit(f"{scenario}: no work-count table in the output")
    counts = {}
    # The table: a header row, a rule, then one row per count.
    for line in lines[lines.index(HEADER) + 3:]:
        fields = line.split()
        if not fields or not all(f.isdigit() for f in fields[1:]):
            break
        counts[fields[0]] = [int(f) for f in fields[1:]]
    return counts


def main(argv):
    update = "--update" in argv
    args = [a for a in argv[1:] if a != "--update"]
    if not 1 <= len(args) <= 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    crisp_sim = os.path.abspath(args[0])
    expected_path = args[1] if len(args) == 2 else os.path.join(
        ROOT, "tools", "expected_work_counts.json")
    with open(expected_path) as f:
        expected = json.load(f)

    failures = 0
    for scenario, want in expected["scenarios"].items():
        got = work_counts(crisp_sim, scenario)
        if update:
            expected["scenarios"][scenario] = got
            print(f"{scenario}: blessed {len(got)} counts")
            continue
        wrong = [name for name in sorted(set(want) | set(got))
                 if want.get(name) != got.get(name)]
        for name in wrong:
            print(f"{scenario}: {name} expected {want.get(name)}, "
                  f"got {got.get(name)}")
        if not wrong:
            print(f"{scenario}: {len(got)} counts match")
        failures += len(wrong)
    if update:
        text = json.dumps(expected, indent=2)
        # One line per count: [125198] rather than a bracket per line.
        text = re.sub(r"\[\s*([0-9,\s]*?)\s*\]",
                      lambda m: "[" + ", ".join(m.group(1).split()).replace(
                          ",,", ",") + "]", text)
        with open(expected_path, "w") as f:
            f.write(text + "\n")
        return 0
    if failures:
        print(f"work counts: {failures} mismatch(es); if the change is "
              "intended, re-bless with --update and explain it in "
              "CHANGES.md", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
