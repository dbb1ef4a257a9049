"""Self-test of the benchmark, on reduced inputs (``run.py --smoke``).

    python3 perfbench/selftest.py

From the root of a checkout, checks that for every workload in
BENCHMARK.json both kinds of run exit 0 and end with the result line; that
they emit exactly the metrics BENCHMARK.json names, with its units; that
every correctness check of the workload ran (and the ladder's two
known-defect probes); that count metrics repeat exactly for one seed; and
that the benchmark refuses to run where no sources are.
Exits 1 if any of that fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXPECTED_CHECKS = {
    "crosspath": ["formula_equals_product"],
    "ladder": ["entries_exact", "product_vs_oracle", "seed_commit_digest"],
    "float": ["product_vs_oracle"],
    "verify": [f"suite_{s}.passed" for s in
               ("rep", "polys", "racah_algebra", "bispectral", "hilbert")],
}
EXPECTED_PROBES = {"ladder": 2}

failures = []


def expect(cond, what):
    print(("PASS " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, trace, seed=1, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def parse(out):
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_run(spec, workload, trace):
    tag = f"{workload} trace={trace}"
    out = run(workload, trace)
    expect(out.returncode == 0, f"{tag}: exit code 0 (got {out.returncode})")
    if out.returncode != 0:
        print(out.stderr[-2000:])
        return None
    record, final = parse(out)
    expect(sorted(final) == ["attempted", "correct", "failed", "metrics"], f"{tag}: result keys")
    expect(final["correct"] is True and final["failed"] == 0, f"{tag}: correct, nothing failed")
    expect(isinstance(final["attempted"], int) and final["attempted"] >= 1, f"{tag}: attempted >= 1")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in final["metrics"].items()}
    expect(got == wanted, f"{tag}: metrics and units are exactly BENCHMARK.json's")
    values = [v["value"] for v in final["metrics"].values()]
    expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
           f"{tag}: every value a finite number")
    if not trace:
        expect(all(v > 0 for v in values), f"{tag}: every end-to-end value nonzero")
    for name in EXPECTED_CHECKS[workload]:
        c = record["checks"].get(name, {})
        expect(c.get("passed", 0) >= 1 and c.get("failed", 0) == 0,
               f"{tag}: check {name} ran and passed")
    expect(record["detail"]["cli"]["stdout_matches_in_process"], f"{tag}: CLI stdout matches")
    share = record["ops_failed_share"]
    n_probes = EXPECTED_PROBES.get(workload, 0)
    expect(share["probes"] == n_probes, f"{tag}: {n_probes} known-defect probes ran")
    env = record["environment"]
    expect(all(k in env for k in ("python", "numpy", "backend", "nproc", "GTROTOR_THREADS",
                                  "git_commit", "steal_ticks")), f"{tag}: environment record")
    return final


def check_counts_repeat(workload):
    a = run(workload, 1, seed=7)
    b = run(workload, 1, seed=7)
    if a.returncode or b.returncode:
        expect(False, f"{workload}: traced runs for the count check completed")
        return
    ma, mb = parse(a)[1]["metrics"], parse(b)[1]["metrics"]
    counts = [k for k, v in ma.items() if v["unit"] == "count"]
    expect(all(ma[k]["value"] == mb[k]["value"] for k in counts),
           f"{workload}: count metrics repeat exactly for one seed ({len(counts)} metrics)")


def check_refuses_without_sources():
    empty = os.path.join(ROOT, ".perfbench-out", "selftest-empty")
    shutil.rmtree(empty, ignore_errors=True)
    os.makedirs(empty)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
    shutil.copytree(HERE, os.path.join(empty, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run("ladder", 0, cwd=empty)
    shutil.rmtree(empty, ignore_errors=True)
    expect(out.returncode != 0 and not out.stdout.strip(),
           "without sources: nonzero exit and no result printed")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
        check_counts_repeat(w["name"])
    check_refuses_without_sources()
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
