"""One fresh interpreter of a benchmark run; started by ``run.py``.

Imports the package from ``src/``, builds the workload's inputs and set-up
objects, prints ``READY``, then (``--mode run``) makes whole passes over the
workload's operations until ``--seconds`` of timed work are done and at least
the workload's minimum number of passes ran (or exactly ``--passes``).
Every result is checked right after its timed span, outside it.  The last
stdout line is ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--passes", type=int, default=0, help="0: run until --seconds")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans", default=None, help="where the traced run writes its spans")
    p.add_argument("--extras", type=int, default=0,
                   help="1: also run the known-defect probes and the CLI reference")
    p.add_argument("--pause", type=int, default=0,
                   help="1: after each pass but the last, print PASS and wait for a line")
    p.add_argument("--smoke", type=int, default=0)
    return p.parse_args(argv)


def load_digests() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["ladder_digests"]


class Gate:
    """Tally of correctness checks by name."""

    def __init__(self):
        self.checks = {}

    def record(self, name, ok, residual=0.0):
        entry = self.checks.setdefault(name, {"passed": 0, "failed": 0, "worst": 0.0})
        entry["passed" if ok else "failed"] += 1
        entry["worst"] = max(entry["worst"], float(residual))
        return ok


def timed_phase(wl, args, gate, tracer):
    """Whole passes over the ops.  Each op is timed raw and also normalized
    by the host-speed samples taken at the op boundaries before and after it
    (the check runs after the second sample, outside the timed span)."""
    n = len(wl.ops)
    raw = {"latencies": [[] for _ in range(n)], "cpu": [[] for _ in range(n)]}
    norm = {"latencies": [[] for _ in range(n)], "cpu": [[] for _ in range(n)]}
    attempted = failed = passes = 0
    timed = 0.0

    def done():
        if args.passes:
            return passes >= args.passes
        return passes >= wl.min_passes and timed >= args.seconds

    while not done():
        before = hostspeed.sample(3)
        for i, op in enumerate(wl.ops):
            error = None
            if tracer:
                tracer.begin(op.label)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an op that raises is a failed op
                error = exc
            t1, c1 = time.perf_counter(), time.process_time()
            if tracer:
                tracer.end()
            after = hostspeed.sample(3)
            scale = hostspeed.factor(before, after)
            before = after
            for out, f in ((raw, 1.0), (norm, scale)):
                out["latencies"][i].append((t1 - t0) * f)
                out["cpu"][i].append((c1 - c0) * f)
            timed += t1 - t0
            attempted += 1
            if error is not None:
                gate.record(f"raised:{type(error).__name__}", False)
                failed += 1
                continue
            oks = [gate.record(name, ok, res) for name, ok, res in op.check(result)]
            failed += not all(oks)
            del result
        passes += 1
        if args.pause and not done():
            # let run.py take its set-up and CLI samples between passes
            print("PASS", flush=True)
            sys.stdin.readline()
    return {
        "passes": passes,
        "labels": [op.label for op in wl.ops],
        "raw": raw,
        "norm": norm,
        "attempted": attempted,
        "failed": failed,
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
    import workloads
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.begin("setup")
    digests = load_digests() if args.workload == "ladder" else {}
    wl = workloads.build(args.workload, args.seed, bool(args.smoke), digests)
    if tracer:
        tracer.end()
    print("READY " + json.dumps({"cli_argv": wl.cli_argv}), flush=True)
    if args.mode == "setup":
        return 0

    gate = Gate()
    out = timed_phase(wl, args, gate, tracer)
    out["probes"] = []
    out["cli"] = None
    if args.extras:
        out["probes"] = [list(p()) for p in wl.probes]
        expected = wl.cli_expected().encode()
        out["cli"] = {
            "argv": wl.cli_argv,
            "sha256": hashlib.sha256(expected).hexdigest(),
            "bytes": len(expected),
        }
    out["checks"] = gate.checks
    out["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["backend"] = workloads.backend()
    out["versions"] = workloads.versions()
    if tracer:
        out["trace"] = tracer.metrics()
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
