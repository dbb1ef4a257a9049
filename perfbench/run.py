"""gtrotor benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {crosspath,ladder,float,verify} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  Every measurement is taken from outside the
package, through its public functions, in fresh interpreters started by this
script (``worker.py``):

* ``--trace 0`` prints the end-to-end metrics.  The measuring worker times
  every operation and checks every result outside the timed span; set-up-only
  workers, started between its passes, give the set-up time.  Operation
  times are normalized for host speed (``hostspeed.py``); the raw ones are in
  the record.  One cold CLI call must print exactly what the in-process
  result serializes to.
* ``--trace 1`` prints the per-layer metrics: one untraced and one traced
  worker run the same single pass, the traced one with the package's entry
  points wrapped (``tracer.py``); their ratio is the tracing overhead.  Cold
  CLI calls and imports time the CLI layer.  Spans go to ``.perfbench-out/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full record (environment, sample counts, raw
times, check tallies, known-defect probes).  Exit code 0 means the run
completed; the result's ``correct`` says whether every check passed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from tracer import METRICS as TRACER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench-out"

WORKLOADS = ("crosspath", "ladder", "float", "verify")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_s": "s",
    "rss_peak_mb": "MB",
}
SETUP_SAMPLES = 7
CLI_SAMPLES = 5
VERIFY_MIN_PASSES = 2
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The run cannot produce a result (missing sources, a worker died)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced input sizes, for the self-test")
    return p.parse_args(argv)


# -- environment --------------------------------------------------------------


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "gtrotor", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "GTROTOR_THREADS": os.environ.get("GTROTOR_THREADS"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# -- subprocesses -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class Clock:
    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)


def run_worker(clock, args, mode, on_pass=None, **opts):
    """Start a fresh worker; returns (set-up seconds, READY info, RESULT).

    Set-up time runs from just before the interpreter starts until the
    worker reports READY: import, input generation and set-up objects.
    With ``on_pass``, the worker pauses after each pass but the last and
    ``on_pass(ready_info)`` runs while it waits."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed",
           str(args.seed), "--mode", mode, "--smoke", str(int(args.smoke)),
           "--pause", str(int(on_pass is not None))]
    for key, value in opts.items():
        cmd += [f"--{key}", str(value)]
    if clock.left() <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=child_env())
    timer = threading.Timer(clock.left(), proc.kill)
    timer.start()
    setup_s = info = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY"):
                setup_s = time.perf_counter() - t0
                info = json.loads(line[len("READY"):])
            elif line.startswith("PASS"):
                on_pass(info)
                proc.stdin.write("\n")
                proc.stdin.flush()
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if code != 0 or setup_s is None or (mode == "run" and result is None):
        raise BenchError(f"worker {mode} failed with exit code {code}")
    return setup_s, info, result


def run_cli(clock, argv):
    """One cold ``python -m gtrotor.cli`` call; returns its stdout."""
    if clock.left() <= 0:
        raise BenchError("out of time before a CLI call")
    out = subprocess.run([sys.executable, "-m", "gtrotor.cli", *argv],
                         capture_output=True, env=child_env(), timeout=clock.left())
    if out.returncode != 0:
        raise BenchError(f"CLI exited {out.returncode}: {out.stderr.decode()[-300:]}")
    return out.stdout


def cold_import(clock):
    subprocess.run([sys.executable, "-c", "import gtrotor.cli"], check=True,
                   env=child_env(), timeout=max(1.0, clock.left()))


# -- statistics ---------------------------------------------------------------


def merge_passes(results, kind):
    """Per-input latency and CPU lists (``kind`` 'raw' or 'norm'), pooled
    over every worker's passes."""
    lat = [list(x) for x in results[0][kind]["latencies"]]
    cpu = [list(x) for x in results[0][kind]["cpu"]]
    for r in results[1:]:
        for i, xs in enumerate(r[kind]["latencies"]):
            lat[i] += xs
            cpu[i] += r[kind]["cpu"][i]
    return lat, cpu


def timed_total(result, kind="norm") -> float:
    return sum(map(sum, result[kind]["latencies"]))


def statistics_of(lat, cpu, setups, rss):
    passes = range(len(lat[0]))
    per_pass_wall = [sum(xs[p] for xs in lat) for p in passes]
    per_pass_cpu = [sum(xs[p] for xs in cpu) for p in passes]
    # each input's latency is the median over its repetitions
    per_input = [statistics.median(xs) for xs in lat]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / statistics.median(per_pass_wall),
        "op_p50_ms": 1000.0 * statistics.median(per_input),
        "op_tail_ms": 1000.0 * max(per_input),
        "cpu_s": statistics.median(per_pass_cpu),
        "rss_peak_mb": rss,
    }


def end_to_end(results, setups):
    """Metrics from host-normalized times; the raw ones go in the record.

    A cold interpreter start is too short and too much start-up work for the
    kernel samples around it to track, so set-up times are normalized by the
    run's mean host-speed factor, measured around its operations."""
    rss = max(r["rss_peak_mb"] for r in results)
    lat, cpu = merge_passes(results, "norm")
    raw_lat, raw_cpu = merge_passes(results, "raw")
    scale = sum(map(sum, lat)) / sum(map(sum, raw_lat))
    values = statistics_of(lat, cpu, [s * scale for s in setups], rss)
    raw = statistics_of(raw_lat, raw_cpu, setups, rss)
    passes = len(lat[0])
    counts = {
        "setup_s": len(setups),
        "ops_per_s": passes,
        "op_p50_ms": passes * len(lat),
        "op_tail_ms": passes,
        "cpu_s": passes,
        "rss_peak_mb": len(results),
    }
    labels = results[0]["labels"]
    per_input = [statistics.median(xs) for xs in lat]
    slowest = max(range(len(per_input)), key=per_input.__getitem__)
    detail = {
        "passes": passes,
        "inputs_per_pass": len(lat),
        "timed_s": sum(map(sum, raw_lat)),
        "cpu_share": sum(map(sum, raw_cpu)) / sum(map(sum, raw_lat)),
        "host_speed_scale": scale,
        "raw": raw,
        "op_p50": {"of": "per-input medians", "inputs": len(lat)},
        "op_tail": {"percentile_of_inputs": 100.0, "input": labels[slowest],
                    "repetitions": passes},
        "per_input_median_ms": {labels[i]: 1000.0 * v for i, v in enumerate(per_input)},
    }
    return values, counts, detail


def tally(results):
    checks = {}
    for r in results:
        for name, c in r["checks"].items():
            e = checks.setdefault(name, {"passed": 0, "failed": 0, "worst": 0.0})
            e["passed"] += c["passed"]
            e["failed"] += c["failed"]
            e["worst"] = max(e["worst"], c["worst"])
    return checks


# -- the two kinds of run -----------------------------------------------------


def timed(run):
    """(wall seconds, value) of ``run()``."""
    t0 = time.perf_counter()
    value = run()
    return time.perf_counter() - t0, value


class SetupSamples:
    """Set-up times of set-up-only workers, taken one at a time between
    passes so they meet different moments of a noisy host, not one burst."""

    def __init__(self, clock, args):
        self.clock, self.args = clock, args
        self.values = []

    def take(self, _info=None, final=False):
        while len(self.values) < SETUP_SAMPLES:
            self.values.append(run_worker(self.clock, self.args, "setup")[0])
            if not final:
                return


def check_cli(clock, info, reference, count):
    """Cold CLI calls; (wall seconds, every stdout equals the in-process one, bytes)."""
    walls, ok, size = [], True, 0
    for _ in range(count):
        wall, stdout = timed(lambda: run_cli(clock, info["cli_argv"]))
        walls.append(wall)
        ok &= hashlib.sha256(stdout).hexdigest() == reference["sha256"]
        size = len(stdout)
    return walls, ok, size


def measure(clock, args):
    """Untraced run: end-to-end metrics."""
    samples = SetupSamples(clock, args)
    results = []
    if args.workload == "verify":
        # one cold interpreter per pass, since a second pass in the same
        # process would find every basis memo warm
        timed_s = 0.0
        while len(results) < VERIFY_MIN_PASSES or timed_s < args.seconds:
            if results:
                samples.take()
            _, info, r = run_worker(clock, args, "run", passes=1, extras=int(not results))
            results.append(r)
            timed_s += timed_total(r, "raw")
    else:
        _, info, r = run_worker(clock, args, "run", on_pass=samples.take,
                                seconds=args.seconds, extras=1)
        results.append(r)
    samples.take(final=True)
    _, cli_ok, size = check_cli(clock, info, results[0]["cli"], 1)
    values, counts, detail = end_to_end(results, samples.values)
    detail["cli"] = {"argv": info["cli_argv"], "stdout_bytes": size,
                     "stdout_matches_in_process": cli_ok}
    return results, values, counts, detail, cli_ok


def trace(clock, args):
    """Traced run: per-layer metrics from one traced pass, with its overhead
    against one untraced pass of the same inputs, and the CLI layer timed
    from cold processes."""
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    _, info, plain = run_worker(clock, args, "run", passes=1, extras=1)
    _, _, traced = run_worker(clock, args, "run", passes=1, trace=1, spans=spans)
    walls, cli_ok, size = check_cli(clock, info, plain["cli"], CLI_SAMPLES)
    imports = [timed(lambda: cold_import(clock))[0] for _ in range(CLI_SAMPLES)]
    t_plain, t_traced = timed_total(plain), timed_total(traced)
    values = dict(traced["trace"])
    values["cli.command_s"] = statistics.median(walls)
    values["cli.import_s"] = statistics.median(imports)
    values["cli.stdout_bytes"] = size
    values["trace.overhead_share"] = t_traced / t_plain - 1.0
    detail = {"untraced_pass_s": t_plain, "traced_pass_s": t_traced,
              "spans": traced["spans"], "spans_file": spans,
              "cli": {"argv": info["cli_argv"], "stdout_matches_in_process": cli_ok}}
    return [plain, traced], values, detail, cli_ok


def per_layer_units() -> dict:
    return {**TRACER_METRICS, "cli.command_s": "s", "cli.import_s": "s",
            "cli.stdout_bytes": "count", "trace.overhead_share": "ratio"}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join("src", "gtrotor", "__init__.py")):
        print("error: run from the root of a gtrotor checkout (src/gtrotor missing)",
              file=sys.stderr)
        return 2
    clock = Clock()
    ticks0 = cpu_ticks()
    env = environment()
    try:
        if args.trace:
            results, values, detail, cli_ok = trace(clock, args)
            units = per_layer_units()
            samples = {}
        else:
            results, values, samples, detail, cli_ok = measure(clock, args)
            units = END_TO_END
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ticks1 = cpu_ticks()

    checks = tally(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    probes = [p for r in results for p in r["probes"]]
    probe_failed = sum(1 for p in probes if not p[1])
    correct = (failed == 0 and cli_ok
               and all(c["failed"] == 0 for c in checks.values()))
    env.update(backend=results[0]["backend"], **results[0]["versions"])
    if ticks0 and ticks1:
        env["steal_ticks"] = ticks1[0] - ticks0[0]
        env["steal_share"] = (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, n in samples.items():
        metrics[name]["samples"] = n
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "metrics": metrics,
        "ops_failed_share": {
            "value": (failed + probe_failed) / (attempted + len(probes)),
            "failed": failed + probe_failed,
            "attempted": attempted + len(probes),
            "probes_failed": probe_failed,
            "probes": len(probes),
        },
        "probes": probes,
        "checks": checks,
        "detail": detail,
        "wall_s": time.perf_counter() - clock.start,
    }
    print(json.dumps(record))
    final = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
