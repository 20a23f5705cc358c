"""kaninj benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is measured from outside by
one closed-loop caller: a single process with one BLAS thread, issuing
the next call when the previous one returns.  Workloads are defined in
workloads.py; every output is checked against closed forms and against
the digests in reference.json, and a call that raises or fails its
check counts as failed.

Each repetition (set-up plus one full pass) runs in a fresh interpreter
(worker.py), so no cache carries from one repetition to the next.
A repetition starts only while it is expected to end within S seconds
(judged by the median length of the ones before), and at least one runs.
Set-up is repeated in set-up-only interpreters until there are
MIN_SETUPS samples.  Figures are medians over repetitions.  op_p50_ms is
the Harrell-Davis median over the calls of a pass of each call's median
latency across passes; the tail percentile pools all calls of all
passes.

Every time is in seconds at the fixed reference speed of calibrate.py.
On a shared VM the speed of a vCPU can change by half for minutes at a
time, and scaling each stretch of a repetition by calibration samples
taken every half second takes most of that out.  The times as measured
are printed and recorded beside them.

With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 untraced and traced repetitions alternate
and the result carries its per-layer metrics, self times from the traced
ones and the tracing overhead as traced minus untraced pass time.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}.  The lines before it give every figure with its unit and the
provenance; the full record is written to perfbench/out/, and the spans
of the last traced pass to perfbench/out/<workload>-spans.json.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("reflect-small", "reflect-wide", "extend-sweep", "verify-suites")
MIN_SETUPS = 3
# every child must end before the whole run reaches this many seconds
RUN_LIMIT_S = 170.0
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the library sources, naming the measured code where
    there is no commit to name it."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "kaninj")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode]
    if mode == "trace":
        cmd.append(os.path.join(OUT, f"{workload}-spans.json"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next repetition")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} repetition did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} repetition exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def hd_median(xs: list) -> float:
    """Harrell-Davis estimate of the median of xs: the mean of the order
    statistics, each weighted by the Beta((n+1)/2, (n+1)/2) mass of its
    1/n-wide interval (taken by the midpoint rule).  Unlike the sample
    median it does not jump when the middle values are few and far apart,
    as with the twelve suites of verify-suites, whose costs differ by up
    to 80x; a pooled median there fell in the gap between two suites and
    moved by 15-27 % from run to run."""
    xs = sorted(xs)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    steps = 32
    weights = []
    for i in range(n):
        ts = ((i * steps + k + 0.5) / (n * steps) for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t * (1 - t))) for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def op_p50(passes: list) -> float:
    """Median call latency in seconds: the Harrell-Davis median over the
    calls of each call's median latency across passes.  Every pass makes
    the same calls in the same order."""
    return hd_median([median(c) for c in zip(*(r["latencies"] for r in passes))])


def tail(latencies: list, calls_per_pass: int):
    """(value, percentile, samples beyond) at the highest percentile with
    at least ten samples beyond it; None when a pass has under 11 calls."""
    if calls_per_pass < 11:
        return None
    ordered = sorted(latencies)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "kaninj", "__init__.py")):
        print(f"no kaninj sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    modes = ("pass", "trace") if args.trace else ("pass",)
    done = {m: [] for m in modes}
    setups = []
    lengths = []  # wall seconds of each repetition, interpreter start-up included
    k = 0
    while not lengths or any(not v for v in done.values()) or (
        time.monotonic() - start + median(lengths) <= args.seconds
    ):
        mode = modes[k % len(modes)]
        k += 1
        t = time.monotonic()
        rep = run_child(args.workload, args.seed, mode, deadline)
        lengths.append(time.monotonic() - t)
        done[mode].append(rep)
        setups.append(rep)
    while len(setups) < MIN_SETUPS:
        setups.append(run_child(args.workload, args.seed, "setup", deadline))

    passes = done["pass"]
    reps = [r for v in done.values() for r in v]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    latencies = [x for r in passes for x in r["latencies"]]
    calls_per_pass = passes[0]["attempted"]
    pass_s = median([r["pass_s"] for r in passes])
    e2e = {
        "pass_s": pass_s,
        "op_p50_ms": 1000.0 * op_p50(passes),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in passes]),
        "setup_s": median([r["setup_s"] for r in setups]),
        "fail_frac": failed / attempted,
    }
    measured = {
        "pass_scale": median([r["pass_scale"] for r in passes]),
        "pass_s": median([r["measured"]["pass_s"] for r in passes]),
        "setup_s": median([r["measured"]["setup_s"] for r in setups]),
    }
    tail_info = tail(latencies, calls_per_pass)
    if tail_info is not None:
        e2e["op_tail_ms"] = 1000.0 * tail_info[0]

    layers = {}
    unstable = []  # counts that differ between traced repetitions
    if args.trace:
        traced = done["trace"]
        for key in traced[0]["layers"]:
            values = [r["layers"][key] for r in traced]
            layers[key] = values[0] if len(set(values)) == 1 else median(values)
            if len(set(values)) > 1 and not key.endswith(("self_s", "self_share", "call_s")):
                unstable.append(key)
        layers["trace.overhead_s"] = median([r["pass_s"] for r in traced]) - pass_s

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "child_env": CHILD_ENV,
        "repetitions": {m: len(v) for m, v in done.items()},
        "setup_samples": len(setups),
        "calls_per_pass": calls_per_pass,
    }
    if tail_info is not None:
        provenance["op_tail"] = {
            "percentile": tail_info[1],
            "samples_beyond": tail_info[2],
            "samples": len(latencies),
        }

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    figures = layers if args.trace else e2e
    missing = [m["name"] for m in declared if m["name"] not in figures]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"kaninj benchmark  {json.dumps(provenance, sort_keys=True)}")
    if tail_info is not None:
        print(
            f"  op_tail_ms = {e2e['op_tail_ms']:.4f} ms at p{tail_info[1]:.1f},"
            f" {tail_info[2]} of {len(latencies)} samples beyond"
        )
    else:
        print(f"  op_tail_ms omitted: {calls_per_pass} calls per pass")
    print(f"  fail_frac = {e2e['fail_frac']} ({failed} of {attempted} calls)")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in {**e2e, **layers}.items():
        if name not in ("op_tail_ms", "fail_frac"):
            print(f"  {name} = {value} {units.get(name, 's' if name.endswith('_s') else '')}")
    print(
        f"  as measured: pass_s = {measured['pass_s']} s, setup_s = {measured['setup_s']} s;"
        f" median factor to the reference speed {measured['pass_scale']}"
    )
    if unstable:
        print(f"  COUNTS DIFFER between traced repetitions: {unstable}")
    for r in reps:
        for err in r["errors"]:
            print(f"  FAILED: {err}")

    record = {
        "provenance": provenance,
        "end_to_end": e2e,
        "per_layer": layers,
        "measured": measured,
        "pass_s": {m: [r["pass_s"] for r in v] for m, v in done.items()},
        "setup_s": [r["setup_s"] for r in setups],
        "pass_scale": [r["pass_scale"] for r in passes],
        "attempted": attempted,
        "failed": failed,
        "errors": [e for r in reps for e in r["errors"]],
        "unstable_counts": unstable,
    }
    if args.trace:
        record["stage_sizes"] = done["trace"][0]["stage_sizes"]
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
