"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is ``setup`` (import and set up, then stop), ``pass`` (one untraced
pass) or ``trace`` (one pass with the layer spans installed; the spans
are written to SPANS_PATH).  Prints one JSON object on its last line.
Started by run.py, which sets the environment (PYTHONPATH, one BLAS
thread).

Times are reported in seconds at the reference speed of calibrate.py,
from a Meter that runs through set-up and the pass; the time spent on
its samples is left out.  The times as measured are under "measured".
pass_s is the sum of the latencies of the calls.
"""

import time

import calibrate

METER = calibrate.Meter()
METER.start()
T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

import tracing  # noqa: E402
import workloads  # noqa: E402  (imports kaninj)


def main() -> None:
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    ops = workloads.SETUPS[name](seed, ref)
    t_setup = time.perf_counter()
    out = {"numpy": sys.modules["numpy"].__version__}
    if mode == "setup":
        METER.stop()
        measured, out["setup_s"] = METER.stretch(T0, t_setup)
        out["measured"] = {"setup_s": measured}
        print(json.dumps(out))
        return

    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)

    results = []
    spans = []
    for i, op in enumerate(ops):
        t = time.perf_counter()
        try:
            res = tracer.call(i, op.run) if tracer else op.run()
            err = None
        except Exception as exc:  # noqa: BLE001 - a raising call is a counted failure
            res, err = None, f"raised {type(exc).__name__}: {exc}"
        spans.append((t, time.perf_counter()))
        results.append((res, err))
    METER.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = METER.stretch(T0, t_setup)
    measured, latencies = zip(*(METER.stretch(a, b) for a, b in spans))
    pass_scale = sum(latencies) / sum(measured)

    errors = []
    for op, (res, err) in zip(ops, results):
        if err is None:
            err = op.check(res)
        if err is not None:
            errors.append(err)

    out.update(
        setup_s=setup[1],
        measured={"setup_s": setup[0], "pass_s": sum(measured)},
        pass_s=sum(latencies),
        latencies=latencies,
        pass_scale=pass_scale,
        peak_rss_mb=peak_rss_mb,
        attempted=len(ops),
        failed=len(errors),
        errors=errors[:5],
    )
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        out["layers"] = {k: pass_scale * v if k.endswith("_s") else v for k, v in layers.items()}
        out["stage_sizes"] = tracer.stage_sizes
        tracer.write(sys.argv[4])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
