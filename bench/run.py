"""attrseq benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload train_sgd --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; attrseq is imported from its ``src/``. The
run sets up the workload's inputs once as a warm-up, then several times more
(``setup_s`` is their median), runs one warm-up unit whose outputs are the
reference, then repeats units until ``--seconds`` have passed, checking every
unit's outputs. Times are scaled by a yardstick timed around each call
(``bench/clock.py``); metrics take the median over units.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics. With ``--trace 1`` the set-up runs once
under the tracer, then untraced and traced units alternate; the metrics are
the per-layer metrics, each a set-up total plus a per-traced-unit value, and
``bench.trace_overhead_frac`` compares the two kinds of unit.

The environment, the output checks and the trace's spans are written under
``.bench_out/`` in the checkout. ``--size tiny`` shrinks every workload for
the smoke check (``bench/smoke.py``).
"""

import os

# One BLAS thread, set before numpy loads: never more threads than CPUs, and
# the per-instance shapes here run slower with more.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent  # the checkout
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_UNITS = 3  # timed units of each kind, whatever --seconds says

perf = time.perf_counter


class Checks:
    """Output checks attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, where, results):
        for label, ok in results:
            self.attempted += 1
            if not ok:
                self.failures.append(f"{where}: {label}")


def environment(workload, seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
    }


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be in [0, 2**64)")
    return args


def with_units(values, declared):
    """The result's metrics: every metric BENCHMARK.json declares, in order."""
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


def run(args, spec, wl, checks):
    """Set up, warm up and measure; returns (metrics, detail, spans)."""
    from tracer import Tracer, layer_metrics

    traced = bool(args.trace)
    # set-up 0 is an untimed warm-up under its own tracer, which supplies the
    # counts recorded next to the metrics; a traced run sets up once, traced
    states, setup_s = [], []
    warm_tracer, setup_tracer = Tracer(), Tracer()
    for k in range(1 if traced else 1 + wl.n_setup):
        tracer = setup_tracer if traced else warm_tracer if k == 0 else None
        if tracer is not None:
            tracer.install()
        try:
            state, t = wl.clock.measure(lambda: wl.setup(args.seed))
        finally:
            if tracer is not None:
                tracer.uninstall()
        states.append(state)
        setup_s.append(t)
    if not traced:
        setup_s = setup_s[1:]
    state = states[-1]
    checks.add("setup", wl.setup_checks(states))

    ref = wl.unit(state, 0, warm_tracer.install())
    warm_tracer.uninstall()
    checks.add("unit 0", wl.check(ref, None))

    unit_tracer = Tracer()
    plain, with_trace = [], []
    deadline = perf() + args.seconds
    k = 1
    while True:
        trace_this = traced and k % 2 == 0
        try:
            if trace_this:
                unit_tracer.install()
            r = wl.unit(state, k, unit_tracer if trace_this else None)
        except Exception:  # a failed operation counts against the run
            traceback.print_exc()
            checks.add(f"unit {k}", [("completed", False)])
            break
        finally:
            unit_tracer.uninstall()
        checks.add(f"unit {k}", wl.check(r, ref))
        (with_trace if trace_this else plain).append(r)
        k += 1
        enough = len(plain) >= MIN_UNITS and (not traced or len(with_trace) >= MIN_UNITS)
        if enough and perf() >= deadline:
            break
    if not plain or (traced and not with_trace):
        raise RuntimeError("no unit completed")

    # counts of the untimed warm-up (set-up 0 and unit 0), or of the one
    # traced set-up and the warm-up unit, recorded next to the throughputs
    warm = Tracer()
    warm.absorb(warm_tracer.state())
    warm.absorb(setup_tracer.state())
    wc = warm.counts
    detail = {
        "training.pairs": wc["training.omega_forward"] / 2,
        "training.epochs": wc["training.epochs"],
        "gradients.hinge_active_frac": (wc["gradients.hinge_active"] / wc["gradients.backward_pair"]
                                        if wc["gradients.backward_pair"] else 0.0),
        "setup_s": [t.scaled for t in setup_s],
        "setup_raw_s": [t.raw for t in setup_s],
        "unit_s": [r["time"] for r in plain],
        "unit_raw_s": [r["raw"] for r in plain],
        "traced_unit_s": [r["time"] for r in with_trace],
    }
    if not traced:
        values = {"setup_s": statistics.median(t.scaled for t in setup_s),
                  **wl.metrics(states, ref, plain),
                  "peak_rss_mb": peak_rss_mb()}
        return with_units(values, spec["end_to_end"]), detail, []

    combined = Tracer()
    combined.absorb(setup_tracer.state())
    combined.absorb(unit_tracer.state(), weight=1.0 / len(with_trace))
    overhead = (statistics.median(r["time"] for r in with_trace)
                / statistics.median(r["time"] for r in plain) - 1.0)
    values = layer_metrics(combined, wl.cli_seconds(with_trace), overhead)
    return with_units(values, spec["per_layer"]), detail, combined.spans


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "attrseq" / "__init__.py").is_file():
        print(f"bench: no attrseq sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import attrseq

    if Path(attrseq.__file__).resolve().parent != (SRC / "attrseq").resolve():
        print(f"bench: imported attrseq from {attrseq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from clock import Clock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.size, work, Clock())
    checks = Checks()
    env = environment(args.workload, args.seed)
    try:
        metrics, detail, spans = run(args, spec, wl, checks)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans:
        with open(f"{stem}.spans.jsonl", "w") as fh:
            for sid, parent, name, t0, t1 in spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "t0": t0, "t1": t1}) + "\n")
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures), "metrics": metrics}
    Path(f"{stem}.json").write_text(json.dumps(
        {"env": env, "detail": detail, "failures": checks.failures, **result}, indent=1) + "\n")
    for failure in checks.failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    print("env: " + json.dumps(env))
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
