"""haclrt benchmark: one workload per call, one JSON result on the last line.

    python3 perfbench/run.py --workload test-twin --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from that
checkout's ``src`` and from nowhere else.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` measures the per-layer metrics, each
op run once traced and once untraced.  ``--workload all`` runs every
workload in turn, each in its own process.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one process, one BLAS thread: the closed loop has a single client
BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("test-twin", "scenario-fit", "wide-mc")
END_TO_END = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s")
# the fixed-seed digest covers this many leading ops
DIGEST_OPS = 6
CHILD_TIMEOUT_S = 170
# a run stops early past this much wall time in the op loop, so even a
# far slower program ends within the time limit of a run
MEASURE_CAP_S = 130.0


def _load():
    """Import haclrt from this checkout's src, refusing any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import haclrt

    if not Path(haclrt.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"haclrt found outside {ROOT / 'src'}")
    import spans
    import workloads

    return spans, workloads


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _run_op(wl, workloads, seed, i):
    """Time op i; a raise is classified and counted, never retried."""
    kind = wl.kinds[i % len(wl.kinds)]
    call = wl.make(kind, seed, i)
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # every failure is counted, none stops the run
        return {"i": i, "kind": kind, "s": time.perf_counter() - t0,
                "raised": workloads.classify(exc), "cls": type(exc).__name__,
                "errors": [], "problems": [], "fingerprint": ["raised",
                                                        type(exc).__name__]}
    seconds = time.perf_counter() - t0
    return {"i": i, "kind": kind, "s": seconds, "raised": None, "cls": None,
            "errors": workloads.errors_of(result),
            "problems": workloads.check(result),
            "fingerprint": workloads.fingerprint(result)}


def _setup(wl, workloads):
    """The untimed warm-up op that ends set-up.

    Its input does not depend on the workload seed, so set-up time
    varies with the program and the machine, not with the data.
    """
    _run_op(wl, workloads, workloads.WARMUP_SEED, workloads.WARMUP_INDEX)


def _setup_probe(args, spans, workloads):
    wl = workloads.WORKLOADS[args.workload]
    _setup(wl, workloads)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def _setup_in_child(args):
    """Set-up time of a fresh process for the same workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _quantile(values, pct):
    """Harrell-Davis estimate of the pct-th percentile of op times.

    It weighs every op instead of reading one or two order statistics,
    which steadies the estimate over the few dozen ops a run completes.
    """
    import numpy as np
    from scipy.stats.mstats import hdquantiles

    if len(values) == 1:
        return float(values[0])
    return float(hdquantiles(np.asarray(values), prob=[pct / 100.0])[0])


def _measure(wl, workloads, seed, n_ops, tracer=None, points=None):
    """Closed loop with one client over ops 0 .. n_ops - 1.

    Input generation between ops is not counted.  With a tracer, each op
    runs twice on the same inputs, traced and untraced, the order
    alternating, so the overhead compares like ops.  The loop ends early
    only past MEASURE_CAP_S.
    """
    ops, plain = [], []
    t0 = time.perf_counter()
    for i in range(n_ops):
        if time.perf_counter() - t0 > MEASURE_CAP_S:
            break
        if tracer is None:
            ops.append(_run_op(wl, workloads, seed, i))
            continue
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                tracer.op = i
                with tracer.installed(points):
                    ops.append(_run_op(wl, workloads, seed, i))
                tracer.op = None
            else:
                plain.append(_run_op(wl, workloads, seed, i))
    return ops, plain


def _digest(ops):
    if len(ops) < DIGEST_OPS:
        return None
    blob = json.dumps([o["fingerprint"] for o in ops[:DIGEST_OPS]])
    return hashlib.sha256(blob.encode()).hexdigest()


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _run(args, spans, workloads):
    wl = workloads.WORKLOADS[args.workload]
    load_before = os.getloadavg()
    _setup(wl, workloads)
    setup = [time.perf_counter() - _T0]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
    else:
        # the traced run reports no set-up time, so it skips the probes
        setup.append(_setup_in_child(args))

    n_ops = wl.ops_for(args.seconds)
    t0 = time.perf_counter()
    ops, plain = _measure(wl, workloads, args.seed, n_ops, tracer,
                          spans.haclrt_points() if tracer else None)
    wall = time.perf_counter() - t0
    if tracer is None:
        # one probe on each side of the ops spreads the samples over the run
        setup.append(_setup_in_child(args))

    times = [o["s"] for o in ops]
    failed = [o for o in ops if o["raised"] or o["errors"]]
    problems = [f"op {o['i']}: {p}" for o in ops for p in o["problems"]]
    for o, q in zip(ops, plain):
        if o["fingerprint"] != q["fingerprint"]:
            problems.append(f"op {o['i']}: tracing changed the result")
    p50 = _quantile(times, 50.0)
    tail = _quantile(times, wl.tail_pct)
    report = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": _environment(args.seed),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "ops": len(ops),
        "ops_planned": n_ops,
        "op_s": times,
        "wall_s": wall,
        "setup_samples_s": setup,
        "op_fail_frac": len(failed) / len(ops),
        "failed_ops": [[o["i"], list(o["kind"]), o["cls"] or o["errors"]]
                       for o in failed],
        "tail_pct": wl.tail_pct,
        "ops_beyond_tail": sum(t > tail for t in times),
        "raised": {c: sum(o["cls"] == c for o in ops)
                   for c in sorted({o["cls"] for o in ops if o["cls"]})},
        "scenario_errors": {e: sum(o["errors"].count(e) for o in ops)
                            for e in sorted({e for o in ops
                                             for e in o["errors"]})},
        "digest": _digest(ops),
        "digest_ops": DIGEST_OPS,
        "problems": problems,
    }
    end_to_end = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "op_p50_s": _metric(p50, "s"),
        "op_tail_s": _metric(tail, "s"),
        "ops_per_s": _metric(len(times) / sum(times), "1/s"),
    }
    report["end_to_end"] = end_to_end
    if tracer is None:
        metrics = end_to_end
    else:
        overhead = p50 - _quantile([q["s"] for q in plain], 50.0)
        outcomes = [{"errors": o["errors"], "raised": o["raised"]}
                    for o in ops]
        metrics = spans.layer_metrics(tracer.spans, outcomes, overhead)
        report["op_breakdown"] = spans.op_breakdown(tracer.spans)
        report["spans"] = len(tracer.spans)
        report["untraced_points"] = sorted(tracer.missing)

    _summary(report, sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not problems else 1


def _summary(report, out):
    e2e = report["end_to_end"]
    print(f"{report['workload']}: {report['ops']} of "
          f"{report['ops_planned']} ops, trace {report['trace']}", file=out)
    for name in END_TO_END:
        print(f"  {name:<13} {e2e[name]['value']:.6g} {e2e[name]['unit']}",
              file=out)
    print(f"  {'op_fail_frac':<13} {report['op_fail_frac']:.6g} ratio "
          f"(tail = p{report['tail_pct']:g}, {report['ops_beyond_tail']} "
          f"ops beyond)", file=out)
    for problem in report["problems"]:
        print(f"  CHECK FAILED {problem}", file=out)


def _run_all(args):
    """Every workload in its own process; nonzero if any check failed."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # set before numpy loads; the set-up probes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return _run_all(args)
    try:
        loaded = _load()
    except ImportError as exc:
        print(f"cannot load haclrt from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup_probe(args, *loaded)
        return 0
    return _run(args, *loaded)


if __name__ == "__main__":
    sys.exit(main())
