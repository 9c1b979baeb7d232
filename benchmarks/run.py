"""Benchmark command for tosca.

Run one workload and print every metric, then one JSON result line:

    python3 benchmarks/run.py --workload incremental-d32 --seed 1 \\
        --seconds 10 --trace 0 [--out results.jsonl]

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` is the separate traced run that reports the per-layer metrics.
``--out`` appends the full record (result, detail, environment) to a JSON
lines file.  Compare two such files, one row per (workload, metric):

    python3 benchmarks/run.py --compare base.jsonl change.jsonl

The code under test is the ``src/tosca`` package of the checkout this file
sits in; without it the command exits with status 2 and prints no result.
BLAS runs with one thread, pinned before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("incremental-d32", "bank-d768", "route-d768")
ENV_NOTE = ("shared host: no control over CPU frequency, co-tenant load "
            "or the page cache; timings are medians of samples scaled to a "
            "reference speed by an adjacent probe")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "note": ENV_NOTE,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _parse(argv):
    p = argparse.ArgumentParser(prog="benchmarks/run.py",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None,
                   help="append the full run record to this JSON lines file")
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny runs the seconds-scale self-test inputs")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                   help="compare two --out files instead of running")
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload is required")
    return args


def _print_end_to_end(values, detail, spec, wl):
    for m in spec["end_to_end"]:
        name = m["name"]
        if name not in values:
            print(f"  {name:<22} missing")
            continue
        line = f"  {name:<22} {values[name]:>14.6g} {m['unit']}"
        d = detail.get(name) or (detail.get("predict_ms")
                                 if name.startswith("predict_ms") else None)
        if d:
            line += (f"   median of n={d['n']}, tail p{d['tail_pct']} "
                     f"{d['tail']:.6g}; raw median {d['raw']['median']:.6g}")
        print(line)
    ratio = wl.failed / wl.attempted if wl.attempted else float("nan")
    print(f"  {'fail_ratio':<22} {ratio:>14.6g}   "
          f"({wl.failed} failed of {wl.attempted} attempted)")


def _print_per_layer(values, spec, tracer):
    for m in spec["per_layer"]:
        name = m["name"]
        shown = f"{values[name]:>14.6g}" if name in values else f"{'absent':>14}"
        print(f"  {name:<36} {shown} {m['unit']}")
    if tracer.absent:
        print("  absent seams: " + ", ".join(tracer.absent))


def run(args) -> int:
    src = ROOT / "src"
    if not (src / "tosca" / "__init__.py").is_file():
        print(f"error: no tosca sources under {src}", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, str(src))
    import tosca
    if Path(tosca.__file__).resolve().parent != (src / "tosca").resolve():
        print(f"error: imported tosca from {tosca.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    env = environment()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), workdir,
                                        tiny=args.scale == "tiny")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    wl = result["workload"]
    if args.trace:
        values, detail = workloads.per_layer_metrics(result)
        wanted = spec["per_layer"]
    else:
        values, detail = workloads.end_to_end_metrics(result)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  scale {args.scale}")
    print("environment: " + json.dumps(env))
    print(f"iterations: {wl.iterations}  "
          f"tail percentile: p{wl.scale.tail_pct}")
    if wl.observed:
        print("observed: " + json.dumps(wl.observed))
    if wl.failures:
        print("failed checks: " + "; ".join(wl.failures))
    if args.trace:
        _print_per_layer(values, spec, result["tracer"])
    else:
        _print_end_to_end(values, detail, spec, wl)

    out = {"correct": wl.failed == 0, "attempted": wl.attempted,
           "failed": wl.failed, "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "seconds": args.seconds,
                  "scale": args.scale, "env": env, "result": out,
                  "detail": detail, "observed": wl.observed}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        import compare
        return compare.main(args.compare[0], args.compare[1], load_spec())
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
