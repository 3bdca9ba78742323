"""One repetition of one workload in a fresh interpreter.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --workload NAME [--order a,b,...] [--trace] [--spans FILE]

Imports beclab from the checkout's ``src`` directory, stamps
``time.monotonic()`` just before the first workload call (the parent
stamped the same clock before starting this process, so the difference is
the set-up time users pay), runs the workload once and prints one JSON
object as its last line. ``--probe`` stops after the import and reports
the machine instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _import_beclab():
    src = ROOT / "src"
    if not (src / "beclab" / "__init__.py").is_file():
        raise SystemExit(f"worker: no beclab sources under {src}")
    sys.path.insert(0, str(src))
    import beclab

    if Path(beclab.__file__).resolve().parent != (src / "beclab").resolve():
        raise SystemExit(f"worker: imported beclab from {beclab.__file__}, not {src}")
    return beclab


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def machine_info():
    import numpy
    import scipy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # reported, never fatal: the record is informational
        blas = f"unavailable: {exc!r}"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cache": _cache_sizes(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--order", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    _import_beclab()
    if args.probe:
        ready = time.monotonic()
        print(json.dumps({"ready": ready, "machine": machine_info()}))
        return 0

    from tracer import Tracer
    from workloads import WORKLOADS

    run, outcome = WORKLOADS[args.workload]
    order = [c for c in args.order.split(",") if c]
    work = OUT / f"work-{os.getpid()}"
    if args.workload == "cli_suite":
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        os.chdir(work)

    result = {}
    tracer = Tracer().install() if args.trace else None
    ready = time.monotonic()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        raw = run(tracer, order)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
    except Exception:  # the parent counts the repetition as failed
        result["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            result["unrestored"] = tracer.uninstall()
    result["ready"] = ready
    try:
        if "error" not in result:
            attempted, failed, values, extra = outcome(raw)
            result.update(attempted=attempted, failed=failed, fingerprint=values, **extra)
    except Exception:
        result["error"] = traceback.format_exc()
    finally:
        if args.workload == "cli_suite":
            os.chdir(ROOT)
            shutil.rmtree(work, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["missing_sites"] = tracer.missing
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.dump()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
