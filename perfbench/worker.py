"""One repetition of one workload, in a fresh process.

Started by `run.py` with `--t0`, the monotonic clock reading taken just
before the process was spawned, so `setup_s` covers interpreter start,
`import holobreak` and building the inputs.  Prints one JSON object as the
last line of its standard output.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from hostspeed import HostClock, reading

ROOT = Path(__file__).resolve().parent.parent


def _clock_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import holobreak

    if Path(holobreak.__file__).resolve().parent != src / "holobreak":
        raise SystemExit(f"imported holobreak from {holobreak.__file__}, not from {src}")


class _Arrivals:
    """Stream for `run_suite`: stamps the time each record is written, so a
    case's latency includes its record's encoding, as under `holobreak verify`.
    With a clock it reads the host's speed between cases; a case's time
    runs from the previous record's `after` stamp to its own `before`, so
    the reading is left out of it."""

    def __init__(self, clock=None):
        self.clock = clock
        self.before = []
        self.after = []

    def write(self, text: str) -> None:
        if text != "\n":
            self.before.append(time.perf_counter())
            if self.clock is not None:
                self.clock.maybe_read()
            self.after.append(time.perf_counter())

    def flush(self) -> None:
        pass


def run_tasks(tasks, tracer=None) -> dict:
    """Run every task, check every op, never stop on a failed one.  Op
    times are scaled to the reference host speed (`hostspeed`); the raw
    wall time is reported beside them."""
    import workloads

    clock = HostClock()
    spans, failures = [], []  # (start, end, raw seconds) of every op
    clock.read()
    spent0 = clock.spent
    t_start = time.perf_counter()
    for task in tasks:
        clock.maybe_read()
        if tracer is not None:
            tracer.op += 1
        if isinstance(task, workloads.Suite):
            # readings inside run_suite would count as its own time in a
            # traced run, so there the suite's cases share the readings
            # around it
            arrivals = _Arrivals(None if tracer else clock)
            t0 = time.perf_counter()
            try:
                report = workloads.run_suite(task.config, stream=arrivals)
                digest = report.content_hash()
            except Exception as exc:  # a broken suite is one failed op
                spans.append((t0, time.perf_counter(), time.perf_counter() - t0))
                failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
                continue
            records = report.records
            spans.append((t0, arrivals.before[0], records[0]["ms"] / 1000.0))
            spans.extend((a, b, b - a) for a, b in zip(arrivals.after, arrivals.before[1:]))
            hash_ok = task.expected_hash is None or digest == task.expected_hash
            for r in records:
                if not (r["pass"] and hash_ok):
                    failures.append(f"{r['case']}: {r.get('note', '')}"
                                    f"{'' if hash_ok else ' content hash differs from the record'}")
            # the next suite's peak memory is then its own, whatever the order
            del report, records
        else:
            t0 = time.perf_counter()
            try:
                ok = bool(task.check(task.compute()))
                note = "" if ok else "check failed"
            except Exception as exc:  # counted as failed, the run goes on
                ok, note = False, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            spans.append((t0, t1, t1 - t0))
            if not ok:
                failures.append(f"{task.name}: {note}")
    raw_wall = time.perf_counter() - t_start - (clock.spent - spent0)
    clock.read()
    op_s = [raw * clock.factor(a, b) for a, b, raw in spans]
    between = raw_wall - sum(raw for _, _, raw in spans)
    return {
        "wall_s": sum(op_s) + between * clock.median_factor(),
        "raw_wall_s": raw_wall,
        "host_factor": clock.median_factor(),
        "op_s": op_s,
        "attempted": len(op_s),
        "failed": len(failures),
        "failures": failures[:20],
    }


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_caps": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    _import_program()
    import workloads

    tasks = workloads.build(args.workload, args.seed, args.short, ROOT)
    setup_s = (_clock_ns() - args.t0) * 1e-9
    out = {"setup_s": setup_s, "host_s": reading(),
           "tail_percentile": workloads.TAIL_PERCENTILE[args.workload]}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            demos = [m for name, m in sys.modules.items()
                     if name.startswith("perfbench_demo_")]
            tracer = Tracer()
            tracer.install([workloads, *demos])
        out.update(run_tasks(tasks, tracer))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            from holobreak.term_algebra import registered_bases

            out["layers"] = tracer.metrics(len(registered_bases()))
            out["spans"] = len(tracer.spans)
            if args.spans:
                tracer.write(Path(args.spans))
        out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
