"""holobreak benchmark: one workload, repeated in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition is a new single-threaded
Python process (`worker.py`) with BLAS and OpenMP capped at one thread,
started one at a time.  Repetitions continue while the next one fits in
`--seconds`, with at least three (`--trace 0`) or one traced and one untraced
(`--trace 1`).  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every time is scaled to a reference host speed, read between ops with a
fixed kernel (`hostspeed.py`), since the host's speed drifts by 1.5x and
more in windows that can outlast a run.  With `--trace 0` the metrics are
the end-to-end ones, taken for each op over its faster scaled times in the
repetitions; with `--trace 1` they are the
per-layer ones from the traced repetitions, plus the tracing overhead.  The
line before it records the environment, the repetition count, the op count,
the tail percentile and each repetition's raw wall time and host factor.
Exit status is 0 when the result was printed, whether or not ops failed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 16  # set-up-only processes per untraced run, spread over it
MIN_REPS = 3
HARD_LIMIT_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, deadline: float, trace: int = 0, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if args.short:
        cmd.append("--short")
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--spans", str(ROOT / ".perfbench" / f"spans-{args.workload}.tsv.gz")]
    before = hostspeed.reading()
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd + ["--t0", str(t0)], cwd=ROOT, env=_child_env(), capture_output=True,
        text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # set-up time at the reference host speed, from the readings taken just
    # before the spawn and just after the set-up
    out["raw_setup_s"] = out["setup_s"]
    out["setup_s"] *= hostspeed.factor(before, out["host_s"])
    return out


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def fastest_half(samples):
    """The faster half of the samples, and at least two of them.  Other load
    on a shared machine only ever slows a program down, and a burst shorter
    than the host-speed readings around an op escapes their scaling, so the
    slower half measures the neighbours, not the program."""
    return sorted(samples)[:max(2, len(samples) // 2)]


def op_times(reps) -> list:
    """For each op, its times over the repetitions.  Repetitions whose op
    count differs from the usual one (a suite that raised) are left out."""
    n = statistics.mode(len(r["op_s"]) for r in reps)
    same = [r for r in reps if len(r["op_s"]) == n]
    return [[r["op_s"][i] for r in same] for i in range(n)]


def wall_estimate(reps) -> float:
    """Time to finish the op list: the sum over ops of each op's median
    time, plus the median time the repetitions spent between ops.  A burst
    of other load then has to hit the same op in most repetitions to show,
    and unlike each op's fastest time, the median does not fall as a run
    fits more repetitions."""
    between = statistics.median(r["wall_s"] - sum(r["op_s"]) for r in reps)
    return sum(statistics.median(times) for times in op_times(reps)) + between


def _repeat(args, start: float, one_rep, between=lambda: None) -> list:
    """Call `one_rep` while the next call is expected to end within half a
    call of `--seconds`, so a run lasts `--seconds` give or take that.
    `between` runs after every call."""
    reps = []
    while True:
        t = time.monotonic()
        reps.append(one_rep())
        last = time.monotonic() - t
        between()
        if len(reps) >= (1 if args.trace else MIN_REPS) and \
                time.monotonic() - start + last / 2 > args.seconds:
            return reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="small inputs, for the benchmark's own self-check")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "holobreak" / "__init__.py").is_file():
        print(f"no holobreak source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    try:
        if args.trace:
            pairs = _repeat(args, start, lambda: (_spawn(args, deadline),
                                                  _spawn(args, deadline, trace=1)))
            reps = [r for pair in pairs for r in pair]
            traced = [t for _, t in pairs]
        else:
            setups = []

            def sample_setups(share: float) -> None:
                # set-up samples keep pace with the run, so that a burst of
                # other load cannot reach all of them
                while len(setups) < SETUP_SAMPLES * min(1.0, share):
                    setups.append(_spawn(args, deadline, setup_only=True)["setup_s"])

            sample_setups(0.25)
            reps = _repeat(args, start, lambda: _spawn(args, deadline),
                           lambda: sample_setups((time.monotonic() - start) / args.seconds))
            sample_setups(1.0)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    untraced = [r for r in reps if "layers" not in r]
    # latencies pool the faster half of each op's times
    ops = [s * 1000.0 for times in op_times(untraced) for s in fastest_half(times)]
    tail_pct = reps[0]["tail_percentile"]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": len(reps),
        "ops_per_repetition": reps[0]["attempted"],
        "repetition_wall_s": [r["wall_s"] for r in reps],
        "repetition_raw_wall_s": [r["raw_wall_s"] for r in reps],
        "repetition_host_factor": [r["host_factor"] for r in reps],
        "tail_percentile": tail_pct,
        "ops_beyond_tail": len(ops) * (100.0 - tail_pct) / 100.0,
        "env": {**reps[0]["env"], "seed": args.seed, "git_sha": _git_sha()},
        "failures": sorted({f for r in reps for f in r["failures"]})[:20],
    }
    if args.trace:
        values = {name: statistics.median(t["layers"][name] for t in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_ratio"] = wall_estimate(traced) / wall_estimate(untraced)
        info["spans_per_repetition"] = traced[0]["spans"]
    else:
        values = {
            "setup_s": statistics.median(fastest_half(setups + [r["setup_s"] for r in reps])),
            "wall_s": wall_estimate(untraced),
            "op_ms_p50": statistics.median(ops),
            "op_ms_tail": percentile(ops, tail_pct),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


if __name__ == "__main__":
    sys.exit(main())
