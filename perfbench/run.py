"""End-to-end and per-layer benchmark for vpme.

Usage (from the repository root):

  python3 perfbench/run.py --workload baseline --seed 1234 --seconds 35 --trace 0
  python3 perfbench/run.py                  # every workload, default seeds
  python3 perfbench/run.py --smoke          # tiny shapes, every check, seconds

One operation is one ``vpme.runner.run`` of the workload's scenario in a
fresh child process (child.py), so that its peak resident memory is its own.
Operations run one at a time (a closed loop with one client) in whole
rounds until the next round would overrun ``--seconds``. After each
operation the parent checks the artifacts (checks.py) and counts it as
failed if vpme aborted it.

With ``--trace 0`` a round is one untraced operation and the result holds
the end-to-end metrics, each the median over the run's operations. With
``--trace 1`` a round is one untraced and one traced operation; the result
holds the per-layer metrics of the traced ones (spans.py) and the tracing
overhead, traced minus untraced median ``run_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import DEFAULT_SEED, SMOKE, WORKLOADS, checkpoint_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench_out"
# the program is serial; one BLAS thread keeps stray library threads from
# competing with it for the cores
BLAS_THREADS = "1"
# one workload's measurement must end within 180 s, whatever its --seconds
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "run_s": "s", "ion_steps_per_s": "ion-steps/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_op(params, seed, traced, op_dir, deadline):
    """One scenario run in a child process; returns its result dict."""
    if op_dir.exists():
        shutil.rmtree(op_dir)
    op_dir.mkdir(parents=True)
    spec = {"params": params, "seed": seed, "trace": traced, "out_dir": str(op_dir)}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for another operation (limit {DEADLINE_S} s)")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=_child_env(),
            stdout=sys.stderr,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"operation did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    with open(op_dir / "result.json", encoding="utf-8") as fh:
        res = json.load(fh)
    if res["status"] == "ok":
        res["problems"] = checks.check_run(op_dir / "run", params, checkpoint_steps(params))
        res["ion_steps_per_s"] = params["count"] * params["steps"] / res["loop_s"]
        if traced:
            with open(op_dir / "spans.json", encoding="utf-8") as fh:
                res["layers"] = spans.layer_metrics(json.load(fh))
    return res


def measure(name, params, seed, seconds, trace):
    """Whole rounds of operations for ``seconds``; returns the result object."""
    deadline = time.monotonic() + DEADLINE_S
    kinds = (False, True) if trace else (False,)
    done = {k: [] for k in kinds}
    attempted = failed = 0
    problems = []
    start = time.monotonic()
    while True:
        t_round = time.monotonic()
        for traced in kinds:
            res = run_op(params, seed, traced, OUT / name / ("traced" if traced else "untraced"), deadline)
            attempted += 1
            if res["status"] != "ok":
                failed += 1
                print(f"{name}: operation failed: {res['error']}", file=sys.stderr)
                continue
            problems += res["problems"]
            done[traced].append(res)
        spent = time.monotonic() - t_round
        if time.monotonic() - start + spent > seconds:
            break
    if not all(done.values()):
        raise BenchError(f"{name}: every operation of a kind failed; nothing to report")
    for p in problems:
        print(f"{name}: check failed: {p}", file=sys.stderr)

    plain = done[False]
    if trace:
        units = spans.UNITS
        values = {m: statistics.median(r["layers"][m] for r in done[True]) for m in units if m != "trace.overhead_s"}
        values["trace.overhead_s"] = statistics.median(r["run_s"] for r in done[True]) - statistics.median(
            r["run_s"] for r in plain
        )
    else:
        units = END_TO_END
        values = {m: statistics.median(r[m] for r in plain) for m in units}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
        "backend": plain[0]["backend"],
    }


def _print_table(name, seed, result):
    print(f"{name} (seed {seed}, backend {result['backend']}): "
          f"{result['attempted']} attempted, {result['failed']} failed, correct={result['correct']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<36} {m['value']:>16.6g} {m['unit']}")


def _smoke():
    """Tiny shapes through every workload's code path, traced and untraced."""
    ok = True
    for name, params in SMOKE.items():
        res = measure(f"smoke-{name}", params, DEFAULT_SEED, 0.0, True)
        _print_table(f"smoke {name}", DEFAULT_SEED, res)
        missing = set(spans.UNITS) - set(res["metrics"])
        bad = [m for m, v in res["metrics"].items() if not math.isfinite(v["value"])]
        if missing or bad or not res["correct"] or res["failed"]:
            print(f"smoke {name}: missing {sorted(missing)}, non-finite {bad}", file=sys.stderr)
            ok = False
    print("smoke: " + ("ok" if ok else "FAILED"))
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description="vpme end-to-end and per-layer benchmark")
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=None, help=f"workload seed (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=float, default=35.0, help="measured time per workload")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="tiny shapes, every check, then exit")
    args = ap.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "vpme" / "__init__.py").is_file():
        print(f"vpme sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return 0 if _smoke() else 1
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            seed = DEFAULT_SEED if args.seed is None else args.seed
            results[name] = measure(name, WORKLOADS[name], seed, args.seconds, bool(args.trace))
            _print_table(name, seed, results[name])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
