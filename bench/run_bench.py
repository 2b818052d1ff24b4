"""Benchmark of the ``isoeffect`` CLI: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run_bench.py --workload calibrate-text --seed 1 --seconds 60 --trace 0

The run generates the workload's input sets from ``--seed`` under
``.bench_work/``, then measures with tracing off (``--trace 0``: the
end-to-end metrics of ``BENCHMARK.json``) or with every layer's call sites
wrapped on the first input set (``--trace 1``: its per-layer metrics). It
prints a result record (machine, outputs, chosen hyperparameters, timings)
and, as its last line, ``{"correct", "attempted", "failed", "metrics"}``.
Generation and set-up count against ``--seconds``, so a run lasts about that
long; one call on every input set is made even if it takes longer.

``wall_s`` is the mean over the input sets of the median wall time of one
invocation on that set.

Set-up time is what every CLI run pays before doing any work: a fresh
interpreter running ``isoeffect --help``. The workload itself runs in one
worker process (``bench/worker.py``) with ``ISOEFFECT_THREADS`` unset, so
its peak resident memory is the workload's alone; input generation happens
here and is excluded from every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
HELP_PROBE = "import sys; from isoeffect.cli import main; sys.exit(main(['--help']))"
RUN_LIMIT_S = 170.0
THREAD_ENV = ("ISOEFFECT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        return next((line.split(":", 1)[1].strip() for line in fh
                     if line.startswith("model name")), "")


def _machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "isoeffect_threads_in_workload": "unset",
    }


def _time_help(env: dict) -> tuple[float, int]:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", HELP_PROBE], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL)
    # a wait with a timeout polls, rounding the time up to its poll interval;
    # a blocking wait returns when the child exits, and the timer guards it
    guard = threading.Timer(60.0, proc.kill)
    guard.start()
    code = proc.wait()
    seconds = time.perf_counter() - start
    guard.cancel()
    return seconds, code


def _outputs(artifact: dict) -> dict:
    keys = ("tau_hat", "se", "sigma2", "nu2")
    out = {k: artifact[k] for k in keys if k in artifact}
    for pattern, cal in artifact.get("calibrations", {}).items():
        out[f"calibration[{pattern}]"] = {"c_y": cal["c_y"], "c_d": cal["c_d"]}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    begun = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "isoeffect", "cli.py")):
        print(f"error: no isoeffect sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    generate, argv, n_sets = workloads.WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    out_dir = os.path.join(work, "outputs")
    os.makedirs(out_dir)
    in_dirs, truths = [], []
    for k in range(1 if args.trace else n_sets):  # the traced run uses the first set
        in_dirs.append(os.path.join(work, f"inputs-set{k}"))
        os.makedirs(in_dirs[-1])
        truths.append(generate(in_dirs[-1], workloads.set_seed(args.seed, k)))

    env = {k: v for k, v in os.environ.items() if k != "ISOEFFECT_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    setup = [] if args.trace else [_time_help(env) for _ in range(SETUP_REPEATS)]
    job = {
        "root": ROOT, "workload": args.workload, "in_dirs": in_dirs, "out_dir": out_dir,
        "trace": bool(args.trace),
        # work counts, which must repeat exactly between two traced runs
        "count_metrics": [m["name"] for m in spec["per_layer"] if m["unit"] == "count"],
        "budget_s": args.seconds - (time.perf_counter() - begun),
    }
    job_path = os.path.join(work, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    worker = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), job_path],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        timeout=RUN_LIMIT_S - (time.perf_counter() - begun),
    )
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)

    if "0" not in result["artifacts"]:
        print(f"error: the first input set produced no artifact: {result['problems']}",
              file=sys.stderr)
        return 1
    artifacts = [result["artifacts"].get(str(k)) for k in range(len(in_dirs))]
    problems = result["problems"] + [f"setup run exited {code}" for _, code in setup if code]
    values = {"wall_s": result["wall_s"], "peak_rss_mb": result["peak_rss_mb"]}
    if setup:
        values["setup_s"] = statistics.median(s for s, _ in setup)
    if args.trace:
        values.update(result["layers"])
        values["trace.overhead_s"] = statistics.median(result["traced_s"]) - values["wall_s"]
        values["estimator.tau_abs_err"] = abs(artifacts[0]["tau_hat"] - truths[0]["tau"])
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    record = {
        "machine": _machine(),
        "workload": {"name": args.workload, "seed": args.seed, "trace": args.trace, "argv": argv},
        "input_sets": [
            {"seed": workloads.set_seed(args.seed, k), "truth": truths[k],
             "outputs": artifacts[k] and _outputs(artifacts[k]),
             "artifact_sha256": result["artifact_sha256"].get(str(k)),
             "wall_s_each": result["times"][k]}
            for k in range(len(in_dirs))
        ],
        "chosen": result.get("chosen"),
        "setup_s_each": [s for s, _ in setup],
        "traced_s_each": result.get("traced_s"),
        "problems": problems,
        "metrics": metrics,
    }
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record, indent=1))
    failed = result["failed"] + sum(1 for _, code in setup if code)
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"] + len(setup),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
