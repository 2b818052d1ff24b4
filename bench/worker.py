"""Run one workload's CLI invocations in this process and report on them.

Usage: ``python bench/worker.py JOB.json``. The job names the checkout root,
the workload, its input directories (one per input set), an output directory,
the time budget and whether to trace. The worker imports ``isoeffect`` from
``<root>/src`` once, then times ``isoeffect.cli.main(argv)`` calls (wall time
after import), checks every artifact, and writes ``result.json`` into the
output directory. Its own peak resident memory is the workload's
``peak_rss_mb``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time
import traceback

TRACED_RUNS = 2  # counts must repeat exactly between them


def _peak_rss_mb() -> float:
    """High-water resident memory of this process's own address space.

    Read from ``VmHWM``, not ``ru_maxrss``: Linux carries the parent's
    high-water mark into ``ru_maxrss`` across exec, so it would count the
    input generation done before this worker started.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    return int(kib) / 1024.0


def _invoke(main, argv: list[str]) -> tuple[float, str | None]:
    """Wall time of one CLI call, and why it failed (None when it exited 0)."""
    start = time.perf_counter()
    try:
        code = main(argv)
    except Exception:  # a raising run is a failed run, not a crashed benchmark
        return time.perf_counter() - start, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    return seconds, None if code == 0 else f"exit code {code}"


def run(job: dict) -> dict:
    started = time.perf_counter()
    root = job["root"]
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import isoeffect.cli as cli
    import spans
    import workloads

    name, in_dirs, out_dir = job["workload"], job["in_dirs"], job["out_dir"]
    truths = []
    for in_dir in in_dirs:
        with open(os.path.join(in_dir, "truth.json"), encoding="utf-8") as fh:
            truths.append(json.load(fh))
    problems: list[str] = []
    artifacts: dict[int, bytes] = {}  # the first artifact of each input set

    def one(main, k: int, label: str) -> float:
        out = os.path.join(out_dir, f"artifact-set{k}-{label}.json")
        seconds, error = _invoke(main, workloads.workload_argv(name, in_dirs[k], out))
        if error is None:
            with open(out, "rb") as fh:
                data = fh.read()
            try:
                found = workloads.check_artifact(name, json.loads(data), truths[k])
            except ValueError as exc:
                found = [f"artifact does not parse: {exc}"]
            else:
                artifacts.setdefault(k, data)
                if data != artifacts[k]:
                    found.append("artifact differs from the set's first run's bytes")
            error = "; ".join(found) or None
        if error is not None:
            problems.append(f"set {k} {label}: {error}")
        return seconds

    times: list[list[float]] = [[] for _ in in_dirs]
    layers, chosen = [], None
    if job["trace"]:
        # one untraced call between the traced ones, so a drift in machine
        # speed falls on both sides of the overhead estimate
        for run_id in range(1, TRACED_RUNS + 1):
            recorder = spans.Recorder(run_id)
            with recorder.installed():
                one(recorder.wrap("cli.main", cli.main), 0, f"traced-{run_id}")
            with open(os.path.join(out_dir, "spans.jsonl"), "a", encoding="utf-8") as fh:
                recorder.dump(fh)
            layers.append(spans.layer_metrics(recorder.spans, truths[0].get("corpus_tokens", 0)))
            if run_id == 1:
                chosen = spans.chosen_hyperparameters(recorder.spans)
                times[0].append(one(cli.main, 0, "untraced-1"))
    else:
        # every input set once, then round-robin while the budget allows one
        # more call; a set run twice must give the same bytes
        calls = 0
        while calls < len(in_dirs) or (
                time.perf_counter() - started
                + statistics.median(t for ts in times for t in ts) <= job["budget_s"]):
            k = calls % len(in_dirs)
            times[k].append(one(cli.main, k, f"untraced-{len(times[k])}"))
            calls += 1

    result = {
        "times": times,
        # mean over the input sets of each set's median call
        "wall_s": statistics.mean(statistics.median(ts) for ts in times if ts),
        "attempted": sum(map(len, times)) + len(layers),
        "failed": len(problems),  # at most one problem per invocation so far
        "problems": problems,
        "peak_rss_mb": _peak_rss_mb(),
        "artifacts": {k: json.loads(data) for k, data in sorted(artifacts.items())},
        "artifact_sha256": {k: hashlib.sha256(data).hexdigest()
                            for k, data in sorted(artifacts.items())},
    }
    if layers:
        for key in job["count_metrics"]:
            if len({m[key] for m in layers}) != 1:
                problems.append(f"traced count {key} differs between runs: "
                                f"{[m[key] for m in layers]}")
        result["layers"] = layers[0]
        result["traced_s"] = [m["cli.main_s"] for m in layers]
        result["chosen"] = chosen
    return result


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(os.path.join(job["out_dir"], "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
