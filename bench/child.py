"""One workload run in its own process; started by ``bench/run.py``.

Usage: ``python3 bench/child.py JOB.json`` with ``PYTHONPATH`` pointing at
the checkout's ``src``.  In ``setup`` mode the child imports the package,
loads the config and reports when it became ready.  In ``run`` mode it then
runs the closed loop: one warm-up iteration (whose outputs every later
iteration must match byte for byte), then iterations until ``seconds`` have
passed.  Each iteration writes into a fresh directory: rewriting a file in
place makes ext4 flush it on close, which would time the disk, not the
program.  A traced run alternates traced and untraced iterations so the
tracing overhead is measured on the same process and inputs.  The result
goes to the job's ``result`` file as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def main(job_path) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    import fedwireless
    from fedwireless import config as fconfig

    source = Path(job["src"]).resolve()
    if source not in Path(fedwireless.__file__).resolve().parents:
        print(f"fedwireless imported from {fedwireless.__file__}, not {source}", file=sys.stderr)
        return 2
    config = fconfig.load_config(job["config"])
    ready = time.monotonic()
    if job["mode"] == "setup":
        Path(job["result"]).write_text(json.dumps({"ready": ready}), encoding="utf-8")
        return 0
    result = run(job, config)
    result["ready"] = ready
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def run(job, config) -> dict:
    import resource
    import shutil
    import traceback

    from fedwireless import assignment, bounds, cli, harness

    import check
    import layers
    from fingerprint import fingerprint

    command = job["command"]
    csv_name = "runs.csv" if command == "simulate" else "bound.csv"
    tracer = layers.Tracer(job["workload"]) if job["trace"] else None
    slope_limit = []

    def iteration(outdir):
        """One workload iteration; returns (exit code, output bytes)."""
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main([command, job["config"], "--outdir", str(outdir)])
            if command == "bound":
                users, _ = harness.build_topology(config, config.seeds[0])
                limit = bounds.convergence_slope_limit(users, config.network, config.fading)
                slope_limit.append(limit)
                print(repr(limit))
        # The CLI prints the output path, which differs per iteration.
        printed = buffer.getvalue().replace(str(outdir), "OUTDIR")
        return code, printed.encode() + (outdir / csv_name).read_bytes()

    captured = []
    original_assign = assignment.hungarian_assign

    def capture(edges):
        decision = original_assign(edges)
        captured.append((edges, decision))
        return decision

    problems = []
    iterations = []
    reference = None
    origin_ns = time.perf_counter_ns()
    started = time.perf_counter()
    while True:
        number = len(iterations)
        outdir = Path(job["outdir"]) / str(number)
        warm_up = number == 0
        traced = tracer is not None and number % 2 == 1
        if warm_up:
            assignment.hungarian_assign = capture
        if traced:
            tracer.iteration = number
            tracer.install()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code, output = iteration(outdir)
            if warm_up:
                reference = output
            ok = code == 0 and output == reference
            if code != 0:
                problems.append(f"iteration {number}: exit code {code}")
            elif not ok:
                problems.append(f"iteration {number}: output differs from iteration 0")
        except Exception:
            ok = False
            problems.append(f"iteration {number}: {traceback.format_exc()}")
        finally:
            seconds = time.perf_counter() - start
            cpu_seconds = time.process_time() - cpu_start
            assignment.hungarian_assign = original_assign
            if traced:
                tracer.uninstall()
        if traced and ok:
            tracer.counters[number]["output_bytes"] = (outdir / csv_name).stat().st_size
        if not warm_up:
            shutil.rmtree(outdir, ignore_errors=True)
        iterations.append(
            {"seconds": seconds, "cpu_seconds": cpu_seconds, "traced": traced, "ok": ok}
        )
        kinds = {it["traced"] for it in iterations[1:]}
        enough = len(kinds) == 2 if tracer is not None else bool(kinds)
        if enough and time.perf_counter() - started >= job["seconds"]:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # The warm-up's outputs, which every successful iteration reproduced.
    outdir = Path(job["outdir"]) / "0"
    try:
        if command == "simulate":
            output_problems = check.simulate_problems(config, outdir, captured)
        else:
            limit = slope_limit[0] if slope_limit else float("nan")
            output_problems = check.bound_problems(config, outdir, captured, limit)
        outputs = check.output_digests(outdir, command)
    except Exception:
        output_problems = [f"checker: {traceback.format_exc()}"]
        outputs = {"sha256": {}, "allocation_digests": {}}
    if output_problems:
        problems += output_problems
        for it in iterations:
            it["ok"] = False

    result = {
        "iterations": iterations,
        "peak_rss_kb": peak_rss_kb,
        "problems": problems,
        "outputs": outputs,
        "fingerprint": fingerprint(job["seed"]),
    }
    if tracer is not None:
        tracer.write(job["trace_file"], origin_ns)
        per_iteration = layers.layer_metrics(tracer.spans, tracer.counters)
        keys = next(iter(per_iteration.values())).keys()
        result["layers"] = {key: [m[key] for m in per_iteration.values()] for key in keys}
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
