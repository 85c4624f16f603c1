"""Benchmark of the `tda` CLI on seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload rips|levelset|zigzag --seed N --seconds S --trace 0|1

The run writes the workload's inputs for seed N under `.bench_work/` and
makes untraced passes (`bench/worker.py`, each a fresh interpreter) for S
seconds, at least MIN_PASSES of them, checking every job's output with
`bench/workloads.py`. With --trace 1 it then makes TRACED_PASSES passes of
`bench/layers.py` over the inputs of every workload. bench/README.md
describes the metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Metric names and units come from
BENCHMARK.json at the root of the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3
TRACED_PASSES = 3
RUN_LIMIT_S = 170.0  # a run has to end within 180 s


class BenchError(Exception):
    """The benchmark could not measure; the run exits non-zero."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark the tda CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _python(script, arg, env, deadline):
    """Run a bench script in a fresh interpreter; return its last JSON line."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"no time left to run {script}")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, script), arg],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def untraced_pass(name, inputs, jobs_path, src, env, deadline):
    """One worker pass; returns its measurements and one problem per job."""
    for job in inputs.jobs:
        if job.output and os.path.exists(job.output):
            os.remove(job.output)
    res = _python("worker.py", jobs_path, env, deadline)
    if not os.path.abspath(res["module"]).startswith(src + os.sep):
        raise BenchError(f"imported tda.cli from {res['module']}, not from {src}")
    texts = []
    for job, r in zip(inputs.jobs, res["jobs"]):
        if r["code"] != 0:
            texts.append("")
        elif job.output:
            texts.append(_read_text(job.output) if os.path.exists(job.output) else "")
        else:
            texts.append(r["stdout"])
    problems = workloads.check(name, inputs, texts)
    for i, r in enumerate(res["jobs"]):
        if r["code"] != 0:
            problems[i] = f"exit {r['code']}"
    res["problems"] = problems
    return res


def traced_passes(files, workdir, env, deadline):
    spec = _write_json(os.path.join(workdir, "layers.json"),
                       {"passes": TRACED_PASSES, "files": files})
    return _python("layers.py", spec, env, deadline)


def per_layer_metrics(declared, passes, wall_s, workload):
    """Medians of the traced times, and counts taken from the first pass.

    Returns the metrics and, per traced pass, its problems: the pass's own
    output checks and every count that differs from the first pass.
    """
    values = {}
    problems = [list(p["problems"]) for p in passes]
    for name, unit in declared.items():
        if name == "trace.overhead_s":
            values[name] = statistics.median(p["group_s"][workload] for p in passes) - wall_s
            continue
        seen = [p["values"].get(name) for p in passes]
        if any(v is None for v in seen):
            raise BenchError(f"the traced run recorded no value for {name}")
        if unit == "s":
            values[name] = statistics.median(seen)
            continue
        values[name] = seen[0]
        for i, v in enumerate(seen):
            if v != seen[0]:
                problems[i].append(f"count {name} is {v} in traced pass {i}, {seen[0]} in pass 0")
    return values, problems


def run(args, spec, root, workdir):
    deadline = time.perf_counter() + RUN_LIMIT_S
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    inputs = {args.workload: workloads.make_inputs(
        args.workload, args.seed, os.path.join(workdir, args.workload))}
    jobs_path = _write_json(os.path.join(workdir, "jobs.json"),
                            [job.argv for job in inputs[args.workload].jobs])

    start = time.perf_counter()
    passes = []
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(untraced_pass(args.workload, inputs[args.workload], jobs_path,
                                    src, env, deadline))
    problems = [p for res in passes for p in res["problems"] if p]
    attempted = sum(len(res["problems"]) for res in passes)
    failed = len(problems)

    e2e = {
        "wall_s": statistics.median(res["wall_s"] for res in passes),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in passes),
        "setup_s": statistics.median(res["setup_s"] for res in passes),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(units) != set(e2e):
        raise BenchError(f"BENCHMARK.json lists {sorted(units)}, the run measures {sorted(e2e)}")
    shown = {name: (value, units[name]) for name, value in e2e.items()}
    reported = e2e

    if args.trace:
        for name in workloads.WORKLOADS:
            if name not in inputs:
                inputs[name] = workloads.make_inputs(name, args.seed, os.path.join(workdir, name))
        traced = traced_passes({n: i.files for n, i in inputs.items()}, workdir, env, deadline)
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layer_values, pass_problems = per_layer_metrics(
            declared, traced, e2e["wall_s"], args.workload)
        attempted += len(traced)
        failed += sum(1 for p in pass_problems if p)
        problems += [p for ps in pass_problems for p in ps]
        shown.update({name: (v, declared[name]) for name, v in layer_values.items()})
        reported = layer_values
        units = declared

    shown["fail_rate"] = (failed / attempted, "ratio")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes")
    for name, (value, unit) in shown.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in reported.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tda", "cli.py")):
        print(f"error: no tda sources under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        run(args, spec, root, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
