"""elmkit benchmark: two CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload paired-benchmark --seed 42 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

One process runs one workload in a closed loop: one client, one CLI flow
at a time through ``elmkit.cli.main(argv)``, each flow starting after
the previous one ended.  ``--seed`` picks the generated inputs (scene
seed ``seed % 64``); the program sees only the generated files.  After
setup and one untimed warm-up flow, flows repeat until ``--seconds``
have passed.  Each flow's artifacts are checked against
``reference.json`` and against the warm-up flow's artifacts; a nonzero
exit code or a failed check counts the flow as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced flows and reports the
per-layer metrics from the traced ones; their spans are written to
``.perfbench-out/``.  ``--workload all`` runs each workload in its own
process and prints every metric.  The last line of output is one JSON
object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks
import scenes
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

SCENE_SEEDS = 64    # reference.json pins outputs for scene seeds 0..63
SETUP_REPEATS = 5   # setup_s is the median of this many set-ups

IMPORT_PROBE = ("import time; t = time.perf_counter(); import elmkit.cli; "
                "print(time.perf_counter() - t)")


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Path, int], dict]
    argv: Callable[[dict, Path], list[str]]
    observe: Callable[[dict, Path], dict]
    compare: Callable[[dict, dict], list[str]]


@dataclass
class Flow:
    wall_s: float
    cpu_s: float
    minor_faults: int
    problems: list[str]
    observed: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def run_cli(cli, argv: list[str]) -> int:
    """One in-process CLI call; a crash counts as exit code 1."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a benchmark error
            traceback.print_exc()
            return 1


def setup_scene(work: Path, seed: int) -> dict:
    features, labels = scenes.draw_scene(seed)
    path = work / "scene.csv"
    scenes.write_scene(path, features, labels, f"perfbench scene seed {seed}")
    return {"scene": path}


WORKLOADS = {
    "paired-benchmark": Workload(
        setup=setup_scene,
        argv=lambda s, out: ["benchmark", "--data", str(s["scene"]), "--out", str(out)],
        observe=lambda s, out: checks.observe_paired(out, scenes.TEST_ROWS),
        compare=checks.compare_paired,
    ),
    "width-sweep": Workload(
        setup=setup_scene,
        argv=lambda s, out: ["sweep", "--data", str(s["scene"]), "--out", str(out)],
        observe=lambda s, out: checks.observe_sweep(out, scenes.TEST_ROWS),
        compare=checks.compare_sweep,
    ),
}


def import_seconds() -> float:
    """Import time of elmkit.cli in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def run_flow(cli, workload: Workload, state: dict, out: Path, ref: dict | None,
             tracer: spans.Tracer | None = None) -> Flow:
    """One CLI flow, checked against *ref* (unless None) and then removed."""
    out.mkdir(parents=True)
    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF)
    with spans.instrumented(tracer) if tracer else contextlib.nullcontext():
        start = perf_counter()
        code = run_cli(cli, workload.argv(state, out))
        wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    flow = Flow(wall_s=wall,
                cpu_s=(after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
                minor_faults=after.ru_minflt - before.ru_minflt,
                problems=[] if code == 0 else [f"exit code {code}"])
    if code == 0:
        try:
            flow.observed = workload.observe(state, out)
            if ref is not None:
                flow.problems += workload.compare(flow.observed, ref)
            flow.observed["digests"] = checks.digests(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            flow.problems.append(f"unreadable artifacts: {exc!r}")
    if tracer is not None:
        flow.layers = spans.layer_metrics(tracer.spans)
    shutil.rmtree(out)
    return flow


def machine_record(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "workload_seed": seed,
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(cli, name: str, scene_seed: int, ref: dict, seconds: int, trace: bool):
    """Set up, warm up, then run flows for *seconds*; with *trace*, every
    second flow is traced.  Returns (setup times, warm-up, [(flow, traced)],
    {flow index: tracer})."""
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    setups, flows, tracers = [], [], {}
    try:
        for i in range(SETUP_REPEATS):
            where = work / f"setup-{i}"
            where.mkdir(parents=True)
            started = perf_counter()
            state = workload.setup(where, scene_seed)
            elapsed = perf_counter() - started
            setups.append(import_seconds() + elapsed)

        warmup = run_flow(cli, workload, state, work / "flow-0", ref)
        started = perf_counter()
        while (perf_counter() - started < seconds
               or (trace and len({traced for _, traced in flows}) < 2)):
            index = len(flows) + 1
            if trace and index % 2 == 0:
                tracers[index] = spans.Tracer()
            flows.append((run_flow(cli, workload, state, work / f"flow-{index}", ref,
                                   tracers.get(index)), index in tracers))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setups, warmup, flows, tracers


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from elmkit import cli

    scene_seed = seed % SCENE_SEEDS
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[name][str(scene_seed)]
    print("machine " + json.dumps(machine_record(seed)))
    setups, warmup, flows, tracers = measure(cli, name, scene_seed, ref, seconds, trace)
    for index, tracer in tracers.items():
        save_spans(name, seed, index, tracer)

    everything = [warmup] + [f for f, _ in flows]
    failed = 0
    for flow in everything:
        flow.problems += checks.compare_digests(warmup.observed.get("digests", {}),
                                                flow.observed.get("digests", {}))
        for problem in flow.problems:
            print(f"failed flow: {problem}", file=sys.stderr)
        failed += bool(flow.problems)

    untraced = [f for f, traced in flows if not traced]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(f.wall_s for f in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        traced = [f for f, is_traced in flows if is_traced]
        for key in traced[0].layers:
            values[key] = statistics.median(f.layers[key] for f in traced)
        values["proc.cpu_s"] = statistics.median(f.cpu_s for f in traced)
        values["proc.minor_faults"] = statistics.median(f.minor_faults for f in traced)
        traced_wall = statistics.median(f.wall_s for f in traced)
        values["trace.overhead_s"] = traced_wall - values["wall_s"]
        self_sum = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
        print(f"info traced wall_s = {traced_wall:.6f} s, "
              f"sum of layer self times = {self_sum:.6f} s")
    speedups = [f.observed["train_speedup"] for f in everything if "train_speedup" in f.observed]
    if speedups:
        print(f"info train_speedup = {statistics.median(speedups):.2f} x "
              f"(floor {checks.SPEEDUP_FLOOR:.0f}x, checked per flow, not gated)")
    print(f"info untimed warm-up flow = {warmup.wall_s:.4f} s; untraced flows = "
          f"{[round(f.wall_s, 4) for f in untraced]} s; traced flows = {len(flows) - len(untraced)}")

    spec = benchmark_spec()
    metrics = {}
    for metric in spec["per_layer"] if trace else spec["end_to_end"]:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{name} {metric['name']} = {value} {metric['unit']}")
    return {"correct": failed == 0, "attempted": len(everything), "failed": failed,
            "metrics": metrics}


def save_spans(name: str, seed: int, index: int, tracer: spans.Tracer) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-flow{index}-spans.json"
    rows = [[s.name, s.start, s.end, s.parent, s.counts] for s in tracer.spans]
    path.write_text(json.dumps(rows), encoding="utf-8")


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Each workload in a fresh process, so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "elmkit" / "cli.py").is_file():
        print(f"perfbench: no elmkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
