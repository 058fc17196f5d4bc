"""Record reference.json: the program's outputs on the benchmark's inputs.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs one flow of each named workload (default: all) for every scene
seed 0..63 and stores what the correctness checks compare: correct
test predictions per classifier, and each sweep width's median and the
best width.  Sections of workloads not named are kept.  The committed
file was recorded from the seed commit 55cce3d, before any
optimisation; re-recording it to make a failing check pass defeats the
check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run

PATH = run.HERE / "reference.json"


def record(cli, name: str) -> dict:
    workload = run.WORKLOADS[name]
    section = {}
    for seed in range(run.SCENE_SEEDS):
        work = run.WORK / f"reference-{name}-{seed}"
        work.mkdir(parents=True)
        try:
            state = workload.setup(work, seed)
            flow = run.run_flow(cli, workload, state, work / "flow", None)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if flow.problems:
            raise SystemExit(f"{name} seed {seed}: {flow.problems}")
        section[str(seed)] = {k: v for k, v in flow.observed.items()
                              if k not in ("digests", "train_speedup")}
        print(name, seed, json.dumps(section[str(seed)]), flush=True)
    return section


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", choices=list(run.WORKLOADS),
                        default=list(run.WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    from elmkit import cli

    sections = {name: record(cli, name) for name in args.workload}
    refs = json.loads(PATH.read_text(encoding="utf-8")) if PATH.exists() else {}
    refs.update(sections)
    PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
