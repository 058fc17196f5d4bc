"""Correctness and determinism checks on the artifacts of one CLI flow.

``observe_*`` reads what a flow wrote and returns the values that are
compared with the pinned reference (``reference.json``, recorded from
the seed commit's outputs on the benchmark's own inputs); ``compare_*``
returns one message per failed check, so an empty list means correct.
``digests`` hashes the deterministic part of each artifact: every line
of a ``.rec`` file except the ``time_`` lines, and whole prediction CSVs.
"""

from __future__ import annotations

import hashlib
import statistics
from pathlib import Path

# Acceptance criterion 5 of the paper reproduction: the direct solve
# trains at least this many times faster than the iterative baseline.
SPEEDUP_FLOOR = 20.0


def read_records(path) -> list[tuple[str, str]]:
    pairs = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            pairs.append((key, value))
    return pairs


def digests(out_dir) -> dict[str, str]:
    """sha256 of each artifact's deterministic content, keyed by file name."""
    out = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.suffix == ".rec":
            kept = [line for line in path.read_text(encoding="utf-8").splitlines(keepends=True)
                    if not line.startswith("time_")]
            data = "".join(kept).encode("utf-8")
        elif path.suffix == ".csv":
            data = path.read_bytes()
        else:
            continue
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


def compare_digests(first: dict[str, str], later: dict[str, str]) -> list[str]:
    """Messages for every artifact whose deterministic content changed."""
    return [f"artifact {name} differs from the first flow of this run"
            for name in sorted(set(first) | set(later)) if first.get(name) != later.get(name)]


def _correct(accuracy: str, rows: int) -> int:
    return round(float(accuracy) * rows)


def observe_paired(out_dir, test_rows: int) -> dict:
    """Correct test predictions per classifier and the train speedup."""
    obs, kind = {}, None
    for key, value in read_records(Path(out_dir) / "report.rec"):
        if key == "classifier":
            kind = value
        elif key == "accuracy":
            obs[f"{kind}_correct"] = _correct(value, test_rows)
        elif key == "time_speedup":
            obs["train_speedup"] = float(value)
    return obs


def compare_paired(obs: dict, ref: dict) -> list[str]:
    problems = []
    for key in ("elm_correct", "mlp_correct"):
        if key not in obs:
            problems.append(f"report.rec has no {key.split('_')[0]} accuracy")
        elif abs(obs[key] - ref[key]) > 1:
            problems.append(f"{key} {obs[key]} is more than one test sample from {ref[key]}")
    speedup = obs.get("train_speedup", 0.0)
    if not speedup >= SPEEDUP_FLOOR:
        problems.append(f"train speedup {speedup:.1f}x is below the {SPEEDUP_FLOOR:.0f}x floor")
    return problems


def observe_sweep(out_dir, test_rows: int) -> dict:
    """Correct test predictions of each width's median seed, and best_h."""
    obs = {"median_correct": {}}
    for key, value in read_records(Path(out_dir) / "sweep.rec"):
        if key.startswith("hidden_"):
            accs = [float(a) for a in value.split(",")]
            obs["median_correct"][key[len("hidden_"):]] = _correct(statistics.median(accs), test_rows)
        elif key == "best_h":
            obs["best_h"] = int(value)
    return obs


def compare_sweep(obs: dict, ref: dict) -> list[str]:
    """Every width within one test sample; best_h must be a width whose
    reference median is within one test sample of the reference best."""
    problems = []
    ref_correct = ref["median_correct"]
    got = obs.get("median_correct", {})
    if sorted(got) != sorted(ref_correct):
        problems.append(f"sweep widths {sorted(got)} differ from {sorted(ref_correct)}")
    for width, correct in ref_correct.items():
        if width in got and abs(got[width] - correct) > 1:
            problems.append(f"width {width}: {got[width]} correct, reference {correct}")
    best = str(obs.get("best_h"))
    ref_best = ref_correct[str(ref["best_h"])]
    if best not in ref_correct or ref_correct[best] < ref_best - 1:
        problems.append(f"best_h {best} is not within one test sample of reference "
                        f"best_h {ref['best_h']}")
    return problems

