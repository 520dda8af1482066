"""Shared plumbing: paths, timing rounds, memory, host calibration and
the per-layer report every workload prints in traced mode."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import ledger

#: The checkout root (the benchmark lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout: daemon state, trace files.
WORK = ROOT / ".perfbench"


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of ``kind`` (``end_to_end`` or
    ``per_layer``), in the order ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    problems: list[str]
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)


def timed_rounds(seconds: float, one_round) -> list:
    """Call ``one_round`` while the next round, at the pace so far, still
    ends within ``seconds``; at least once.  Whole rounds only."""
    rounds = []
    started = time.perf_counter()
    while True:
        gc.collect()
        rounds.append(one_round())
        elapsed = time.perf_counter() - started
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def median_of(rounds: list, key: str) -> float:
    """Median of ``key`` over the measured rounds of a run.

    The first round is a warm-up whenever another follows: a fresh
    interpreter runs it slower (first calls, adaptive specialisation,
    heap growth).  The rounds of a run do identical work, so their
    median is the run's figure with the host's swings of a few seconds
    damped; swings that last minutes move every round alike.
    """
    return statistics.median(item[key] for item in rounds[1:] or rounds)


def median_round(rounds: list, key: str):
    """The measured round whose ``key`` is the (lower) median, so that
    figures reported from one round stay consistent with each other."""
    ordered = sorted(rounds[1:] or rounds, key=lambda item: item[key])
    return ordered[(len(ordered) - 1) // 2]


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident memory among reaped child processes."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: moves with the host only."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFF_FFFF
            table[acc & 1023] = i
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def layer_report(setup: dict, study: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round from its two phase ledgers.

    Layer seconds and counts cover both phases; ``unattributed_s`` is
    the measured phase's remainder and ``setup.unattributed_s`` the
    set-up's, so every layer time plus both remainders adds up to
    ``traced.setup_s + traced.study_s``.
    """
    report = {
        f"{layer}_s": setup["layers"][layer] + study["layers"][layer]
        for layer in ledger.LAYERS
    }
    report["unattributed_s"] = study["unattributed"]
    report["setup.unattributed_s"] = setup["unattributed"]
    report["traced.setup_s"] = setup["wall"]
    report["traced.study_s"] = study["wall"]
    counts: dict[str, float] = {}
    for phase in (setup, study):
        for name, value in phase["counts"].items():
            counts[name] = counts.get(name, 0) + value
    candidates = counts.get("tga.candidates", 0)
    report["tga.candidates"] = candidates
    report["tga.fresh_ratio"] = counts.get("tga.fresh", 0) / candidates if candidates else 0.0
    lookups = counts.get("tga.model_cache.hits", 0) + counts.get("tga.model_cache.misses", 0)
    report["tga.model_cache_hit_ratio"] = (
        counts.get("tga.model_cache.hits", 0) / lookups if lookups else 0.0
    )
    probes = counts.get("scanner.probes", 0)
    report["scanner.probes"] = probes
    report["scanner.hit_ratio"] = counts.get("scanner.hits", 0) / probes if probes else 0.0
    report["dealias.alias_probes"] = counts.get("dealias.alias_probes", 0)
    return report


def complete_layers(values: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, 0 where the workload does not reach it."""
    return {name: float(values.get(name, 0.0)) for name in metric_units("per_layer")}


def write_trace(workload: str, seed: int, spans: list) -> Path:
    """Write the spans of the reported round under ``.perfbench/``."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{workload}-{seed}.json"
    path.write_text(
        json.dumps(
            {
                "fields": ["id", "parent", "layer", "start", "end", "thread"],
                "spans": spans,
            }
        )
    )
    return path


def make_workdir(prefix: str) -> Path:
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{prefix}-{os.getpid()}"
    path.mkdir()
    return path
