"""The ``paper-grid`` and ``grid-parallel`` workloads.

Both run the paper's unit of work — every TGA × ICMP and TCP80 on the
all-active seed construction — through ``Study`` + ``run_grid``.  The
world is fixed (the tiny preset at master seed 42, budget 5,000 per
cell) so that every seed does the same work; the seed orders the cells
and picks what the checks re-examine.  A round builds a fresh study from nothing (set-up) and runs
the grid on it with a cold model cache (measured phase), as a user's
process does once.
"""

from __future__ import annotations

import contextlib
import random
import time

import common
import ledger
from checks import check_grid, check_same_runs
from repro.api import ExecutionPolicy, run_grid
from repro.experiments import GridSpec, Study
from repro.internet import InternetConfig, Port
from repro.tga import ALL_TGA_NAMES, get_model_cache

WORLD_SEED = 42
BUDGET = 5_000
ROUND_SIZE = 1_000
PORTS = (Port.ICMP, Port.TCP80)
#: Worker processes of ``grid-parallel`` (the host's ``nproc``).
WORKERS = 2
#: Cells of ``grid-parallel`` re-run serially after timing.
RECHECK_CELLS = 2


def config() -> InternetConfig:
    return InternetConfig.tiny(master_seed=WORLD_SEED)


def grid_spec(dataset, seed: int) -> GridSpec:
    rng = random.Random(seed)
    tgas = list(ALL_TGA_NAMES)
    rng.shuffle(tgas)
    ports = list(PORTS)
    rng.shuffle(ports)
    return GridSpec(datasets=(dataset,), tga_names=tuple(tgas), ports=tuple(ports), budget=BUDGET)


def _signature(results) -> tuple:
    return tuple(
        sorted(
            (tga, port.value, run.generated, run.metrics.hits, run.metrics.ases, run.metrics.aliases)
            for (tga, _, port), run in results.runs.items()
        )
    )


def _one_round(seed: int, workers: int, recorder) -> dict:
    get_model_cache().clear()
    policy = ExecutionPolicy(workers=workers) if workers > 1 else None
    t0 = time.perf_counter()
    study = Study(config=config(), budget=BUDGET, round_size=ROUND_SIZE)
    dataset = study.constructions.all_active
    t1 = time.perf_counter()
    cpu_before = common.children_cpu_s()
    results = run_grid(study, grid_spec(dataset, seed), policy=policy)
    t2 = time.perf_counter()
    study_s = t2 - t1
    executed = sum(results.wall_seconds.values())
    out = {
        "setup_s": t1 - t0,
        "study_s": study_s,
        "results": results,
        "seeds": dataset.addresses,
        "signature": _signature(results),
        "failed": len(results.failed_cells),
        "lazy": study.internet.lazy_stats(),
        "experiments.overhead_s": study_s - executed / workers,
        "experiments.parallel_efficiency": executed / (workers * study_s),
        "experiments.worker_cpu_s": common.children_cpu_s() - cpu_before,
    }
    if recorder is not None:
        data = recorder.drain()
        out["ledgers"] = (ledger.ledger(data, t0, t1), ledger.ledger(data, t1, t2))
        out["spans"] = data["spans"]
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> common.Outcome:
    workers = WORKERS if name == "grid-parallel" else 1
    calibration = common.calibration_ms()
    recorder = ledger.Recorder() if trace else None
    latest: dict = {}

    def one_round() -> dict:
        # Only the newest round's results stay alive, so memory does not
        # depend on how many rounds fit into the run.
        latest.clear()
        item = _one_round(seed, workers, recorder)
        latest["results"] = item.pop("results")
        latest["seeds"] = item.pop("seeds")
        return item

    with ledger.installed(recorder) if recorder else contextlib.nullcontext():
        rounds = common.timed_rounds(seconds, one_round)
    peak = common.self_peak_rss_mb()
    if workers > 1:
        peak += workers * common.children_peak_rss_mb()

    results = latest["results"]
    problems = check_grid(results, latest["seeds"], config(), BUDGET)
    if any(item["signature"] != rounds[0]["signature"] for item in rounds):
        problems.append("rounds of the same grid gave different results")
    if workers > 1:
        problems += _recheck_serially(results, seed)

    outcome = common.Outcome(
        attempted=len(rounds) * results.spec.size,
        failed=sum(item["failed"] for item in rounds),
        problems=problems,
        end_to_end={
            "setup_s": common.median_of(rounds, "setup_s"),
            "study_s": common.median_of(rounds, "study_s"),
            "peak_rss_mb": peak,
        },
    )
    if recorder is not None:
        chosen = common.median_round(rounds, "study_s")
        layers = common.layer_report(*chosen["ledgers"])
        for key in ("experiments.overhead_s", "experiments.parallel_efficiency", "experiments.worker_cpu_s"):
            layers[key] = chosen[key]
        layers["internet.materialized_ases"] = chosen["lazy"]["materialized_ases"]
        layers["internet.evicted_ases"] = chosen["lazy"]["evicted_ases"]
        layers["host.calibration_ms"] = calibration
        outcome.per_layer = common.complete_layers(layers)
        common.write_trace(name, seed, chosen["spans"])
    return outcome


def _recheck_serially(results, seed: int) -> list[str]:
    """Re-run a few sampled cells in this process, on a fresh study."""
    rng = random.Random(seed ^ 0xC311)
    keys = rng.sample(sorted(results.runs, key=lambda key: (key[0], key[2].value)), RECHECK_CELLS)
    study = Study(config=config(), budget=BUDGET, round_size=ROUND_SIZE)
    dataset = study.constructions.all_active
    serial = {key: study.run(key[0], dataset, key[2], budget=BUDGET) for key in keys}
    return check_same_runs("serial re-run", {key: results.runs[key] for key in keys}, serial)
