"""Each correctness check passes real output and rejects a corrupted copy."""

from __future__ import annotations

import dataclasses
import random

import pytest

from checks import check_grid, check_probe, check_rows, check_same_runs, check_service
from repro.experiments import GridSpec, Study, run_grid
from repro.experiments.store import result_to_dict
from repro.internet import InternetConfig, Port, SimulatedInternet
from repro.scanner import Scanner

BUDGET = 400


@pytest.fixture(scope="module")
def grid():
    config = InternetConfig.tiny(master_seed=42)
    study = Study(config=config, budget=BUDGET, round_size=200)
    dataset = study.constructions.all_active
    spec = GridSpec(datasets=(dataset,), tga_names=("6tree", "6gen"),
                    ports=(Port.ICMP, Port.TCP80), budget=BUDGET)
    return run_grid(study, spec), dataset.addresses, config


def _replace_run(results, key, **changes):
    corrupted = dataclasses.replace(results, runs=dict(results.runs))
    corrupted.runs[key] = dataclasses.replace(results.runs[key], **changes)
    return corrupted


def _busiest(results):
    return max(results.runs, key=lambda key: len(results.runs[key].clean_hits))


def test_grid_check_passes_real_output(grid):
    results, seeds, config = grid
    assert check_grid(results, seeds, config, BUDGET) == []


def test_grid_check_rejects_a_dropped_hit(grid):
    results, seeds, config = grid
    key = _busiest(results)
    run = results.runs[key]
    dropped = frozenset(sorted(run.clean_hits)[1:])
    corrupted = _replace_run(results, key, clean_hits=dropped)
    assert check_grid(corrupted, seeds, config, BUDGET)


def test_grid_check_rejects_an_alias_counted_as_clean(grid):
    results, seeds, config = grid
    key = _busiest(results)
    run = results.runs[key]
    world = SimulatedInternet(config)
    alias = world.published_alias_prefixes[0].value | 0x1234
    clean = run.clean_hits | {alias}
    ases = frozenset({world.asn_of(address) for address in clean} - {None})
    metrics = dataclasses.replace(run.metrics, hits=len(clean), ases=len(ases))
    corrupted = _replace_run(results, key, clean_hits=clean, active_ases=ases, metrics=metrics)
    assert any("alias" in problem for problem in check_grid(corrupted, seeds, config, BUDGET))


def test_grid_check_rejects_a_seed_counted_as_a_hit(grid):
    results, seeds, config = grid
    key = _busiest(results)
    run = results.runs[key]
    clean = run.clean_hits | {min(seeds)}
    corrupted = _replace_run(results, key, clean_hits=clean)
    assert check_grid(corrupted, seeds, config, BUDGET)


def test_serial_recheck_rejects_a_differing_cell(grid):
    results, _, _ = grid
    key = _busiest(results)
    assert check_same_runs("same", results.runs, dict(results.runs)) == []
    changed = _replace_run(results, key, probes_sent=results.runs[key].probes_sent + 1)
    assert check_same_runs("changed", results.runs, changed.runs)


@pytest.fixture(scope="module")
def probe_pass():
    config = InternetConfig.internet(master_seed=42)
    config = dataclasses.replace(config, max_resident_ases=8)
    world = SimulatedInternet(config)
    rng = random.Random(3)
    pool = []
    for rank in rng.sample(range(config.num_ases), 40):
        region = world.topology.regions_for_rank(rank)[0]
        pool.extend((region.net64 << 64) | iid for iid in range(1, 9))
    hits = Scanner(world).scan(pool, Port.ICMP).hits
    return pool, hits, config, world.lazy_stats()


def test_probe_check_passes_real_output(probe_pass):
    pool, hits, config, stats = probe_pass
    assert hits
    assert check_probe(pool, hits, config, Port.ICMP, stats, seed=1, sample=len(pool)) == []


def test_probe_check_rejects_a_dropped_hit(probe_pass):
    pool, hits, config, stats = probe_pass
    dropped = set(hits) - {min(hits)}
    assert check_probe(pool, dropped, config, Port.ICMP, stats, seed=1, sample=len(pool))


def test_probe_check_rejects_a_hit_outside_the_pool(probe_pass):
    pool, hits, config, stats = probe_pass
    stray = set(hits) | {max(pool) + 1}
    assert check_probe(pool, stray, config, Port.ICMP, stats, seed=1, sample=len(pool))


def test_probe_check_requires_eviction(probe_pass):
    pool, hits, config, stats = probe_pass
    assert check_probe(pool, hits, config, Port.ICMP, {**stats, "evicted_ases": 0}, 1, 10)


def test_service_check_rejects_a_duplicate_execution():
    expected = {"executed": 3, "dedup_memory": 6, "dedup_checkpoint": 2}
    assert check_service(dict(expected), dict(expected), expected, 0) == []
    duplicated = {**expected, "executed": 4, "dedup_memory": 5}
    assert check_service(duplicated, dict(expected), expected, 0)
    assert check_service(dict(expected), duplicated, expected, 0)
    assert check_service(dict(expected), dict(expected), expected, failed_states=1)


def test_rows_check_rejects_a_dropped_hit(grid):
    results, _, _ = grid
    rows = [result_to_dict(run) for run in results.runs.values()]
    assert check_rows("same", rows, [dict(row) for row in rows]) == []
    corrupted = [dict(row) for row in rows]
    busiest = max(range(len(rows)), key=lambda i: len(rows[i]["clean_hits"]))
    corrupted[busiest]["clean_hits"] = corrupted[busiest]["clean_hits"][1:]
    assert check_rows("dropped", corrupted, rows)
