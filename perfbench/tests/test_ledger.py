"""The tracing wrappers: identical behaviour, full restore, exact ledger."""

from __future__ import annotations

import threading
import time

import pytest

import common
import ledger
from repro.experiments import GridSpec, Study, run_grid
from repro.experiments.store import result_to_dict
from repro.internet import InternetConfig, Port
from repro.tga import get_model_cache


def _tiny_grid():
    get_model_cache().clear()
    study = Study(config=InternetConfig.tiny(master_seed=7), budget=300, round_size=150)
    dataset = study.constructions.all_active
    spec = GridSpec(datasets=(dataset,), tga_names=("6tree", "det", "6gen"),
                    ports=(Port.ICMP, Port.TCP80), budget=300)
    return run_grid(study, spec)


def _rows(results):
    return sorted((result_to_dict(run) for run in results.runs.values()),
                  key=lambda row: (row["tga"], row["port"]))


def _bindings() -> dict:
    """Every attribute the wrappers touch, by identity."""
    found = {}
    for owner, attribute, _, _ in ledger.targets():
        if attribute is not None:
            found[(owner, attribute)] = owner.__dict__[attribute]
        else:
            for module in ledger._repro_modules():
                for key, value in vars(module).items():
                    if value is owner:
                        found[(module.__name__, key)] = value
    return found


def test_wrappers_leave_results_identical_and_are_restored():
    before = _bindings()
    plain = _rows(_tiny_grid())
    recorder = ledger.Recorder()
    with ledger.installed(recorder):
        traced = _rows(_tiny_grid())
    assert traced == plain
    assert recorder.spans, "the traced run recorded nothing"
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_layer_times_and_unattributed_add_up_to_the_window():
    recorder = ledger.Recorder()
    with ledger.installed(recorder):
        t0 = time.perf_counter()
        study = Study(config=InternetConfig.tiny(master_seed=7), budget=300, round_size=150)
        dataset = study.constructions.all_active
        t1 = time.perf_counter()
        run_grid(study, GridSpec(datasets=(dataset,), tga_names=("6tree", "eip"),
                                 ports=(Port.ICMP,), budget=300))
        t2 = time.perf_counter()
    data = recorder.drain()
    setup, study_ledger = ledger.ledger(data, t0, t1), ledger.ledger(data, t1, t2)
    for phase in (setup, study_ledger):
        total = sum(phase["layers"].values()) + phase["unattributed"]
        assert total == pytest.approx(phase["wall"], abs=1e-9)
        assert phase["unattributed"] >= -1e-9
    assert study_ledger["layers"]["tga.prepare"] > 0
    assert setup["layers"]["datasets.collect"] > 0
    report = common.layer_report(setup, study_ledger)
    assert set(report) <= set(common.metric_units("per_layer")), "undeclared metric"
    layer_sum = sum(report[f"{layer}_s"] for layer in ledger.LAYERS)
    assert layer_sum + report["unattributed_s"] + report["setup.unattributed_s"] == pytest.approx(
        report["traced.setup_s"] + report["traced.study_s"], abs=1e-9
    )


def test_overlapping_threads_share_the_window():
    # Thread 1 busy in A over [0, 4]; thread 2 busy in B over [2, 6]
    # with a nested C over [3, 4]; nothing runs over [6, 10].
    slices = [
        ("A", 0.0, 4.0, 1),
        ("B", 2.0, 3.0, 2),
        ("C", 3.0, 4.0, 2),
        ("B", 4.0, 6.0, 2),
    ]
    data = {"spans": [], "slices": slices, "counts": [(1.0, "n", 2), (11.0, "n", 5)]}
    phase = ledger.ledger(data, 0.0, 10.0)
    assert phase["layers"]["A"] == pytest.approx(3.0)  # 2 alone + 2 shared
    assert phase["layers"]["B"] == pytest.approx(2.5)  # 0.5 shared + 2 alone
    assert phase["layers"]["C"] == pytest.approx(0.5)
    assert phase["unattributed"] == pytest.approx(4.0)
    assert phase["counts"] == {"n": 2}


def test_recorder_keeps_self_slices_per_thread():
    recorder = ledger.Recorder()

    def work():
        outer = recorder.enter("tga.prepare")
        inner = recorder.enter("scanner.scan")
        recorder.exit(inner)
        recorder.exit(outer)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    data = recorder.drain()
    assert len(data["spans"]) == 4
    parents = {span[0]: span[1] for span in data["spans"]}
    inner = [span for span in data["spans"] if span[2] == "scanner.scan"]
    assert all(parents[span[0]] is not None for span in inner)
    assert all(span[2] != "scanner.scan" or span[1] for span in data["spans"])
