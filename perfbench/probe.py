"""The ``internet-probe`` workload: streaming probes of the 1M-AS world.

The world is the ``internet`` preset (1M ASes, at most 1024 resident) at
master seed 42.  The seed draws a TGA-shaped target pool: 2,000 sparsely
sampled ASes, two routed /64s each, and in every /64 a burst of
low-byte IIDs (the pattern servers answer on) and random IIDs.  Twice
as many ASes as the resident budget forces topology derivation
under LRU eviction.  Set-up opens the world and derives the pool's
/64s (``derive_as``); it runs five times per run.  A round opens a
fresh world, so that every round starts with no AS resident, scans the
pool on ICMP through ``Scanner.scan`` and attributes the hits to ASes
(measured phase).  No TGA or dataset work runs here.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import time

import common
import ledger
from checks import check_probe
from repro.internet import InternetConfig, Port, SimulatedInternet
from repro.internet import topology
from repro.scanner import Scanner

WORLD_SEED = 42
POOL_ASES = 2_000
REGIONS_PER_AS = 2
LOW_BYTE_IIDS = 4
RANDOM_IIDS = 4
PORT = Port.ICMP
#: Pool addresses re-probed one at a time by the check.
RECHECK = 2_000
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5


def config() -> InternetConfig:
    return InternetConfig.internet(master_seed=WORLD_SEED)


def build_pool(world_config: InternetConfig, seed: int) -> list[int]:
    rng = random.Random(seed)
    pool: list[int] = []
    for rank in rng.sample(range(world_config.num_ases), POOL_ASES):
        # Through the module, so that a traced run sees the call.
        _, regions = topology.derive_as(world_config, rank)
        for _ in range(REGIONS_PER_AS):
            base = rng.choice(regions).net64 << 64
            pool.extend(base | rng.randrange(1, 256) for _ in range(LOW_BYTE_IIDS))
            pool.extend(base | rng.getrandbits(64) for _ in range(RANDOM_IIDS))
    rng.shuffle(pool)
    return pool


def _setup(seed: int) -> tuple[list[int], float, float]:
    """Open a world and derive the pool's /64s; the pool and the window."""
    t0 = time.perf_counter()
    world = SimulatedInternet(config())
    pool = build_pool(world.config, seed)
    return pool, t0, time.perf_counter()


def _one_round(pool: list[int], recorder) -> dict:
    world = SimulatedInternet(config())
    t1 = time.perf_counter()
    result = Scanner(world).scan(pool, PORT)
    by_as = world.registry.count_by_as(result.hits)
    t2 = time.perf_counter()
    out = {"study_s": t2 - t1, "hits": result.hits, "lazy": world.lazy_stats()}
    out["signature"] = (len(result.hits), len(by_as), out["lazy"]["materialized_ases"])
    if recorder is not None:
        data = recorder.drain()
        out["ledger"] = ledger.ledger(data, t1, t2)
        out["spans"] = data["spans"]
    return out


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    calibration = common.calibration_ms()
    recorder = ledger.Recorder() if trace else None
    latest: dict = {}

    def one_round() -> dict:
        latest.clear()
        item = _one_round(pool, recorder)
        latest["hits"] = item.pop("hits")
        return item

    started = time.perf_counter()
    with ledger.installed(recorder) if recorder else contextlib.nullcontext():
        setup_times = []
        for _ in range(SETUPS):
            pool, s0, s1 = _setup(seed)
            setup_times.append(s1 - s0)
        setup_ledger = ledger.ledger(recorder.drain(), s0, s1) if recorder else None
        rounds = common.timed_rounds(seconds - (time.perf_counter() - started), one_round)
    peak = common.self_peak_rss_mb()

    hits = latest["hits"]
    problems = check_probe(pool, hits, config(), PORT, rounds[-1]["lazy"], seed, RECHECK)
    if any(item["signature"] != rounds[0]["signature"] for item in rounds):
        problems.append("rounds of the same pool gave different results")

    outcome = common.Outcome(
        attempted=len(rounds) * len(pool),
        failed=0,
        problems=problems,
        end_to_end={
            "setup_s": statistics.median(setup_times),
            "study_s": common.median_of(rounds, "study_s"),
            "peak_rss_mb": peak,
        },
    )
    if recorder is not None:
        chosen = common.median_round(rounds, "study_s")
        layers = common.layer_report(setup_ledger, chosen["ledger"])
        layers["internet.materialized_ases"] = chosen["lazy"]["materialized_ases"]
        layers["internet.evicted_ases"] = chosen["lazy"]["evicted_ases"]
        layers["host.calibration_ms"] = calibration
        outcome.per_layer = common.complete_layers(layers)
        common.write_trace("internet-probe", seed, chosen["spans"])
    return outcome
