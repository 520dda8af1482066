"""Correctness checks on workload outputs.

Every check compares against the simulated world's ground truth, a
property the method must have, or an independent re-execution — never
against a stored copy of earlier output.  Each returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import random

from repro.dealias import OfflineDealiaser
from repro.experiments.store import result_to_dict
from repro.internet import SimulatedInternet

#: Problems reported per check before the rest are summarised.
_MAX_LISTED = 5


def _capped(problems: list[str]) -> list[str]:
    if len(problems) <= _MAX_LISTED:
        return problems
    return problems[:_MAX_LISTED] + [f"... and {len(problems) - _MAX_LISTED} more"]


def check_grid(results, seeds, config, budget: int) -> list[str]:
    """A grid's cells against a freshly opened copy of its world.

    * every clean hit answers a scalar ground-truth probe on its port,
      and none lies in a published alias prefix (offline dealiasing must
      have removed those);
    * every aliased hit lies in a truly aliased region;
    * ``generated`` is within budget, clean hits hold no seed and do not
      overlap aliased hits;
    * the reported metrics match counts recomputed from the run's sets.
    """
    world = SimulatedInternet(config)
    published = OfflineDealiaser.from_internet(world)
    problems: list[str] = []
    if results.failed_cells:
        problems.append(f"{len(results.failed_cells)} cells failed")
    if len(results.runs) != results.spec.size:
        problems.append(f"{len(results.runs)} of {results.spec.size} cells present")
    for (tga, dataset, port), run in sorted(
        results.runs.items(), key=lambda item: (item[0][0], item[0][1], item[0][2].value)
    ):
        cell = f"{tga}/{port.value}"
        clean, aliased = run.clean_hits, run.aliased_hits
        if run.generated > budget:
            problems.append(f"{cell}: generated {run.generated} > budget {budget}")
        if clean & aliased:
            problems.append(f"{cell}: {len(clean & aliased)} hits both clean and aliased")
        if clean & seeds:
            problems.append(f"{cell}: {len(clean & seeds)} clean hits are seeds")
        silent = sum(1 for address in clean if not world.probe(address, port))
        if silent:
            problems.append(f"{cell}: {silent} clean hits do not answer a probe")
        listed = sum(1 for address in clean if published.is_aliased(address))
        if listed:
            problems.append(f"{cell}: {listed} clean hits lie in published alias prefixes")
        unaliased = sum(1 for address in aliased if not world.is_aliased_truth(address))
        if unaliased:
            problems.append(f"{cell}: {unaliased} aliased hits are not aliased")
        ases = {world.asn_of(address) for address in clean} - {None}
        expected = (len(clean), len(ases), len(aliased))
        reported = (run.metrics.hits, run.metrics.ases, run.metrics.aliases)
        if reported != expected or set(run.active_ases) != ases:
            problems.append(
                f"{cell}: metrics (hits, ases, aliases) {reported} != recomputed {expected}"
            )
    return _capped(problems)


def check_same_runs(label: str, first, second) -> list[str]:
    """Two executions of the same cells must agree field for field."""
    problems = []
    if set(first) != set(second):
        problems.append(f"{label}: cell sets differ")
    for key in sorted(set(first) & set(second), key=repr):
        if result_to_dict(first[key]) != result_to_dict(second[key]):
            problems.append(f"{label}: cell {key[0]}/{key[-1].value} differs")
    return _capped(problems)


def check_probe(pool, hits, config, port, lazy_stats: dict, seed: int, sample: int) -> list[str]:
    """A streaming probe pass against one-at-a-time re-probes.

    Hits must come from the pool and there must be some; ``sample``
    pool addresses (every sampled hit among them) re-probed singly on a
    freshly opened world, in an order unrelated to the pass, must give
    the same answers; and the pass must have evicted ASes, or it did not
    exercise the resident-AS budget.
    """
    problems = []
    if not hits:
        problems.append("no hits")
    stray = hits - set(pool)
    if stray:
        problems.append(f"{len(stray)} hits are not in the pool")
    rng = random.Random(seed ^ 0x5EED)
    chosen = rng.sample(pool, min(sample, len(pool)))
    rng.shuffle(chosen)
    world = SimulatedInternet(config)
    wrong = sum(1 for address in chosen if world.probe(address, port) != (address in hits))
    if wrong:
        problems.append(f"{wrong} of {len(chosen)} re-probed addresses disagree")
    if lazy_stats.get("evicted_ases", 0) <= 0:
        problems.append("no AS was evicted; the resident-AS budget was not exercised")
    return _capped(problems)


def check_service(tally: dict, counters: dict, expected: dict, failed_states: int) -> list[str]:
    """Client tallies, the daemon's own counters and the mix's make-up
    must agree: every distinct spec executed exactly once."""
    problems = []
    if failed_states:
        problems.append(f"{failed_states} studies did not reach done")
    for name, want in expected.items():
        if tally.get(name) != want:
            problems.append(f"client tally {name}={tally.get(name)} != expected {want}")
        if counters.get(name) != want:
            problems.append(f"daemon counter {name}={counters.get(name)} != expected {want}")
    return problems


def check_rows(label: str, served: list[dict], local: list[dict]) -> list[str]:
    """Rows served over HTTP must equal an in-process execution's rows."""
    if served != local:
        return [f"{label}: served rows differ from in-process run_study"]
    return []
