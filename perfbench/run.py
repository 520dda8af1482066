"""Layer-ledger benchmark of the reproduction.

Run one workload and print its result as the last line of standard
output, one JSON object::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``study_s``,
``peak_rss_mb``); ``--trace 1`` wraps each layer's entry points and
reports the per-layer ledger instead.  ``--workload all`` runs every
workload, each in its own process.  ``--steady N`` runs a workload N
times with consecutive seeds and prints the median, quartiles and
spread of each end-to-end metric; ``--compare A B`` sets two saved
steadiness sets side by side against the bounds in ``BENCHMARK.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-grid", "grid-parallel", "internet-probe", "service-mix")


def _import_program() -> None:
    """Put the checkout's ``src/`` on the path; fail without the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    import repro  # noqa: F401 - fail here, before any measurement


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_program()
    import common

    if name in ("paper-grid", "grid-parallel"):
        import grids

        outcome = grids.run(name, seed, seconds, trace)
    elif name == "internet-probe":
        import probe

        outcome = probe.run(seed, seconds, trace)
    else:
        import mix

        outcome = mix.run(seed, seconds, trace)
    for problem in outcome.problems:
        print(f"perfbench: {name}: check failed: {problem}", file=sys.stderr)
    values = outcome.per_layer if trace else outcome.end_to_end
    units = common.metric_units("per_layer" if trace else "end_to_end")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in a fresh process; its last output line."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: {workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def steady(workload: str, runs: int, first_seed: int, seconds: float, save: Path | None) -> dict:
    """Run ``workload`` ``runs`` times and summarise each end-to-end metric."""
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(first_seed, first_seed + runs):
        result = _child(workload, seed, seconds, 0)
        if not result["correct"]:
            raise SystemExit(f"perfbench: {workload} seed {seed} failed its checks")
        shares.add(result["failed"] / result["attempted"])
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    summary = {"workload": workload, "seeds": [first_seed, first_seed + runs - 1],
               "failed_shares": sorted(shares), "values": values, "metrics": {}}
    for key, series in values.items():
        stats = _spread(series)
        stats["bound"] = bounds[key]
        summary["metrics"][key] = stats
        print(
            f"{workload:15s} {key:12s} median={stats['median']:.4f} q1={stats['q1']:.4f} "
            f"q3={stats['q3']:.4f} spread={stats['spread']:.3f} "
            f"(bound {stats['bound']}, a third {stats['bound'] / 3:.3f})"
        )
    if save is not None:
        save.parent.mkdir(parents=True, exist_ok=True)
        save.write_text(json.dumps(summary, indent=1))
    return summary


def compare(first: Path, second: Path) -> int:
    """Median gap between two steadiness sets against the bounds."""
    a, b = json.loads(first.read_text()), json.loads(second.read_text())
    worse = 0
    for key, stats in a["metrics"].items():
        gap = b["metrics"][key]["median"] / stats["median"] - 1.0
        flag = "ok" if gap <= stats["bound"] else "WORSE THAN BOUND"
        worse += flag != "ok"
        print(f"{a['workload']:15s} {key:12s} {stats['median']:.4f} -> "
              f"{b['metrics'][key]['median']:.4f} ({gap:+.3f}, bound {stats['bound']}) {flag}")
    if a["failed_shares"] != b["failed_shares"]:
        print(f"failed shares differ: {a['failed_shares']} vs {b['failed_shares']}")
        worse += 1
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N", help="run N times and summarise spreads")
    parser.add_argument("--save", type=Path, help="with --steady: write the set as JSON here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two saved --steady sets")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.steady:
        if args.workload == "all":
            parser.error("--steady needs one named --workload")
        steady(args.workload, args.steady, args.seed, args.seconds, args.save)
        return 0
    if args.workload == "all":
        combined = {}
        for name in WORKLOADS:
            started = time.perf_counter()
            combined[name] = _child(name, args.seed, args.seconds, args.trace)
            print(f"{name}: {json.dumps(combined[name])} ({time.perf_counter() - started:.1f}s)",
                  flush=True)
        print(json.dumps(combined))
        return 0 if all(item["correct"] for item in combined.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
