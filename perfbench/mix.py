"""The ``service-mix`` workload: the ``repro serve`` daemon under two
closed-loop clients.

Before any round, a preparing daemon executes the checkpoint studies
and stops, leaving their RunStore checkpoints in a template state
directory.  A round then copies those checkpoints into a fresh state
directory and starts a daemon on it: set-up, timed from spawn until the
daemon answers ``/healthz`` and has finished a warm-up study of its own.
The daemon then serves the mix (the measured phase) and stops.  Every
round starts from the same state, so the rounds do identical work.

The mix is a fixed set of small tiny-scale studies: ``executed`` ones
(distinct specs, each submitted three times, so the first submission
executes and the rest are answered by the memory tier) and the
checkpoint studies (each submitted twice: the checkpoint tier answers
first, the memory tier after).  Each client opens with its own
executed study; the seed shuffles the other submissions and deals them
to the two clients, which submit, follow each study's event stream to
its end and fetch its results before sending the next one.
``study_s`` is the wall time to drain the mix.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import common
import ledger
from checks import check_rows, check_service
from repro.api import ServiceClient, StudySpec, run_study
from repro.experiments.store import result_to_dict

CLIENTS = 2
#: Distinct executed studies per round: one per client (and per study
#: thread of the daemon).
EXECUTED = CLIENTS
CHECKPOINTED = 2
#: Submissions per executed spec (the first executes, the rest dedup).
SUBMISSIONS_PER_EXECUTED = 3
_TGA_PAIRS = (("6tree", "eip"), ("6gen", "det"), ("6graph", "6hit"), ("6sense", "6scan"))
_LISTENING = re.compile(r"listening on (http://\S+)")


def executed_specs() -> list[StudySpec]:
    return [
        StudySpec(scale="tiny", seed=9000 + i, budget=1000, dataset="active",
                  tgas=_TGA_PAIRS[i % len(_TGA_PAIRS)], ports=("icmp",))
        for i in range(EXECUTED)
    ]


def checkpoint_specs() -> list[StudySpec]:
    return [
        StudySpec(scale="tiny", seed=8000 + i, budget=200, dataset="full",
                  tgas=("6tree",), ports=("icmp",))
        for i in range(CHECKPOINTED)
    ]


def warmup_spec() -> StudySpec:
    return StudySpec(scale="tiny", seed=7000, budget=200, dataset="full",
                     tgas=("6gen",), ports=("icmp",))


def _default_sigint() -> None:
    """Give the daemon the default SIGINT disposition.  A shell starts
    background jobs with SIGINT ignored, and an ignored signal stays
    ignored across exec: the daemon would not see ``stop``'s SIGINT."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Daemon:
    """One ``repro serve`` process on a loopback ephemeral port."""

    def __init__(self, state_dir: Path, log: Path, trace_path: Path | None) -> None:
        serve = ["--port", "0", "--state-dir", str(state_dir)]
        if trace_path is None:
            command = [sys.executable, "-u", "-m", "repro", "serve", *serve]
        else:
            command = [sys.executable, "-u", str(Path(__file__).with_name("daemon.py")),
                       str(trace_path), *serve]
        self.log = open(log, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=common.ROOT, stdout=subprocess.PIPE, stderr=self.log, text=True,
            preexec_fn=_default_sigint,
        )
        line = self.process.stdout.readline()
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r} (see {log})")
        self.url = match.group(1)

    def peak_rss_mb(self) -> float:
        return common.process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGINT (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


def follow(client: ServiceClient, spec: StudySpec) -> dict:
    """Submit, follow the event stream to its end, fetch the results."""
    started = time.perf_counter()
    record = client.submit(spec)
    submitted = time.perf_counter()
    running_at = None
    for event in client.events(record["id"]):
        if running_at is None and event.get("type") == "study" and event.get("state") == "running":
            running_at = time.perf_counter()
    finished = time.perf_counter()
    state = client.get(record["id"])["state"]
    rows = client.results(record["id"])["results"] if state == "done" else []
    return {
        "tier": record["dedup"],
        "submit_s": submitted - started,
        "turnaround_s": finished - started,
        "queue_wait_s": None if running_at is None else running_at - started,
        "done": state == "done" and len(rows) == spec.size,
    }


def _counters(client: ServiceClient) -> dict[str, int]:
    names = {
        "repro_service_completed_total": "executed",
        "repro_service_dedup_memory_total": "dedup_memory",
        "repro_service_dedup_checkpoint_total": "dedup_checkpoint",
    }
    found = {value: 0 for value in names.values()}
    for line in client.metrics().splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in names:
            found[names[parts[0]]] = int(float(parts[1]))
    return found


def _start(state_dir: Path, index: int, trace_path: Path | None) -> tuple[Daemon, float, float]:
    """Start a daemon and run its warm-up study; returns it with the
    start and end of its set-up."""
    started = time.perf_counter()
    daemon = Daemon(state_dir, state_dir.parent / f"daemon-{index}.log", trace_path)
    try:
        with ServiceClient(daemon.url) as client:
            if client.health()["status"] != "ok":
                raise RuntimeError("daemon unhealthy")
            if not follow(client, warmup_spec())["done"]:
                raise RuntimeError("warm-up study did not finish")
    except BaseException:
        daemon.stop()
        raise
    return daemon, started, time.perf_counter()


def _prepare_checkpoints(template: Path, specs: list[StudySpec]) -> None:
    """Have a daemon execute ``specs`` into ``template``, then stop it."""
    daemon = Daemon(template, template.parent / "daemon-prepare.log", None)
    try:
        with ServiceClient(daemon.url) as client:
            for spec in specs:
                if not follow(client, spec)["done"]:
                    raise RuntimeError(f"checkpoint study seed {spec.seed} did not finish")
    finally:
        daemon.stop()


def _drain(url: str, plan: list[list[StudySpec]]) -> list[dict]:
    def client_loop(index: int, specs: list[StudySpec]) -> list[dict]:
        out = []
        with ServiceClient(url, tenant=f"client-{index}") as client:
            for spec in specs:
                try:
                    out.append(follow(client, spec))
                except Exception as error:  # noqa: BLE001 - counted as a failed operation
                    out.append({"tier": "error", "error": repr(error), "done": False})
        return out

    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        futures = [pool.submit(client_loop, i, specs) for i, specs in enumerate(plan)]
        return [item for future in futures for item in future.result()]


def _p50(values) -> float:
    values = [value for value in values if value is not None]
    return statistics.median(values) if values else 0.0


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    started = time.perf_counter()
    calibration = common.calibration_ms()
    executed = executed_specs()
    checkpointed = checkpoint_specs()
    rest = executed * (SUBMISSIONS_PER_EXECUTED - 1) + checkpointed * 2
    rng = random.Random(seed)
    rng.shuffle(rest)
    # Each client opens with an executed study of its own, so that the
    # two executions overlap in every round whatever the seed: which
    # studies run at once sets the daemon's peak memory.
    plan = [[executed[i]] + rest[i::CLIENTS] for i in range(CLIENTS)]
    submissions = [spec for specs in plan for spec in specs]
    expected = {
        "executed": len(executed),
        "dedup_checkpoint": len(checkpointed),
        "dedup_memory": len(submissions) - len(executed) - len(checkpointed),
    }

    workdir = common.make_workdir("mix")
    template = workdir / "template"
    problems: list[str] = []
    served: list = []
    daemon_peak = 0.0
    indices = itertools.count()

    def one_round() -> dict:
        nonlocal daemon_peak
        index = next(indices)
        state_dir = workdir / f"state-{index}"
        state_dir.mkdir()
        for checkpoint in template.glob("*.jsonl"):
            shutil.copy(checkpoint, state_dir / checkpoint.name)
        trace_path = workdir / f"daemon-trace-{index}.json" if trace else None
        daemon, spawn, ready = _start(state_dir, index, trace_path)
        try:
            with ServiceClient(daemon.url) as client:
                before = _counters(client)
            t1 = time.perf_counter()
            log = _drain(daemon.url, plan)
            t2 = time.perf_counter()
            daemon_peak = max(daemon_peak, daemon.peak_rss_mb())
            tally = _tally(log)
            with ServiceClient(daemon.url) as client:
                after = _counters(client)
                counters = {name: after[name] - before[name] for name in after}
                problems.extend(check_service(tally, counters, expected,
                                              sum(1 for item in log if not item["done"])))
                if not served:
                    served.extend(_fetch_served(
                        client, (rng.choice(executed), rng.choice(checkpointed))))
        finally:
            daemon.stop()
        shutil.rmtree(state_dir, ignore_errors=True)
        return {"setup_s": ready - spawn, "study_s": t2 - t1, "log": log, "tally": tally,
                "window": (spawn, ready, t1, t2), "trace_path": trace_path}

    try:
        _prepare_checkpoints(template, checkpointed)
        rounds = common.timed_rounds(seconds - (time.perf_counter() - started), one_round)
        chosen = common.median_round(rounds, "study_s")
        recording = json.loads(chosen["trace_path"].read_text()) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak = common.self_peak_rss_mb() + daemon_peak
    problems += _check_served(served)

    log = [entry for item in rounds for entry in item["log"]]
    for entry in log:
        if "error" in entry:
            print(f"perfbench: service-mix: submission failed: {entry['error']}", file=sys.stderr)
    outcome = common.Outcome(
        attempted=len(log),
        failed=sum(1 for entry in log if not entry["done"]),
        problems=problems,
        end_to_end={
            "setup_s": common.median_of(rounds, "setup_s"),
            "study_s": common.median_of(rounds, "study_s"),
            "peak_rss_mb": peak,
        },
    )
    if trace:
        spawn, ready, t1, t2 = chosen["window"]
        layers = common.layer_report(ledger.ledger(recording, spawn, ready),
                                     ledger.ledger(recording, t1, t2))
        layers.update({f"service.{name}": value for name, value in chosen["tally"].items()})
        fresh = [entry for entry in chosen["log"] if entry["tier"] == "none"]
        deduped = [entry for entry in chosen["log"] if entry["tier"] in ("memory", "checkpoint")]
        layers["service.turnaround_p50_s"] = _p50(entry["turnaround_s"] for entry in fresh)
        layers["service.queue_wait_p50_s"] = _p50(entry["queue_wait_s"] for entry in fresh)
        layers["service.submit_p50_ms"] = 1e3 * _p50(entry["submit_s"] for entry in fresh)
        layers["service.dedup_submit_p50_ms"] = 1e3 * _p50(entry["submit_s"] for entry in deduped)
        layers["host.calibration_ms"] = calibration
        outcome.per_layer = common.complete_layers(layers)
        common.write_trace("service-mix", seed, recording["spans"])
    return outcome


def _tally(log: list[dict]) -> dict[str, int]:
    tiers = {"executed": "none", "dedup_memory": "memory", "dedup_checkpoint": "checkpoint"}
    return {name: sum(1 for item in log if item["tier"] == tier) for name, tier in tiers.items()}


def _fetch_served(client: ServiceClient, specs) -> list:
    """The rows the daemon serves for ``specs``."""
    return [(spec, client.results(client.submit(spec)["id"])["results"]) for spec in specs]


def _check_served(served: list) -> list[str]:
    """Rows served over HTTP against in-process ``run_study``."""
    problems = []
    for spec, rows_served in served:
        local = run_study(spec)
        rows = [result_to_dict(local.get(tga, port)) for port in spec.ports for tga in spec.tgas]
        problems += check_rows(f"spec seed {spec.seed}", rows_served, rows)
    return problems
