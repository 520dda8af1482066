"""Run ``repro serve`` with the layer wrappers installed.

Usage: ``python3 perfbench/daemon.py TRACE_JSON [serve arguments...]``.
The daemon serves exactly as ``python -m repro serve`` does; when it
stops (SIGINT), the recorded spans, self slices and counts are written
to ``TRACE_JSON`` for the benchmark to attribute.
"""

from __future__ import annotations

import sys

import ledger


def main(argv: list[str]) -> int:
    trace_path, serve_args = argv[0], argv[1:]
    from repro.cli import main as cli_main

    recorder = ledger.Recorder()
    with ledger.installed(recorder):
        status = cli_main(["serve", *serve_args])
    recorder.dump(trace_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
