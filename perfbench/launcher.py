"""Start ``repro serve`` with the benchmark's layer spans installed.

    PYTHONPATH=src:. python3 -m perfbench.launcher serve --port 0 --warm tpch:scale_factor=0.15

Runs the ordinary ``repro`` command line with the wrappers of
:mod:`perfbench.tracing` in place, so nothing under ``src/`` changes.  When
the server stops (Ctrl-C / SIGINT drains it) it prints one line: the
``PERFBENCH-TRACE`` prefix and the JSON dump of the recorded spans.
"""

from __future__ import annotations

import json
import sys

import repro.cli
from perfbench import tracing
from perfbench.driver import TRACE_PREFIX


def main(argv: list[str]) -> int:
    recorder = tracing.Recorder()
    tracing.install(recorder)
    code = repro.cli.main(argv)
    print(TRACE_PREFIX + json.dumps(recorder.dump()), flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
