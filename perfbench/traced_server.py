"""Run ``python -m repro serve`` with the benchmark's spans installed.

Usage: ``python3 perfbench/traced_server.py SPANS.json serve --port 0 ...``

Everything after the first argument goes to ``repro``'s own CLI, so the
traced server is the same server; the spans its shard threads recorded
are written to ``SPANS.json`` once it has drained and exited.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import SpanRecorder, install  # noqa: E402


def main() -> int:
    spans_out = Path(sys.argv[1])
    from repro.__main__ import main as repro_main

    recorder = SpanRecorder(process="server")
    with install(recorder):
        code = repro_main(sys.argv[2:])
    spans_out.write_text(json.dumps([dataclasses.asdict(s) for s in recorder.spans]))
    return code


if __name__ == "__main__":
    sys.exit(main())
