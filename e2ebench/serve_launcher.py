"""Run ``repro serve`` with the benchmark's extra spans and a full span record.

Usage::

    python e2ebench/serve_launcher.py TRACE_OUT <repro serve arguments...>

The service installs its own ``ServiceCollector`` as the obs sink, and that
collector keeps only the newest spans.  The launcher has the service build
a subclass that also keeps every span, installs :func:`tracing.wrapped`,
hands the remaining arguments to ``repro.cli.main(["serve", ...])`` and,
once the service stops (SIGINT), writes everything recorded to
``TRACE_OUT`` as an ``obs.Collector`` snapshot.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.cli import main as cli_main
from repro.obs import Collector
from repro.serve import service

from tracing import wrapped


def main(argv: list[str]) -> int:
    trace_out, serve_args = argv[0], argv[1:]
    record = Collector()

    class RecordingCollector(service.ServiceCollector):
        """The service's collector, also copying every event into ``record``."""

        def emit_span(self, event) -> None:
            super().emit_span(event)
            record.emit_span(event)

        def emit_count(self, name: str, value: int) -> None:
            super().emit_count(name, value)
            record.emit_count(name, value)

    service.ServiceCollector = RecordingCollector
    try:
        with wrapped():
            return cli_main(["serve", *serve_args])
    finally:
        Path(trace_out).write_text(json.dumps(record.snapshot()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
