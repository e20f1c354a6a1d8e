"""Spans for the calls the program leaves untimed, added from outside.

The program already opens an obs span around most of its layers:
``diva.run`` and its phases, ``graph.build``,
``coloring.enumerate_candidates`` and ``enum.generate``,
``coloring.search``, ``solver.approx.solve``, ``kmember.cluster``, the
``stream.*`` spans and the ``serve.*`` spans.  :data:`WRAPPED` lists the
calls it does not time.  :func:`wrapped` replaces each, for the duration of
a traced pass, with the same call inside an ``obs.span``.  It patches the
attribute the call site resolves when it runs (a module global or a class
method), so nothing under ``src/`` changes and the untraced passes run the
unmodified program.

Spans are recorded by an ``obs.Collector``; self-times and the span forest
come from ``repro.obs.analyze``.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

from repro import obs

#: (module, attribute path, span name).  A dotted path names a class
#: method.  ``Diva`` builds the column index through
#: ``repro.core.index.RelationIndex``, ``ColoringSearch`` its engine through
#: ``repro.core.searchstate.SearchState``, the stream engine admits through
#: ``AdmissionState``, the ledger validates through
#: ``repro.stream.ledger.validate_release``, and the service encodes a
#: release through ``repro.serve.service.relation_to_csv_bytes``.
WRAPPED = (
    ("repro.core.index", "RelationIndex.__init__", "index.build"),
    ("repro.core.searchstate", "SearchState.__init__", "searchstate.init"),
    ("repro.stream.admission", "AdmissionState.__init__", "admission.init"),
    ("repro.stream.admission", "AdmissionState.try_admit", "admission.admit"),
    ("repro.stream.ledger", "validate_release", "ledger.validate"),
    ("repro.serve.service", "relation_to_csv_bytes", "serve.encode"),
)


@contextmanager
def wrapped():
    """Run the block with every call in :data:`WRAPPED` inside an obs span."""
    patches = []
    for module_name, path, name in WRAPPED:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        patches.append((owner, attr, original))
        setattr(owner, attr, obs.span(name)(original))
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
