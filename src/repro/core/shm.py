"""Zero-copy shared-memory transport for relations and their kernel index.

The process-pool path of :mod:`repro.core.parallel` used to pickle the
whole :class:`~repro.data.relation.Relation` into every worker task, and
each worker rebuilt the columnar :class:`~repro.core.index.RelationIndex`
from scratch with cold memo caches.  That made per-task IPC O(|R|) and
threw away the one-build-amortized-over-everything property the index was
designed around.

:class:`SharedRelationStore` fixes both ends:

* **Export (parent, once per run)** — the index's int32 code matrix, the
  contiguous QI slice and the tid vector are copied into
  ``multiprocessing.shared_memory`` segments; the schema and the
  per-column value → code codebooks (small: one entry per *distinct*
  value, not per cell) travel as one pickled metadata segment.
* **Attach (worker, once per process)** — :func:`attach` maps the
  segments back as read-only NumPy views (zero-copy), decodes the rows
  from codes + codebooks (cell values are shared per distinct value), and
  assembles a :class:`RelationIndex` via
  :meth:`~repro.core.index.RelationIndex.from_columnar` without
  re-factorizing.  The index is seeded into the relation's
  ``_kernel_index`` slot, so the process-local ``get_index`` cache serves
  the attached view to every task the worker runs — memo caches warm
  *across* tasks instead of per task.

Per-task payloads shrink to the constraint subset plus a seed: O(1) in
the relation size and in the number of components.

Lifecycle: the store is a context manager; :meth:`close` detaches the
parent's handles and :meth:`unlink` destroys the segments.  A
``weakref.finalize`` leak guard releases both if the owner forgets (and
at interpreter shutdown).  When shared memory is unavailable —
``/dev/shm``-less containers or platforms without POSIX shm —
:func:`shm_available` reports False and the scheduler falls back to
seeding workers with one pickled relation per process (still once per
worker, never per task).

Attach-side note: on CPython < 3.13, ``SharedMemory(name=...)`` registers
the segment with the resource tracker even for plain attaches
(bpo-39959).  Pool workers share the exporting parent's tracker process,
so :func:`_attach_segment` leaves that registration alone (an idempotent
re-add the parent's ``unlink`` later balances) and passes ``track=False``
where supported.
"""

from __future__ import annotations

import pickle
import weakref
from typing import Any, Optional

import numpy as np

from ..data.relation import Relation
from .index import RelationIndex

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

#: Cached result of the one-time usability probe (None = not probed yet).
_probe_result: Optional[bool] = None


def shm_available() -> bool:
    """True iff shared-memory transport can be used in this process.

    Checks the import and — once, cached — an actual create/close/unlink
    probe, because importing ``multiprocessing.shared_memory`` can succeed
    on systems where ``shm_open`` later fails (e.g. containers without
    ``/dev/shm``).
    """
    if _shared_memory is None:
        return False
    global _probe_result
    if _probe_result is None:
        try:
            probe = _shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _probe_result = True
        except Exception:
            _probe_result = False
    return _probe_result


def _attach_segment(name: str):
    """Attach to an existing segment without adopting tracker ownership.

    On 3.13+ ``track=False`` skips registration outright.  Older Pythons
    register unconditionally (bpo-39959), but pool workers share the
    parent's resource-tracker process, so the attach-side register is an
    idempotent re-add of a name the parent already owns — the parent's
    ``unlink`` unregisters it exactly once.  Do *not* unregister here:
    on a shared tracker that would strip the parent's registration and
    turn its own unlink into tracker noise.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # track= is 3.13+; rely on the shared tracker
        return _shared_memory.SharedMemory(name=name)


def _release_segments(segments: list, unlink: bool) -> None:
    """Close (and optionally destroy) segments, swallowing double-frees."""
    for segment in segments:
        try:
            segment.close()
        except Exception:
            pass
        if unlink:
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
            except Exception:
                pass


class SharedRelationStore:
    """One relation + index exported to shared memory, parent side.

    Constructing the store performs the export immediately (building the
    relation's :class:`RelationIndex` first if no consumer has yet).  The
    picklable :attr:`descriptor` is what crosses the process boundary —
    workers hand it to :func:`attach`.
    """

    _ARRAYS = ("codes", "qi_codes", "tids")

    def __init__(self, relation: Relation):
        if not shm_available():
            raise RuntimeError("shared memory is not available on this system")
        # Import here: core.index imports nothing from shm, but keeping the
        # build out of module import time mirrors get_index's laziness.
        from .index import get_index

        index = get_index(relation)
        self._segments: list = []
        self._unlinked = False
        descriptor: dict[str, Any] = {"arrays": {}}
        try:
            for field in self._ARRAYS:
                array = np.ascontiguousarray(getattr(index, field))
                segment = _shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                self._segments.append(segment)
                if array.nbytes:
                    view = np.ndarray(
                        array.shape, dtype=array.dtype, buffer=segment.buf
                    )
                    view[...] = array
                descriptor["arrays"][field] = {
                    "name": segment.name,
                    "shape": array.shape,
                    "dtype": array.dtype.str,
                }
            meta = pickle.dumps(
                (relation.schema, index.codebooks), protocol=pickle.HIGHEST_PROTOCOL
            )
            meta_segment = _shared_memory.SharedMemory(
                create=True, size=max(1, len(meta))
            )
            self._segments.append(meta_segment)
            meta_segment.buf[: len(meta)] = meta
            descriptor["meta"] = {"name": meta_segment.name, "size": len(meta)}
        except Exception:
            _release_segments(self._segments, unlink=True)
            raise
        self._descriptor = descriptor
        # Leak guard: if the owner forgets close()/unlink(), reclaim the
        # segments when the store is collected or the interpreter exits.
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments, True
        )

    # -- introspection ---------------------------------------------------------

    @property
    def descriptor(self) -> dict:
        """Picklable attachment recipe (segment names, shapes, dtypes)."""
        return self._descriptor

    @property
    def nbytes(self) -> int:
        """Total bytes exported across all segments."""
        return sum(segment.size for segment in self._segments)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Detach the parent's handles (segments stay until unlink)."""
        _release_segments(self._segments, unlink=False)

    def unlink(self) -> None:
        """Destroy the segments.  Idempotent; detaches the leak guard."""
        if self._unlinked:
            return
        self._unlinked = True
        self._finalizer.detach()
        _release_segments(self._segments, unlink=True)

    def __enter__(self) -> "SharedRelationStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()


def attach(descriptor: dict) -> tuple[Relation, list]:
    """Reconstruct a read-only relation view from a store descriptor.

    Returns ``(relation, segments)``: the relation carries a
    :class:`RelationIndex` assembled over zero-copy views of the shared
    segments (already seeded into its ``get_index`` slot), and
    ``segments`` are the attached handles the caller must keep referenced
    for as long as the relation is in use (dropping them would free the
    mappings under the NumPy views).
    """
    segments: list = []
    try:
        arrays: dict[str, np.ndarray] = {}
        for field, spec in descriptor["arrays"].items():
            segment = _attach_segment(spec["name"])
            segments.append(segment)
            view = np.ndarray(
                tuple(spec["shape"]), dtype=np.dtype(spec["dtype"]), buffer=segment.buf
            )
            view.flags.writeable = False
            arrays[field] = view
        meta_spec = descriptor["meta"]
        meta_segment = _attach_segment(meta_spec["name"])
        segments.append(meta_segment)
        schema, codebooks = pickle.loads(
            bytes(meta_segment.buf[: meta_spec["size"]])
        )
    except Exception:
        _release_segments(segments, unlink=False)
        raise

    codes = arrays["codes"]
    # Decode rows from codes + codebooks: factorization is
    # equality-preserving, so inverting each column's codebook reproduces
    # the original values exactly (STAR unpickles to the singleton, so
    # identity checks keep working).  Cell objects are shared per distinct
    # value; only the row tuples themselves are worker-local.
    inverses = []
    for book in codebooks:
        inverse = [None] * len(book)
        for value, code in book.items():
            inverse[code] = value
        inverses.append(inverse)
    columns = [
        [inverses[j][code] for code in codes[:, j].tolist()]
        for j in range(codes.shape[1])
    ]
    rows = zip(*columns) if columns else iter(())
    relation = Relation(schema, rows, arrays["tids"].tolist())
    relation._kernel_index = RelationIndex.from_columnar(
        relation, codes, arrays["qi_codes"], arrays["tids"], codebooks
    )
    return relation, segments
