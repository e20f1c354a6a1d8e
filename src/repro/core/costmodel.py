"""Adaptive, measurement-fed calibration of the component cost model.

``estimate_component_cost`` guesses per-component search effort from two
static features — the component's total target-pool mass and its
candidate-space bound.  The default unit weights are fine for ordering
homogeneous components, but skewed workloads (one huge |Iσ| next to many
constraint-dense tiny components) can invert the ranking.  This module
closes the loop: every pooled run measures each component's actual wall
clock (reported through the ``parallel.component_wall_ns`` counter), the
model fits per-feature weights by least squares, and subsequent runs
order and chunk with the learned weights.

Safety: the calibration is **ordering-only** by construction.  Weights
flow solely into the cost estimates that sort and chunk the dispatch
queue — never into seeds, search budgets, or merge order — and
``component_coloring`` already guarantees byte-identical results under
any dispatch order (per-component ``SeedSequence`` streams, Σ-ordered
joins).  A wildly wrong calibration therefore costs load balance, never
correctness; ``tests/test_parallel.py`` pins the three-executor
equivalence property with an adversarial model installed.

Calibrations are keyed per dataset *shape* (a digest of the schema's
attribute names and kinds): per-unit feature costs are roughly
size-invariant within a dataset family, so a calibration learned at
n=2000 transfers to n=20000, while census and pantheon keep separate
books.  Persistence is a single JSON file (``REPRO_COST_MODEL=<path>``
or :func:`configure_cost_model`), loaded lazily and rewritten after each
observed run.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Optional, Union

import numpy as np

PathLike = Union[str, Path]

#: Environment variable naming the persisted calibration file.
COST_MODEL_ENV = "REPRO_COST_MODEL"

#: Persisted-file schema version.
SCHEMA_VERSION = 1

#: Observations required before a fit replaces the default weights.
MIN_OBSERVATIONS = 8

#: Observations kept per dataset key (oldest dropped first).
MAX_OBSERVATIONS = 1024


def schema_key(schema) -> str:
    """Stable digest of a relation schema (names + kinds, order-sensitive)."""
    text = ",".join(f"{a.name}:{a.kind.name}" for a in schema)
    return hashlib.sha1(text.encode()).hexdigest()[:16]


class CostModel:
    """Per-dataset least-squares weights over the two cost features.

    Observations are ``(pool, candidate_mass, wall_ns)`` triples; the fit
    solves ``wall ≈ w_pool·pool + w_cand·candidate_mass`` (no intercept —
    cost scales through zero) and clamps negative weights, falling back
    to the built-in unit weights until enough well-conditioned data
    accumulates.
    """

    def __init__(self, path: Optional[PathLike] = None):
        self.path = Path(path) if path is not None else None
        self._datasets: dict[str, list[list[int]]] = {}
        self._weights: dict[str, Optional[tuple[float, float]]] = {}
        self._lock = threading.Lock()

    # -- persistence -----------------------------------------------------------

    @classmethod
    def load(cls, path: PathLike) -> "CostModel":
        """Load a calibration file.

        A missing, unreadable or malformed file — invalid JSON, or valid
        JSON of the wrong shape — is an empty model: a corrupt calibration
        must never break a run.
        """
        model = cls(path)
        try:
            with open(path) as f:
                data = json.load(f)
            if data.get("schema_version") != SCHEMA_VERSION:
                return model
            datasets = {
                key: [
                    [int(pool), int(mass), int(ns)]
                    for pool, mass, ns in entry.get("observations", [])
                ][-MAX_OBSERVATIONS:]
                for key, entry in data.get("datasets", {}).items()
            }
        except (OSError, ValueError, TypeError, AttributeError):
            return model  # json.JSONDecodeError is a ValueError
        model._datasets = datasets
        return model

    def save(self, path: Optional[PathLike] = None) -> Optional[Path]:
        """Write the calibration; no-op when no path is configured."""
        target = Path(path) if path is not None else self.path
        if target is None:
            return None
        with self._lock:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "datasets": {
                    key: {
                        "observations": observations,
                        "weights": self._fit(key),
                    }
                    for key, observations in self._datasets.items()
                },
            }
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload) + "\n")
        return target

    # -- learning --------------------------------------------------------------

    def observe(self, key: str, features: tuple[float, float], wall_ns: int) -> None:
        """Record one component's measured wall clock for its features."""
        pool, mass = features
        with self._lock:
            observations = self._datasets.setdefault(key, [])
            observations.append([int(pool), int(mass), int(wall_ns)])
            del observations[:-MAX_OBSERVATIONS]
            self._weights.pop(key, None)  # stale fit

    def observation_count(self, key: str) -> int:
        return len(self._datasets.get(key, ()))

    def weights(self, key: str) -> Optional[tuple[float, float]]:
        """Learned ``(w_pool, w_candidates)`` for a dataset, or None."""
        with self._lock:
            if key not in self._weights:
                self._weights[key] = self._fit(key)
            return self._weights[key]

    def _fit(self, key: str) -> Optional[tuple[float, float]]:
        observations = self._datasets.get(key, ())
        if len(observations) < MIN_OBSERVATIONS:
            return None
        data = np.asarray(observations, dtype=np.float64)
        features, wall = data[:, :2], data[:, 2]
        # Components whose features are all-zero carry no signal.
        keep = features.any(axis=1)
        if keep.sum() < MIN_OBSERVATIONS:
            return None
        try:
            solution, *_ = np.linalg.lstsq(features[keep], wall[keep], rcond=None)
        except np.linalg.LinAlgError:  # pragma: no cover - defensive
            return None
        w_pool, w_mass = (max(0.0, float(w)) for w in solution)
        if w_pool == 0.0 and w_mass == 0.0:
            return None
        return (w_pool, w_mass)


# -- enumeration budget allocation ---------------------------------------------


def enumeration_size_caps(
    lo: int, hi: int, budget: int, k: int, schema=None
) -> dict[int, int]:
    """Per-subset-size sampling caps for candidate enumeration.

    Splits the enumeration oversampling ``budget`` across the subset sizes
    ``lo..hi`` of one constraint.  Uncalibrated, every size gets the same
    flat cap (the historical ``max(8, budget // n_sizes)`` policy).  With a
    calibrated model for this schema family, caps are allocated inversely
    to each size's estimated per-candidate cost — ``w_pool`` scales with
    the tuples touched per subset (|S| = s) and ``w_mass`` with the blocks
    scored per clustering (≈ s / k) — so the cheap small sizes, which the
    ascending-size loop visits first, are exhausted before the budget runs
    out on expensive large ones.

    The enumeration engine and the reference enumeration of the test
    oracle both consult this one policy (it also feeds the enumeration
    memo key), so calibration shifts sampling identically everywhere and
    their equivalence is preserved.
    """
    if hi < lo:
        return {}
    base = max(8, budget // max(1, hi + 1 - lo))
    sizes = range(lo, hi + 1)
    weights = None
    if schema is not None:
        model = get_cost_model()
        if model is not None:
            weights = model.weights(schema_key(schema))
    if weights is None:
        return {s: base for s in sizes}
    w_pool, w_mass = weights
    unit = {s: w_pool * s + w_mass * max(1.0, s / k) for s in sizes}
    floor = min(u for u in unit.values() if u > 0.0) if any(unit.values()) else 0.0
    if floor <= 0.0:
        return {s: base for s in sizes}
    inverse = {s: 1.0 / max(u, floor) for s, u in unit.items()}
    total = sum(inverse.values())
    return {s: max(8, int(budget * inverse[s] / total)) for s in sizes}


# -- process-global configuration ----------------------------------------------

_ACTIVE: Optional[CostModel] = None
_RESOLVED = False
_CONFIG_LOCK = threading.Lock()


def configure_cost_model(
    source: Union[CostModel, PathLike, None]
) -> Optional[CostModel]:
    """Install the process-global model (a path loads it; None disables)."""
    global _ACTIVE, _RESOLVED
    with _CONFIG_LOCK:
        if source is None or isinstance(source, CostModel):
            _ACTIVE = source
        else:
            _ACTIVE = CostModel.load(source)
        _RESOLVED = True
        return _ACTIVE


def get_cost_model() -> Optional[CostModel]:
    """The active model: configured explicitly, or lazily from the
    ``REPRO_COST_MODEL`` environment variable; None when disabled."""
    global _ACTIVE, _RESOLVED
    if not _RESOLVED:
        with _CONFIG_LOCK:
            if not _RESOLVED:
                path = os.environ.get(COST_MODEL_ENV)
                _ACTIVE = CostModel.load(path) if path else None
                _RESOLVED = True
    return _ACTIVE
