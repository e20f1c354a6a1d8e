"""Incremental admission checks for the streaming engine.

The extend path of :mod:`repro.stream` places an arriving tuple into an
existing QI-group of the *published* release instead of re-running DIVA.
Admitting tuple ``t`` into group ``g`` re-uniformizes ``g ∪ {t}``: every QI
attribute on which ``t`` disagrees with ``g``'s published pattern is starred
for the whole group.  That is safe only when every σ ∈ Σ stays inside
``[λl, λr]`` afterwards — starring a characteristic attribute can erase
existing occurrences (breaking λl), and ``t``'s own values add occurrences
(breaking λr).

:class:`AdmissionState` performs that check *incrementally*: per-constraint
release counts are maintained as running totals and each candidate host is
evaluated from its own rows plus ``t`` only — no rescan of the release.
Per-group σ-match counts are seeded from the columnar index
(:meth:`repro.core.index.RelationIndex.target_tids`).

Group patterns can only *gain* stars here, never lose them.  That
monotonicity is what keeps extension sound on top of DIVA's Integrate
repairs: a cell starred to fix an upper bound stays starred, so repairs are
never silently undone by re-deriving the group from original values.
"""

from __future__ import annotations

from typing import Optional

from ..core.constraints import ConstraintSet, DiversityConstraint
from ..core.index import get_index
from ..data.relation import STAR, Relation


class _GroupView:
    """Mutable working view of one release QI-group during an extend pass."""

    __slots__ = ("pattern", "tids", "new_tids", "starred_slots", "matches")

    def __init__(self, pattern: tuple, tids: set[int]):
        self.pattern = list(pattern)  # QI values in qi-slot order, STAR ok
        self.tids = tids  # members already in the release
        self.new_tids: list[int] = []  # members admitted this pass
        self.starred_slots: set[int] = set()  # slots starred this pass
        # σ → number of group members currently matching σ; seeded lazily.
        self.matches: Optional[dict[DiversityConstraint, int]] = None

    def size(self) -> int:
        return len(self.tids) + len(self.new_tids)


class AdmissionState:
    """One extend pass over the current release.

    Usage: construct from the published release, call :meth:`try_admit`
    for each arrival in order, then :meth:`materialize` to obtain the
    extended release.  Arrivals that no host can take return ``False``
    and become the caller's residuals.
    """

    def __init__(self, release: Relation, constraints: ConstraintSet):
        self._release = release
        self._constraints = constraints
        schema = release.schema
        self._schema = schema
        self._qi_positions = [schema.position(a) for a in schema.qi_names]
        self._qi_slot = {a: i for i, a in enumerate(schema.qi_names)}
        self._groups = [
            _GroupView(pattern, tids)
            for pattern, tids in release.qi_groups().items()
        ]
        # Running per-constraint counts over the (extended) release, seeded
        # from the columnar index: Iσ doubles as both the global count and
        # the per-group match seed below.
        index = get_index(release)
        self._target_tids = {
            sigma: index.target_tids(sigma) for sigma in constraints
        }
        self.counts = {
            sigma: len(tids) for sigma, tids in self._target_tids.items()
        }
        self.admitted: list[tuple[int, tuple]] = []  # (tid, original row)

    # -- per-group σ-match seeding -------------------------------------------

    def _seed_matches(self, group: _GroupView) -> dict[DiversityConstraint, int]:
        if group.matches is None:
            group.matches = {
                sigma: len(group.tids & tids)
                for sigma, tids in self._target_tids.items()
            }
        return group.matches

    # -- candidate evaluation ------------------------------------------------

    def _merge_pattern(
        self, group: _GroupView, row: tuple
    ) -> tuple[list, list[int]]:
        """Group pattern after absorbing ``row``; returns (pattern, new stars)."""
        merged = list(group.pattern)
        newly: list[int] = []
        for slot, pos in enumerate(self._qi_positions):
            have = merged[slot]
            if have is STAR:
                continue
            if row[pos] != have:
                merged[slot] = STAR
                newly.append(slot)
        return merged, newly

    def _tuple_matches(
        self, sigma: DiversityConstraint, merged: list, row: tuple
    ) -> bool:
        """Would the admitted tuple count as an occurrence of σ?"""
        for attr, value in zip(sigma.attrs, sigma.values):
            slot = self._qi_slot.get(attr)
            if slot is not None:
                if merged[slot] is STAR or merged[slot] != value:
                    return False
            elif row[self._schema.position(attr)] != value:
                return False
        return True

    def _deltas(
        self, group: _GroupView, merged: list, newly: list[int], row: tuple
    ) -> Optional[dict[DiversityConstraint, int]]:
        """Per-σ count change of this admission, or None if inadmissible."""
        newly_set = set(newly)
        deltas: dict[DiversityConstraint, int] = {}
        for sigma in self._constraints:
            delta = 1 if self._tuple_matches(sigma, merged, row) else 0
            if newly_set and any(
                self._qi_slot.get(a) in newly_set for a in sigma.attrs
            ):
                # Starring a characteristic attribute erases every current
                # occurrence inside the group (matching members had the
                # concrete value there, which is now a star for all).
                delta -= self._seed_matches(group)[sigma]
            if delta != 0:
                count = self.counts[sigma] + delta
                if not sigma.lower <= count <= sigma.upper:
                    return None
                deltas[sigma] = delta
        return deltas

    def try_admit(self, tid: int, row: tuple) -> bool:
        """Place ``(tid, row)`` into the cheapest admissible host, if any.

        Cost is stars added: newly starred slots cost the whole group's
        size, and the tuple itself inherits every star of the merged
        pattern.  Returns False when no group can take the tuple without
        violating Σ — the tuple stays a residual for the recompute paths.
        """
        best = None  # (stars, group order) → (group, merged, newly, deltas)
        for order, group in enumerate(self._groups):
            merged, newly = self._merge_pattern(group, row)
            deltas = self._deltas(group, merged, newly, row)
            if deltas is None:
                continue
            stars = len(newly) * group.size() + sum(
                1 for v in merged if v is STAR
            )
            key = (stars, order)
            if best is None or key < best[0]:
                best = (key, group, merged, newly, deltas)
        if best is None:
            return False
        _, group, merged, newly, deltas = best
        matches = self._seed_matches(group)
        group.pattern = merged
        group.starred_slots.update(newly)
        group.new_tids.append(tid)
        newly_set = set(newly)
        for sigma in self._constraints:
            if any(self._qi_slot.get(a) in newly_set for a in sigma.attrs):
                matches[sigma] = 0
            if self._tuple_matches(sigma, merged, row):
                matches[sigma] += 1
        for sigma, delta in deltas.items():
            self.counts[sigma] += delta
        self.admitted.append((tid, tuple(row)))
        return True

    # -- result construction --------------------------------------------------

    def materialize(self) -> Relation:
        """The extended release: old rows re-starred, admitted rows appended.

        Existing rows change only on slots starred during this pass; each
        admitted tuple is published with its group's final pattern on the
        QI attributes and its own values elsewhere.
        """
        replacements: dict[int, tuple] = {}
        new_rows: dict[int, tuple] = {}
        admitted_rows = dict(self.admitted)
        for group in self._groups:
            if group.starred_slots:
                positions = [self._qi_positions[s] for s in group.starred_slots]
                for tid in group.tids:
                    row = list(self._release.row(tid))
                    for pos in positions:
                        row[pos] = STAR
                    replacements[tid] = tuple(row)
            if group.new_tids:
                pattern = group.pattern
                for tid in group.new_tids:
                    row = list(admitted_rows[tid])
                    for slot, pos in enumerate(self._qi_positions):
                        if pattern[slot] is STAR:
                            row[pos] = STAR
                    new_rows[tid] = tuple(row)
        extended = self._release.replace_rows(replacements)
        if new_rows:
            ordered = [(tid, new_rows[tid]) for tid, _ in self.admitted]
            extended = extended.concat(
                Relation(
                    self._schema,
                    [row for _, row in ordered],
                    [tid for tid, _ in ordered],
                )
            )
        return extended


def residual_constraints(
    constraints: ConstraintSet,
    counts: dict[DiversityConstraint, int],
    n_residuals: int,
) -> Optional[ConstraintSet]:
    """Σ restated for a scoped DIVA run over the residual tuples only.

    With ``cnt`` occurrences already locked in by the published release,
    the residual part must contribute between ``max(0, λl − cnt)`` and
    ``λr − cnt`` occurrences.  Returns None when some ``λr − cnt`` is
    negative (the release would already violate λr — a caller bug, since
    every publish is validated).  Constraints the residual batch cannot
    possibly violate (λl′ = 0 and λr′ ≥ the batch size) are dropped to
    keep the scoped search small; duplicates after restating collapse.
    """
    out: list[DiversityConstraint] = []
    seen: set[DiversityConstraint] = set()
    for sigma in constraints:
        cnt = counts[sigma]
        upper = sigma.upper - cnt
        if upper < 0:
            return None
        lower = max(0, sigma.lower - cnt)
        if lower == 0 and upper >= n_residuals:
            continue
        residual = DiversityConstraint(sigma.attrs, sigma.values, lower, upper)
        if residual not in seen:
            seen.add(residual)
            out.append(residual)
    return ConstraintSet(out)
