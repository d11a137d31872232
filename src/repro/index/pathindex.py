"""Catalog-wide path index over the strong dataguides.

The `repro.check` dataguide already is a path -> posting-list map with a
sharp membership guarantee: a label path appears in the guide **iff**
some object satisfies it with nonzero probability.  :class:`PathIndex`
reuses the (version- and generation-cached) guides as a query-time
pruning structure: :meth:`PathIndex.can_match` answers whether a path
can match an instance at all, and "no match, with certainty" when the
guide proves it.  The engine itself short-circuits provably empty plans
through the abstract interpreter (:mod:`repro.check.absint`), which
seeds from the same guides; the property suite checks that every
``False`` here is also a skippable certificate there.

The answer is tri-state: ``True`` (the path has nonzero existence
probability), ``False`` (provably zero — safe to short-circuit numeric
query results), or ``None`` (unknown: the guide is truncated, rooted
elsewhere, or could not be built — proceed with a real match).
"""

from __future__ import annotations

from typing import Protocol

from repro.check.dataguide import DataGuide, DataGuideCache
from repro.semistructured.graph import Oid
from repro.semistructured.paths import PathExpression


class _Catalog(Protocol):
    def get(self, name: str) -> object: ...
    def version(self, name: str) -> int: ...


class PathIndex:
    """Path -> posting-list lookups against a catalog's dataguides."""

    def __init__(self, guides: DataGuideCache | None = None) -> None:
        self._guides = guides if guides is not None else DataGuideCache()

    def guide(self, database: _Catalog, name: str) -> DataGuide | None:
        """The instance's dataguide, or ``None`` when it cannot be built."""
        try:
            return self._guides.get(database, name)
        except Exception:
            return None

    def can_match(
        self, database: _Catalog, name: str, path: PathExpression
    ) -> bool | None:
        """Whether ``path`` can match ``name`` with nonzero probability.

        ``False`` is a *proof* (guide membership iff nonzero existence
        probability) and only returned when the guide covers the path's
        root and was not truncated; anything weaker yields ``None``.
        """
        guide = self.guide(database, name)
        if guide is None or guide.truncated or not guide.covers(path):
            return None
        return guide.entry(path.labels) is not None

    def posting_list(
        self, database: _Catalog, name: str, path: PathExpression
    ) -> frozenset[Oid] | None:
        """The objects the path can reach, or ``None`` when unknown."""
        guide = self.guide(database, name)
        if guide is None or guide.truncated or not guide.covers(path):
            return None
        return guide.targets(path.labels)
