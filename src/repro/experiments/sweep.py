"""Grid expansion of scenarios.

:class:`Sweep` turns one base :class:`~repro.experiments.scenario.Scenario`
plus named parameter axes into the list of scenarios a figure needs,
replacing the nested ``for`` loops of the old benchmark files:

>>> from repro.experiments import Scenario, Sweep
>>> sweep = (
...     Sweep(Scenario(num_packets=10))
...     .paired(distance_m=[5.0, 10.0, 20.0], seed=[80, 81, 82])
...     .over(scheme=["adaptive", "fixed-3k"])
... )
>>> len(sweep)
6

``over`` adds independent axes (cartesian product, earlier axes vary
slowest); ``paired`` adds one axis whose fields vary together -- the
idiom for "seed follows the distance index" that every figure of the
paper uses.  ``seeded`` assigns deterministic per-scenario seeds when no
explicit seed axis is wanted.

Sweeps are immutable builders: every method returns a new sweep, so a
base sweep can be safely specialized multiple ways.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, Sequence

from repro.experiments.scenario import Scenario

_SCENARIO_FIELDS = frozenset(f.name for f in dataclasses.fields(Scenario))


def _check_fields(names: Sequence[str], axes: Sequence[Sequence[dict]]) -> None:
    unknown = [n for n in names if n not in _SCENARIO_FIELDS]
    if unknown:
        raise ValueError(
            f"unknown scenario field(s): {', '.join(unknown)}; "
            f"valid fields: {', '.join(sorted(_SCENARIO_FIELDS))}"
        )
    used = {name for axis in axes for point in axis for name in point}
    reused = [n for n in names if n in used]
    if reused:
        raise ValueError(
            f"scenario field(s) already swept by an earlier axis: {', '.join(reused)}"
        )


class Sweep:
    """Expand a base scenario over named parameter axes."""

    def __init__(self, base: Scenario | None = None) -> None:
        self.base = base if base is not None else Scenario()
        # Each axis is a list of {field: value} override dictionaries; the
        # expansion is the cartesian product of the axes applied in order.
        self._axes: tuple[tuple[dict, ...], ...] = ()
        self._seed_start: int | None = None

    def _derive(self, axes=None) -> "Sweep":
        clone = Sweep(self.base)
        clone._axes = self._axes if axes is None else axes
        clone._seed_start = self._seed_start
        return clone

    # ------------------------------------------------------------- building
    def over(self, **axes) -> "Sweep":
        """Add one independent axis per keyword (cartesian product).

        ``over(distance_m=[5, 10], scheme=["adaptive", "fixed-3k"])`` adds
        two axes and multiplies the sweep size by four.  Axes added first
        vary slowest in the expanded order.  A field may only be swept by
        one axis (otherwise later axes would silently duplicate scenarios).
        """
        _check_fields(list(axes), self._axes)
        new_axes = list(self._axes)
        for name, values in axes.items():
            values = list(values)
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            new_axes.append(tuple({name: value} for value in values))
        return self._derive(axes=tuple(new_axes))

    def paired(self, **axes) -> "Sweep":
        """Add one axis whose keyword fields vary together.

        All value lists must have the same length; point ``i`` of the axis
        sets every field to its ``i``-th value.  This expresses the common
        "seed follows the site index" pattern:
        ``paired(site=[BRIDGE, PARK], seed=[20, 21])``.
        """
        if not axes:
            raise ValueError("paired() needs at least one axis")
        _check_fields(list(axes), self._axes)
        columns = {name: list(values) for name, values in axes.items()}
        lengths = {name: len(values) for name, values in columns.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"paired axes must have equal lengths, got {lengths}")
        count = next(iter(lengths.values()))
        axis = tuple(
            {name: columns[name][i] for name in columns} for i in range(count)
        )
        return self._derive(axes=tuple(list(self._axes) + [axis]))

    def seeded(self, start: int = 0) -> "Sweep":
        """Assign ``seed = start + i`` to the ``i``-th scenario.

        Applied after expansion, overriding any seed from the base scenario
        or the axes; the canonical way to give every point of a grid its
        own deterministic seed.
        """
        clone = self._derive()
        clone._seed_start = start
        return clone

    # ------------------------------------------------------------ expansion
    def scenarios(self) -> list[Scenario]:
        """Expand the axes into the ordered scenario list."""
        expanded = []
        for combination in itertools.product(*self._axes) if self._axes else [()]:
            overrides: dict = {}
            for point in combination:
                overrides.update(point)
            expanded.append(self.base.replace(**overrides) if overrides else self.base)
        if self._seed_start is not None:
            expanded = [
                s.replace(seed=self._seed_start + i) for i, s in enumerate(expanded)
            ]
        return expanded

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios())

    def __len__(self) -> int:
        return len(self.scenarios())

    def __repr__(self) -> str:
        sizes = " x ".join(str(len(axis)) for axis in self._axes) or "1"
        return f"Sweep({sizes} -> {len(self)} scenarios)"
