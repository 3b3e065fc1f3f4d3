"""In-memory span recorder that times public functions from the outside.

:class:`SpanRecorder` replaces methods on their defining classes with
timing wrappers, keeps one span per call (name, start, end, parent), and
computes each layer's *self time*: a span's duration minus the part of it
covered by its child spans.  Nothing inside the program under test is
changed; :meth:`SpanRecorder.restore` puts every original attribute back
and :meth:`SpanRecorder.unrestored` proves it did.

A wrapped call that returns a generator (``ExperimentRunner.iter_run``,
``SweepService.stream``) is timed per resumption, because that is where a
lazy pipeline does its work.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter

import numpy as np

_clock = time.perf_counter


class SpanRecorder:
    """Records nested spans around patched callables."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name: list[int] = []
        self._span_parent: list[int] = []
        self._span_start: list[float] = []
        self._span_end: list[float] = []
        self._stack: list[int] = []
        #: Completed calls per span name (a generator counts once).
        self.calls: Counter = Counter()
        #: Free-form counters filled by result hooks.
        self.counts: Counter = Counter()
        #: Wrappers record spans only while this is set.
        self.enabled = False
        self._patches: list[tuple[type, str, object]] = []
        self._applied: list[tuple[type, str, object]] = []
        #: Targets that could not be resolved (renamed or removed code).
        self.missing: list[str] = []

    # ------------------------------------------------------------ recording
    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self._span_start)
        self._span_name.append(nid)
        self._span_parent.append(self._stack[-1] if self._stack else -1)
        self._span_end.append(0.0)
        self._stack.append(index)
        self._span_start.append(_clock())
        return index

    def _close(self, index: int) -> None:
        self._span_end[index] = _clock()
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording one span (used for the benchmark root)."""
        return _Span(self, self._intern(name))

    def _timed_generator(self, nid: int, generator):
        try:
            while True:
                index = self._open(nid)
                try:
                    item = next(generator)
                finally:
                    self._close(index)
                yield item
        except StopIteration as stop:
            return stop.value
        finally:
            generator.close()

    def _wrapper(self, name: str, function, on_result):
        nid = self._intern(name)
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return function(*args, **kwargs)
            index = recorder._open(nid)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder._close(index)
            recorder.calls[name] += 1
            if isinstance(result, types.GeneratorType):
                return recorder._timed_generator(nid, result)
            if on_result is not None:
                on_result(recorder.counts, result)
            return result

        return wrapper

    # ------------------------------------------------------------- patching
    def patch(self, name: str, module: str, qualname: str, on_result=None) -> bool:
        """Wrap ``module.qualname`` (``Class.method``) under span ``name``.

        The attribute is replaced on the class that defines it, so calls
        through subclasses and instances are timed too.  Returns ``False``
        (and remembers the target in :attr:`missing`) when the target no
        longer exists.
        """
        class_name, _, attr = qualname.rpartition(".")
        try:
            owner = getattr(importlib.import_module(module), class_name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{qualname}")
            return False
        definer = next((k for k in owner.__mro__ if attr in k.__dict__), None)
        if definer is None:
            self.missing.append(f"{module}.{qualname}")
            return False
        original = definer.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrapper(name, original.__func__, on_result))
        elif callable(original):
            replacement = self._wrapper(name, original, on_result)
        else:
            self.missing.append(f"{module}.{qualname}")
            return False
        setattr(definer, attr, replacement)
        self._patches.append((definer, attr, original))
        self._applied.append((definer, attr, original))
        return True

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        self.enabled = False
        while self._patches:
            definer, attr, original = self._patches.pop()
            setattr(definer, attr, original)

    def unrestored(self) -> list[str]:
        """Targets ever patched whose original attribute is not in place."""
        return [
            f"{definer.__qualname__}.{attr}"
            for definer, attr, original in self._applied
            if definer.__dict__.get(attr) is not original
        ]

    # ------------------------------------------------------------ reporting
    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as columns (for writing out)."""
        return {
            "names": np.asarray(self.names if self.names else [""], dtype=str),
            "name_id": np.asarray(self._span_name, dtype=np.int32),
            "parent": np.asarray(self._span_parent, dtype=np.int64),
            "start_s": np.asarray(self._span_start, dtype=float),
            "end_s": np.asarray(self._span_end, dtype=float),
        }

    @property
    def num_spans(self) -> int:
        return len(self._span_start)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        if not self._span_start:
            return {}
        durations = np.asarray(self._span_end) - np.asarray(self._span_start)
        parents = np.asarray(self._span_parent, dtype=np.int64)
        names = np.asarray(self._span_name, dtype=np.int64)
        child_time = np.zeros_like(durations)
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], durations[has_parent])
        own = np.bincount(names, weights=durations - child_time, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}


class _Span:
    __slots__ = ("_recorder", "_nid", "_index")

    def __init__(self, recorder: SpanRecorder, nid: int) -> None:
        self._recorder = recorder
        self._nid = nid

    def __enter__(self) -> None:
        self._index = self._recorder._open(self._nid) if self._recorder.enabled else None

    def __exit__(self, *exc) -> None:
        if self._index is not None:
            self._recorder._close(self._index)
