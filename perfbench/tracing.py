"""Span tracer installed from the benchmark's side of each layer boundary.

Wrappers replace public functions and methods of the program's layers
(class attributes, instance attributes or module attributes) and record
one span per outermost call into a layer: name, start, end, the parent
span, and an optional op id.  A layer's *self time* is its span time
minus the time of the child spans it covers, so the self times of all
layers plus the untraced remainder add up to the traced wall time.

Only synchronous callables are wrapped: a span around a coroutine or a
generator would cover time spent in other tasks or in the consumer.

Spans are kept in memory (the first ``span_cap`` of them; aggregates
cover every call) and written out by :meth:`Tracer.dump` at exit.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer"]

_now_ns = time.perf_counter_ns


class Tracer:
    """Layer self time, call counts and raw spans."""

    def __init__(self, span_cap: int = 100_000) -> None:
        self.layer_names: List[str] = []
        self.self_ns: List[int] = []
        self.layer_calls: List[int] = []
        #: Named counters fed by result/argument hooks at the boundaries.
        self.counts: Dict[str, float] = {}
        self.spans: List[Tuple[int, int, int, int, int, Any]] = []
        self.span_cap = span_cap
        # Frames: [layer id, child ns covered, start ns]; the root frame
        # (layer -1) is the parent of top-level spans.
        self._stack: List[List[int]] = [[-1, 0, 0]]
        self._layer_ids: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- registration --------------------------------------------------------

    def _layer(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
            self.self_ns.append(0)
            self.layer_calls.append(0)
        return lid

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn: Callable, layer: str,
             on_result: Optional[Callable[[Any], None]] = None,
             on_args: Optional[Callable[..., None]] = None) -> Callable:
        """Return ``fn`` wrapped in a span of ``layer``.

        A call made while the innermost open span already belongs to
        ``layer`` runs unwrapped: it is part of that span (a subclass
        handler calling its base class, for instance).  ``on_args`` sees
        the call's arguments and ``on_result`` its return value, so counts
        are taken at the same boundary as the time."""
        lid = self._layer(layer)
        stack = self._stack
        self_ns = self.self_ns
        layer_calls = self.layer_calls
        spans = self.spans
        cap = self.span_cap

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == lid:
                return fn(*args, **kwargs)
            if on_args is not None:
                on_args(*args, **kwargs)
            frame = [lid, 0, _now_ns()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now_ns()
                stack.pop()
                start = frame[2]
                duration = end - start
                self_ns[lid] += duration - frame[1]
                layer_calls[lid] += 1
                parent[1] += duration
                if len(spans) < cap:
                    spans.append((lid, start, end, parent[0], parent[2], None))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, layer: str,
              on_result: Optional[Callable[[Any], None]] = None,
              on_args: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` (class, instance or module) by a traced
        wrapper; :meth:`uninstall` restores it."""
        had_own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, layer, on_result=on_result,
                                       on_args=on_args))
        self._patches.append((owner, attr, original, had_own))

    def patch_methods(self, cls: type, names: Tuple[str, ...],
                      layer: str) -> None:
        """Patch the methods among ``names`` that ``cls`` itself defines."""
        for name in names:
            if name in cls.__dict__:
                self.patch(cls, name, layer)

    def patch_function(self, fn: Callable, layer: str,
                       on_result: Optional[Callable[[Any], None]] = None,
                       on_args: Optional[Callable[..., None]] = None) -> None:
        """Patch every loaded ``repro`` module attribute bound to ``fn``
        (the defining module and every ``from ... import`` of it), sharing
        one wrapper so all call sites count at the same boundary."""
        wrapper = self.wrap(fn, layer, on_result=on_result, on_args=on_args)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, fn, True))

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- spans recorded by the benchmark itself ------------------------------

    def record(self, layer: str, start_ns: int, end_ns: int,
               op: Any = None) -> None:
        """Record a span measured by benchmark code (e.g. one lock op from
        its due time to its reply); it does not enter self-time sums."""
        lid = self._layer(layer)
        if len(self.spans) < self.span_cap:
            self.spans.append((lid, start_ns, end_ns, -1, 0, op))

    # -- results -------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        return {name: self.self_ns[lid] / 1e9
                for lid, name in enumerate(self.layer_names)}

    def calls(self) -> Dict[str, int]:
        """Outermost calls into each layer."""
        return {name: self.layer_calls[lid]
                for lid, name in enumerate(self.layer_names)}

    def reset(self) -> None:
        """Zero every aggregate and drop kept spans; patches stay."""
        for lid in range(len(self.layer_names)):
            self.self_ns[lid] = 0
            self.layer_calls[lid] = 0
        self.counts.clear()
        del self.spans[:]

    def summary(self) -> Dict[str, Any]:
        return {"self_s": self.self_seconds(), "calls": self.calls(),
                "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines (times in ns)."""
        names = self.layer_names
        with open(path, "w", encoding="utf-8") as out:
            for lid, start, end, parent, parent_start, op in self.spans:
                out.write(json.dumps({
                    "name": names[lid], "start": start, "end": end,
                    "parent": names[parent] if parent >= 0 else None,
                    "parent_start": parent_start if parent >= 0 else None,
                    "op": op,
                }) + "\n")
