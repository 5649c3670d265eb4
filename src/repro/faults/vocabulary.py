"""The fault vocabulary: one op table per surface, one validator.

Every harness takes its fault plan as data, a list of dicts with an
``op`` and named fields, and a field's name says what it holds: ``t``
the injection time; ``a``/``b`` nodes in ``[0, n)``; ``group_a``/
``group_b`` lists of nodes (the sides of a partition); ``what`` a
corruption kind from :data:`CORRUPTION_KINDS` and ``arg`` its integer
argument; ``k`` a fabric lane, whose ring ``a``/``b`` then index.

Each surface's table maps the ops it can apply to their fields; a field
spelt with a trailing ``?`` is optional (its applier has a default).
:func:`check_faults` is the one validator: a fault its surface's applier
would trip over raises :class:`~repro.errors.FuzzCaseError`, naming the
offending kind, before anything runs.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple, Union

from repro.errors import FuzzCaseError
from repro.faults.corruption import CORRUPTION_KINDS

__all__ = ["IMPL_OPS", "FABRIC_OPS", "chaos_ops", "wire_ops",
           "check_faults"]

OpTable = Mapping[str, Tuple[str, ...]]

#: Fuzz cases on one DES cluster (``corrupt`` works on any core).
IMPL_OPS: OpTable = {
    "crash": ("t", "a"),
    "recover": ("t", "a"),
    "token_loss": ("t",),
    "partition": ("t", "a", "b"),
    "heal": ("t", "a", "b"),
    "corrupt": ("t", "a", "what", "arg"),
}

#: Fuzz fabric cases: each fault strikes lane ``k``; token loss and
#: corruption have no fabric applier.
FABRIC_OPS: OpTable = {op: ("k",) + IMPL_OPS[op]
                       for op in ("crash", "recover", "partition", "heal")}


def chaos_ops(protocol: str) -> OpTable:
    """Asyncio chaos cases; ``corrupt`` only on the stabilizing core, the
    one core that converges from arbitrary states."""
    ops: Dict[str, Tuple[str, ...]] = {
        "crash": ("t", "a"),
        "partition": ("t", "group_a", "group_b"),
        "heal": ("t", "a", "b"),
        "heal_all": ("t",),
    }
    if protocol == "stabilizing":
        ops["corrupt"] = ("t", "a", "what", "arg")
    return ops


def wire_ops(protocol: str) -> OpTable:
    """The real-socket smoke: chaos's ops plus a connection reset (of
    every connection when ``a`` is absent); time and corruption argument
    default to 0."""
    ops = {op: tuple(f + "?" if f in ("t", "arg") else f for f in fields)
           for op, fields in chaos_ops(protocol).items()}
    ops["reset"] = ("t?", "a?")
    return ops


def _is_index(value: Any, bound: int) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and 0 <= value < bound)


def check_faults(faults: Iterable[Mapping[str, Any]],
                 n: Union[int, Sequence[int]], ops: OpTable) -> None:
    """Validate a fault plan against one surface's op table.  ``n`` is
    the ring size or, for lane-keyed plans (:data:`FABRIC_OPS`), each
    lane's ring size, indexed by the fault's ``k``."""
    lanes: Sequence[int] = () if isinstance(n, int) else n
    for fault in faults:
        op = fault.get("op")
        if op not in ops:
            raise FuzzCaseError(f"unknown fault op {op!r} in fault "
                                f"{fault!r}; known ops: {tuple(ops)}",
                                kind=op)
        ring = n if isinstance(n, int) else 0
        for spec in ops[op]:
            name = spec.rstrip("?")
            if name not in fault:
                if spec.endswith("?"):
                    continue
                raise FuzzCaseError(f"{op} fault {fault!r} is missing "
                                    f"{name!r}", kind=op)
            value = fault[name]
            if name in ("k", "a", "b"):
                bound = len(lanes) if name == "k" else ring
                valid = _is_index(value, bound)
                want = f"an index in [0, {bound})"
            elif name in ("group_a", "group_b"):
                valid = isinstance(value, list) and all(
                    _is_index(node, ring) for node in value)
                want = f"a list of nodes in [0, {ring})"
            elif name == "what":
                valid = value in CORRUPTION_KINDS
                want = f"a corruption kind in {CORRUPTION_KINDS}"
            else:
                valid = (isinstance(value, (int, float))
                         and not isinstance(value, bool)
                         and (name == "t" or isinstance(value, int)))
                want = "a number" if name == "t" else "an int"
            if not valid:
                raise FuzzCaseError(f"{op} fault {fault!r}: {name!r} must "
                                    f"be {want}",
                                    kind=value if name == "what" else op)
            if name == "k":
                ring = lanes[value]
