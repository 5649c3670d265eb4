"""Static footprints of TRS rules over system-state terms.

Every rule of the paper's systems rewrites the *root* state struct
``F(c₀, …, cₖ)`` whose components are either **bags** (opened up with a
rest variable — ``Q``, ``P``, ``I``, ``O``, ``W``) or **scalars** (the
token component ``T``).  The footprint of a rule records, per component:

- for a bag: which item *patterns* the rule **consumes** (LHS only),
  **reads** (present on both sides, unchanged), and **produces**
  (RHS only);
- for a scalar: whether the rule leaves it untouched (**frame** — the
  same variable on both sides, not read anywhere else), merely **reads**
  it, or **writes** it.

Footprints are the symbolic input of the independence analysis
(:mod:`repro.verify.independence`): two rules can only interfere through
components where their footprints overlap.  They are necessarily an
*under*-approximation for rules with opaque Python callables — a guard or
where-clause may read components the patterns never mention (rule 1's
``next_nonce`` scans the whole binding).  Such rules are flagged
**ambiguous** here, surfaced as lint findings, and their assumed
commutations are machine-checked dynamically by the diamond validator
rather than trusted statically.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import VerifyError
from repro.lint.rules import RecordingBinding
from repro.trs.rules import Rule, RuleContext, RuleSet
from repro.trs.terms import Bag, Struct, Term, Var, variables_of

__all__ = [
    "FRAME", "READ", "WRITE",
    "BagFootprint", "ScalarFootprint", "RuleFootprint",
    "footprint_of", "footprints", "probe_callable_reads",
]

#: Scalar-component access kinds.
FRAME = "frame"
READ = "read"
WRITE = "write"


class BagFootprint:
    """What a rule does to one bag component (by item pattern)."""

    __slots__ = ("index", "consumed", "read", "produced", "rest")

    def __init__(
        self,
        index: int,
        consumed: Tuple[Term, ...],
        read: Tuple[Term, ...],
        produced: Tuple[Term, ...],
        rest: Optional[str],
    ) -> None:
        self.index = index
        self.consumed = consumed
        self.read = read
        self.produced = produced
        self.rest = rest          #: name of the bag-rest variable, if any

    @property
    def writes(self) -> bool:
        """True when the rule changes this bag's contents at all."""
        return bool(self.consumed) or bool(self.produced)


class ScalarFootprint:
    """What a rule does to one scalar component."""

    __slots__ = ("index", "access", "lhs", "rhs")

    def __init__(self, index: int, access: str, lhs: Term, rhs: Term) -> None:
        self.index = index
        self.access = access      #: one of FRAME / READ / WRITE
        self.lhs = lhs
        self.rhs = rhs


class RuleFootprint:
    """The complete static footprint of one rule.

    ``key_vars`` are the LHS variables that identify a *transition
    instance*: the variables inside matched bag items plus those of
    non-frame scalar patterns.  Two instantiations of the rule that agree
    on the key variables rewrite the same multiset items and are the same
    transition (they differ at most in how the rest variables partition
    the untouched remainder).

    ``opaque`` lists the reasons the footprint under-approximates the
    rule's true reads (opaque guard / where-clause / choice callables);
    ``component_vars`` maps whole-component and bag-rest variable names to
    their field index so callers can resolve which components an opaque
    callable actually read (see :func:`probe_callable_reads`).
    """

    __slots__ = ("rule", "functor", "fields", "key_vars", "opaque",
                 "component_vars")

    def __init__(
        self,
        rule: Rule,
        functor: str,
        fields: Tuple[object, ...],
        key_vars: frozenset,
        opaque: Tuple[str, ...],
        component_vars: Dict[str, int],
    ) -> None:
        self.rule = rule
        self.functor = functor
        self.fields = fields
        self.key_vars = key_vars
        self.opaque = opaque
        self.component_vars = component_vars

    @property
    def name(self) -> str:
        return self.rule.name

    def bag_fields(self) -> List[BagFootprint]:
        return [f for f in self.fields if isinstance(f, BagFootprint)]

    def scalar_fields(self) -> List[ScalarFootprint]:
        return [f for f in self.fields if isinstance(f, ScalarFootprint)]


def _var_used_elsewhere(rule: Rule, name: str, index: int) -> bool:
    """True when variable ``name`` also occurs outside field ``index`` on
    either side — a join on the LHS, or a copy into another component on
    the RHS (S1's rule 3 copies the scalar ``H`` into the ``P`` bag).
    Either way the field is *read*, not merely framed."""
    for side in (rule.lhs, rule.rhs):
        assert isinstance(side, Struct)
        for j, arg in enumerate(side.args):
            if j != index and name in variables_of(arg):
                return True
    return False


def _split_bag(index: int, lhs: Bag, rhs: Term) -> BagFootprint:
    """Split a bag field's LHS/RHS item patterns into consumed/read/produced."""
    rhs_items: List[Term] = list(rhs.items) if isinstance(rhs, Bag) else []
    consumed: List[Term] = []
    read: List[Term] = []
    for item in lhs.items:
        if item in rhs_items:
            read.append(item)
            rhs_items.remove(item)
        else:
            consumed.append(item)
    rest = lhs.rest.name if isinstance(lhs.rest, Var) else None
    return BagFootprint(index, tuple(consumed), tuple(read),
                        tuple(rhs_items), rest)


def footprint_of(rule: Rule) -> RuleFootprint:
    """Extract the static footprint of ``rule``.

    Raises :class:`VerifyError` when the rule does not rewrite a root
    state struct field-for-field (the shape every system in the refinement
    chain uses)."""
    lhs, rhs = rule.lhs, rule.rhs
    if not (isinstance(lhs, Struct) and isinstance(rhs, Struct)):
        raise VerifyError(
            f"rule {rule.name!r}: footprint extraction needs a root state "
            f"struct on both sides, got {type(lhs).__name__} -> "
            f"{type(rhs).__name__}")
    if lhs.functor != rhs.functor or len(lhs.args) != len(rhs.args):
        raise VerifyError(
            f"rule {rule.name!r}: LHS and RHS rewrite different state "
            f"shapes ({lhs.functor}/{len(lhs.args)} vs "
            f"{rhs.functor}/{len(rhs.args)})")

    fields: List[object] = []
    key_vars: Set[str] = set()
    component_vars: Dict[str, int] = {}
    for i, (lp, rp) in enumerate(zip(lhs.args, rhs.args)):
        if isinstance(lp, Bag):
            bag = _split_bag(i, lp, rp)
            fields.append(bag)
            for item in bag.consumed + bag.read:
                key_vars.update(variables_of(item))
            if bag.rest is not None:
                component_vars[bag.rest] = i
            continue
        if (isinstance(lp, Var) and isinstance(rp, Bag)
                and isinstance(rp.rest, Var) and rp.rest.name == lp.name):
            # ``V -> Bag([items], rest=V)`` appends to the bag without
            # inspecting it: a pure-produce bag footprint.  Treating it as
            # a scalar write would drag the whole bag into the instance
            # key and into every conflict set.
            fields.append(BagFootprint(i, (), (), rp.items, lp.name))
            component_vars[lp.name] = i
            continue
        if isinstance(lp, Var):
            if lp == rp and not _var_used_elsewhere(rule, lp.name, i):
                access = FRAME
            elif lp == rp:
                access = READ
            else:
                access = WRITE
            component_vars[lp.name] = i
        else:
            # A non-variable scalar pattern both tests the old value and
            # (when the RHS differs) writes a new one.
            access = READ if lp == rp else WRITE
        if access != FRAME:
            key_vars.update(variables_of(lp))
        fields.append(ScalarFootprint(i, access, lp, rp))

    opaque: List[str] = []
    if rule.where is not None:
        opaque.append("where-clause")
    if rule.guard is not None:
        opaque.append("guard")
    if rule.choices is not None:
        opaque.append("choices")
    return RuleFootprint(rule, lhs.functor, tuple(fields),
                         frozenset(key_vars), tuple(opaque), component_vars)


def footprints(ruleset: RuleSet) -> Dict[str, RuleFootprint]:
    """Footprints for every rule of ``ruleset``, keyed by rule name."""
    return {rule.name: footprint_of(rule) for rule in ruleset}


def probe_callable_reads(
    fp: RuleFootprint,
    states: Iterable[Term],
    ctx: Optional[RuleContext] = None,
    max_probes: int = 8,
) -> Set[int]:
    """Which component indices the rule's opaque callables actually read.

    Runs the guard and where-clause over instantiations sampled from
    ``states`` with an instrumented binding, and maps the variable names
    they touched back to component indices via ``component_vars``.  A
    bulk read (``next_nonce`` iterating every bound value) therefore
    reports every component the rule binds — the honest worst case.
    """
    ctx = ctx or RuleContext()
    rule = fp.rule
    touched: Set[int] = set()
    probes = 0
    for state in states:
        if probes >= max_probes:
            break
        for binding in rule.instantiations(state, ctx):
            if probes >= max_probes:
                break
            probes += 1
            accessed: Set[str] = set()
            recorder = RecordingBinding(dict(binding), accessed)
            try:
                if rule.guard is not None:
                    rule.guard(recorder, ctx)
                if rule.where is not None:
                    rule.where(recorder, ctx)
            except Exception:   # noqa: BLE001 - probing must not abort lint
                accessed.update(recorder.keys())
            for name in accessed:
                index = fp.component_vars.get(name)
                if index is not None:
                    touched.add(index)
    return touched
