"""The paper's refinement chain, recorded once.

S → S1 → Token → MP → Search → BinarySearch (Sections 3–4, Lemmas 1–3,
Theorem 1).  :data:`CHAIN` holds one :class:`SpecSystem` row per system,
in chain order, and every consumer reads it:

- ``repro verify`` (:mod:`repro.verify.systems`, keyed by ``key``) — the
  ring flag, the properties and the verification ``bounds``;
- ``repro lint`` (:mod:`repro.lint.registry`, keyed by ``name``) — the
  sampling size ``lint_n``, ``lint_bounds`` and ``expected_idle``;
- ``repro refinement`` and lint's simulation pass — the refinement
  ``edge`` to the coarse parent system;
- spec fuzzing (:mod:`repro.fuzz`, keyed by ``state``) — the module's
  ``STATE`` functor.

The three spellings all persist (in signed verdicts, lint JSON and fuzz
case files), so all three stay.  Bounds are data: both bound sets are
applied by :func:`~repro.specs.modelcheck.apply_bounds`, so the bounds a
verdict records are by construction the bounds its exploration applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Dict, Optional, Tuple

from repro.specs import (system_binary_search, system_message_passing,
                         system_s, system_s1, system_search, system_token)
from repro.specs.modelcheck import apply_bounds
from repro.specs.refinement import (binary_search_to_s1, mp_to_s1, s1_to_s,
                                    search_to_s1, token_to_s1)
from repro.trs.rules import RuleSet
from repro.trs.terms import Term

__all__ = ["CHAIN", "Edge", "SpecSystem"]


@dataclass(frozen=True)
class Edge:
    """A refinement step: this system's states map into ``parent``'s."""

    parent: SpecSystem                   #: the coarse system
    mapping: Callable[[Term], Term]      #: fine state -> coarse state
    depth: int                           #: coarse steps per fine step
    label: str                           #: the lemma it machine-checks
    #: rule weights for ``repro refinement``'s random reduction
    weights: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SpecSystem:
    """One system of the chain and everything its consumers need."""

    key: str
    name: str
    title: str
    module: ModuleType
    #: the ``make_rules`` keyword that selects the refined rule set
    #: (``restricted`` or ``ring``) and whether it takes the ring size
    refine: str
    sized: bool
    #: True for the unidirectional token-passing rings, the topology the
    #: cutoff table of :mod:`repro.verify.cutoff` is stated for
    ring: bool
    properties: Tuple[str, ...]
    #: Section-4 guard narrowings for verification at every ring size;
    #: verdict artifacts record exactly this dict
    bounds: Dict[str, Any]
    lint_n: int
    lint_bounds: Dict[str, Any]
    #: rules provably never enabled under ``lint_bounds``, with the reason
    expected_idle: Dict[str, str] = field(default_factory=dict)
    edge: Optional[Edge] = None
    default_n: int = 3
    cert_max_states: int = 200_000

    @property
    def state(self) -> str:
        """The state functor, the spelling fuzz case files use."""
        return str(self.module.STATE)

    def rules(self, n: int, refined: bool) -> RuleSet:
        """The rule set for ring size ``n``: refined, or its coarse parent
        over the same state space."""
        args = (n,) if self.sized else ()
        return self.module.make_rules(*args, **{self.refine: refined})

    def initial(self, n: int) -> Term:
        return self.module.initial_state(n)

    def bounded(self, n: int) -> RuleSet:
        """The refined rule set under :attr:`bounds` — what verify explores."""
        return apply_bounds(self.rules(n, True), self.bounds)


_SEARCHING = ("prefix-property", "token-uniqueness", "search-direction")

_S = SpecSystem(
    "s", "S", "System S (centralized)", system_s,
    refine="restricted", sized=False, ring=False,
    properties=("prefix-property",),
    bounds={"data_per_node": 1},
    lint_n=2, lint_bounds={"data_per_node": 2},
)
_S1 = SpecSystem(
    "s1", "S1", "System S1 (local histories)", system_s1,
    refine="restricted", sized=False, ring=False,
    properties=("prefix-property",),
    bounds={"data_per_node": 1},
    lint_n=2, lint_bounds={"data_per_node": 2},
    edge=Edge(_S, s1_to_s, 1, "S1 -> S (Lemma 1)"),
)

CHAIN: Tuple[SpecSystem, ...] = (
    _S,
    _S1,
    SpecSystem(
        "token", "Token", "System Token (circulating token)", system_token,
        refine="ring", sized=True, ring=True,
        properties=("prefix-property",),
        bounds={"data_per_node": 1},
        lint_n=2, lint_bounds={"data_per_node": 2},
        edge=Edge(_S1, token_to_s1, 2, "Token -> S1 (Lemma 2)"),
    ),
    SpecSystem(
        "message_passing", "MP", "System MP (token messages)",
        system_message_passing,
        refine="ring", sized=True, ring=True,
        properties=("prefix-property", "token-uniqueness"),
        bounds={"data_per_node": 1, "data_nodes": [1]},
        lint_n=2, lint_bounds={"data_per_node": 1},
        edge=Edge(_S1, mp_to_s1, 2, "MP -> S1 (Lemma 3)"),
    ),
    SpecSystem(
        # No visit bound: Search's circulation (rule 4') extends the
        # history only when broadcasting pending data, which the data
        # bound already caps.
        "search", "Search", "System Search (linear gimme search)",
        system_search,
        refine="restricted", sized=True, ring=True,
        properties=_SEARCHING,
        bounds={"data_per_node": 1, "data_nodes": [1],
                "single_outstanding_request": True},
        lint_n=3, lint_bounds={"data_per_node": 1, "data_nodes": [1],
                               "single_outstanding_request": True},
        edge=Edge(_S1, search_to_s1, 2, "Search -> S1",
                  {"5": 0.5, "6": 0.8}),
    ),
    SpecSystem(
        # lint_n = 5 so forwarding (rule 6) is live: the initial span n//2
        # must survive one halving, which needs n >= 4.
        "binary_search", "BinarySearch", "System BinarySearch (Figure 8)",
        system_binary_search,
        refine="restricted", sized=True, ring=True,
        properties=_SEARCHING,
        bounds={"data_per_node": 1, "data_nodes": [1],
                "single_outstanding_request": True, "visit_limit": 5},
        lint_n=5, lint_bounds={"data_per_node": 1, "data_nodes": [2],
                               "single_outstanding_request": True,
                               "visit_limit": 5},
        expected_idle={
            "6s": "under the span scheme a gimme's target offsets are "
                  "n/2 ± n/4 ± …, never 0 mod n, so a node cannot "
                  "receive its own request (x = z is unreachable)",
        },
        edge=Edge(_S1, binary_search_to_s1, 2,
                  "BinarySearch -> S1 (Thm 1)",
                  {"1": 1.5, "2": 3.0, "5": 0.6}),
    ),
)
