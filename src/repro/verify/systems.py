"""Registry of verifiable systems for ``repro verify``.

A view of the refinement chain table :data:`repro.specs.chain.CHAIN`,
keyed by verify key.  Each row gives, *per instance size n*, the bounded
rule set, the initial state, which safety properties apply, and whether
the system is a unidirectional token-passing ring (the topology the
cutoff table of :mod:`repro.verify.cutoff` is stated for).

Each row records two bound sets, both applied by
:func:`repro.specs.modelcheck.apply_bounds`:

- ``bounds`` — what ``repro verify`` explores at every ring size up to
  the cutoff, and what each verdict records;
- ``lint_bounds`` — what ``repro lint`` samples at its one size
  ``lint_n``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import VerifyError
from repro.specs.chain import CHAIN
from repro.specs.chain import SpecSystem as VerifySystem

__all__ = ["VerifySystem", "SYSTEMS", "get_system", "system_names"]

SYSTEMS: Dict[str, VerifySystem] = {system.key: system for system in CHAIN}


def system_names() -> List[str]:
    return sorted(SYSTEMS)


def get_system(key: str) -> VerifySystem:
    try:
        return SYSTEMS[key]
    except KeyError:
        raise VerifyError(
            f"unknown system {key!r}; expected one of {system_names()}"
        ) from None
