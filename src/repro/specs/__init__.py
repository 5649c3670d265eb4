"""The paper's protocol specifications as executable TRSs.

Six systems, in refinement order (Sections 3–4):

1. :mod:`repro.specs.system_s` — System S, the abstract broadcast protocol.
2. :mod:`repro.specs.system_s1` — System S1, local prefix histories.
3. :mod:`repro.specs.system_token` — System Token, broadcast gated by a token.
4. :mod:`repro.specs.system_message_passing` — System Message-Passing,
   explicit send/receive (rule 3' gives circular rotation).
5. :mod:`repro.specs.system_search` — System Search, nondeterministic token
   search with traps.
6. :mod:`repro.specs.system_binary_search` — System BinarySearch, the
   paper's contribution: ring rotation + logarithmic search.

:mod:`repro.specs.properties` machine-checks the prefix property and token
uniqueness; :mod:`repro.specs.refinement` machine-checks the Lemma 1–3 /
Theorem 1 refinement mappings along concrete reductions.
:mod:`repro.specs.chain` records the chain once — one row per system with
its bounds, properties and refinement edge — for verify, lint,
``repro refinement`` and spec fuzzing.
"""

from repro.specs import (
    chain,
    common,
    modelcheck,
    properties,
    refinement,
    system_binary_search,
    system_message_passing,
    system_s,
    system_s1,
    system_search,
    system_token,
)
from repro.specs.properties import (
    prefix_property,
    token_count,
    token_uniqueness,
)
from repro.specs.refinement import check_refinement

__all__ = [
    "chain",
    "check_refinement",
    "common",
    "modelcheck",
    "prefix_property",
    "properties",
    "refinement",
    "system_binary_search",
    "system_message_passing",
    "system_s",
    "system_s1",
    "system_search",
    "system_token",
    "token_count",
    "token_uniqueness",
]
