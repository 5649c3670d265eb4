"""``repro.verify`` — independence analysis, DPOR, cutoff certification.

The verification subsystem behind ``repro verify``:

- :mod:`repro.verify.footprint` — static read/write/consume footprints of
  compiled TRS rules;
- :mod:`repro.verify.independence` — the machine-checked independence
  relation (static classification, instance refinement, diamond
  validation);
- :mod:`repro.verify.dpor` — sleep-set / persistent-set partial-order
  reduction for the bounded explorers;
- :mod:`repro.verify.systems` — the per-system verification recipes;
- :mod:`repro.verify.cutoff` — cutoff-certified parameterized
  verification of the ring systems, with signed verdict artifacts.
"""

from repro.verify.cutoff import (CUTOFFS, PROPERTIES, SCHEMA, TOPOLOGY,
                                 SizeRun, certify, certify_sizes,
                                 certify_system, check_verdict,
                                 check_verdicts, explore_size, load_verdict,
                                 resolve_property, sign, verify_signature,
                                 write_verdict)
from repro.verify.dpor import (DporResult, exactness_report, explore_dpor,
                               validate_dpor)
from repro.verify.footprint import (BagFootprint, RuleFootprint,
                                    ScalarFootprint, footprint_of, footprints)
from repro.verify.independence import (IndependenceRelation,
                                       InstanceFootprint, check_commutation,
                                       instance_footprint, validate_relation)
from repro.verify.systems import SYSTEMS, VerifySystem, get_system, system_names

__all__ = [
    "SCHEMA", "TOPOLOGY", "CUTOFFS", "PROPERTIES",
    "certify", "certify_system", "certify_sizes", "explore_size", "SizeRun",
    "resolve_property", "check_verdict", "check_verdicts", "load_verdict",
    "write_verdict", "sign", "verify_signature",
    "DporResult", "explore_dpor", "exactness_report", "validate_dpor",
    "BagFootprint", "ScalarFootprint", "RuleFootprint",
    "footprint_of", "footprints",
    "IndependenceRelation", "InstanceFootprint", "instance_footprint",
    "check_commutation", "validate_relation",
    "SYSTEMS", "VerifySystem", "get_system", "system_names",
]
