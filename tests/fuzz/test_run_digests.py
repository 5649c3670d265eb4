"""Whole-run fuzz digests, pinned across commits.

One digest covers every case a profile generates from root seed 2001:
labels, pass/fail, event counts and send-stream checksums of all 40
cases.  A refactor that keeps the protocols' behaviour keeps all six
digests; any change to a core's send stream, a generator draw or a
verdict moves at least one.  The sweep takes about half a minute, so
it sits in the ``slow`` tier: ``python -m pytest -m slow
tests/fuzz/test_run_digests.py -q``.
"""

import hashlib
import json

import pytest

from repro.fuzz import fuzz_run

DIGESTS = {
    "clean": "f8e04a39b83765c8",
    "faults": "069e366384d7fc1e",
    "mixed": "9dc576710c848338",
    "fabric": "36c82285065fbb65",
    "stabilize": "6b1c8fa93e2768ce",
    "spec": "149e69a42703f580",
}


def run_digest(root_seed: int, runs: int, profile: str) -> str:
    summaries = fuzz_run(root_seed, runs, profile)
    blob = json.dumps(summaries, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.slow
@pytest.mark.parametrize("profile", sorted(DIGESTS))
def test_fuzz_run_digest_is_pinned(profile):
    assert run_digest(2001, 40, profile) == DIGESTS[profile]
