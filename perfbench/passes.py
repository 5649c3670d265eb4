"""Repeat a fixed unit of work for the run's time budget.

Every unit is timed on its own (wall and process CPU, raw and scaled to
the reference host speed by :mod:`calibrate`) with a garbage collection
before it, so the run reports a median over units rather than one
total.  In a traced run the first ~40% of the budget runs
untraced, the rest with the tracer installed: the two medians give
``trace.overhead_ratio`` from one process.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, List, Optional

from calibrate import SpeedSampler
from common import median, self_cpu_s
from tracing import Tracer

#: Share of a traced run's budget spent on the untraced reference units.
UNTRACED_SHARE = 0.4


def timed(unit: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
    """Run ``unit`` once; adds ``wall``/``cpu`` seconds and their
    speed-normalized ``wall_n``/``cpu_n`` to its result."""
    gc.collect()
    sampler = SpeedSampler()
    sampler.start()
    try:
        cpu0, wall0 = self_cpu_s(), time.perf_counter()
        out = unit()
        wall, cpu = time.perf_counter() - wall0, self_cpu_s() - cpu0
    finally:
        sampler.stop()
    out["wall"], out["cpu"] = wall, cpu
    out["wall_n"], out["cpu_n"] = sampler.normalize(wall), sampler.normalize(cpu)
    return out


def _repeat(run_once: Callable[[], Dict[str, Any]], until: float,
            minimum: int) -> List[Dict[str, Any]]:
    done: List[Dict[str, Any]] = []
    while True:
        done.append(run_once())
        if len(done) >= minimum:
            expected = median([d["wall"] for d in done])
            if time.perf_counter() + expected > until:
                return done


def repeat_units(unit: Callable[[bool], Dict[str, Any]], seconds: float,
                 trace: bool, install: Optional[Callable[[Tracer], None]],
                 minimum: int = 2,
                 measure: Callable[[Callable[[], Dict[str, Any]]],
                                   Dict[str, Any]] = timed
                 ) -> Dict[str, Any]:
    """Run ``unit(traced)`` (returning at least ``{"ops": n}``) until
    ``seconds`` are used, each run timed by ``measure``.  Returns the
    untraced units, and for a traced run the traced units plus the
    in-process tracer ``install`` set up (None without one), reset so
    it covers the traced units alone."""
    start = time.perf_counter()

    def plain() -> Dict[str, Any]:
        return measure(lambda: unit(False))

    if not trace:
        return {"untraced": _repeat(plain, start + seconds, minimum),
                "traced": [], "tracer": None}
    untraced = _repeat(plain, start + UNTRACED_SHARE * seconds, 1)
    tracer = None
    if install is not None:
        tracer = Tracer()
        install(tracer)
        tracer.reset()
    traced = _repeat(lambda: measure(lambda: unit(True)), start + seconds, 1)
    if tracer is not None:
        tracer.uninstall()
    return {"untraced": untraced, "traced": traced, "tracer": tracer}


def traced_wall(units: List[Dict[str, Any]]) -> float:
    return sum(u["wall"] for u in units)


def overhead_ratio(untraced: List[Dict[str, Any]],
                   traced: List[Dict[str, Any]]) -> float:
    """Median traced unit time over median untraced unit time."""
    return (median([u["wall_n"] for u in traced])
            / median([u["wall_n"] for u in untraced]))
