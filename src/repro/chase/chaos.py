"""Deterministic fault injection for the parallel discovery tier.

:class:`repro.chase.parallel.ParallelMatcher` claims that worker failures
never change a chase's outcome: a pooled round that fails is recomputed
by the serial pass, and the run is byte-identical to an undisturbed one.
This module makes that claim testable on demand: :class:`ChaosMatcher`
injects failures by a *seeded schedule* at the exact seam real ones
surface through (the master's result-collection hook), so a chaos run is
fully reproducible from its seed.

Three fault shapes, mirroring the real failure modes:

* ``kill`` — raises ``BrokenProcessPool`` as if the worker died;
* ``delay`` — sleeps before handing the result over, perturbing the
  collection timeline without changing any data;
* ``corrupt`` — appends a malformed row to the result, which
  :func:`repro.chase.parallel._validate_rows` must reject.

A kill or a corruption drives the serial recompute, which is never
chaos'd, so every chaos run converges byte-identically.  Faults are drawn
master-side *after* the genuine result is in hand, so injection never
leaves a worker wedged.  The CI chaos job runs the equivalence suite under
``CHASE_CHAOS_SEED`` (see :func:`build_matcher`); the seed is the one
setting, and the schedule's rates are :class:`ChaosPolicy`'s defaults.
"""

from __future__ import annotations

import logging
import os
import random
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Sequence

from repro.chase.parallel import ParallelMatcher
from repro.obs import clock
from repro.obs.log import get_logger, log_event
from repro.tgds.tgd import TGD

_LOGGER = get_logger(__name__)

#: Environment switch: a seed here makes :func:`build_matcher` hand out
#: chaos'd matchers process-wide (the CI chaos job sets it).
CHAOS_SEED_ENV = "CHASE_CHAOS_SEED"


class ChaosPolicy:
    """A seeded fault schedule: one draw per collected task result.

    The draw sequence is consumed in the master's deterministic collection
    order, so the same seed replays the same faults at the same points —
    a failing chaos run is reproducible from its seed alone.
    """

    def __init__(
        self,
        seed: int,
        kill_rate: float = 0.2,
        delay_rate: float = 0.2,
        corrupt_rate: float = 0.2,
        delay_seconds: float = 0.01,
    ):
        for name, rate in (
            ("kill_rate", kill_rate),
            ("delay_rate", delay_rate),
            ("corrupt_rate", corrupt_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if kill_rate + delay_rate + corrupt_rate > 1.0:
            raise ValueError("fault rates must sum to at most 1")
        self.seed = seed
        self.kill_rate = kill_rate
        self.delay_rate = delay_rate
        self.corrupt_rate = corrupt_rate
        self.delay_seconds = delay_seconds
        self._rng = random.Random(seed)

    def draw(self) -> Optional[str]:
        """The next scheduled fault: "kill", "delay", "corrupt", or None."""
        roll = self._rng.random()
        if roll < self.kill_rate:
            return "kill"
        roll -= self.kill_rate
        if roll < self.delay_rate:
            return "delay"
        roll -= self.delay_rate
        if roll < self.corrupt_rate:
            return "corrupt"
        return None

    def __repr__(self) -> str:
        return (
            f"ChaosPolicy(seed={self.seed}, kill={self.kill_rate}, "
            f"delay={self.delay_rate}, corrupt={self.corrupt_rate})"
        )


class ChaosMatcher(ParallelMatcher):
    """A :class:`ParallelMatcher` that injects scheduled faults.

    Overrides the result-collection hook only: planning, execution, and
    the merge are the production code paths, so whatever survives chaos
    is exactly what production would have computed.
    """

    def __init__(self, tgds: Sequence[TGD], policy: ChaosPolicy, workers: int = 1):
        super().__init__(tgds, workers)
        self.policy = policy
        #: Faults actually injected, by shape (tests assert chaos happened).
        self.faults = {"kill": 0, "delay": 0, "corrupt": 0}

    def _fetch(self, future, task_index: int):
        # Wait for the genuine result first: a "killed" worker has already
        # finished, so injection can never wedge the pool itself.
        payload = future.result()
        fault = self.policy.draw()
        if fault is not None:
            self.faults[fault] += 1
            log_event(
                _LOGGER,
                logging.DEBUG,
                "chaos.inject",
                fault=fault,
                task=task_index,
                seed=self.policy.seed,
            )
        if fault == "kill":
            raise BrokenProcessPool(
                f"chaos: worker killed while returning task {task_index}"
            )
        if fault == "delay":
            # Via the obs clock: a FakeClock makes the injected latency
            # observable in tests without actually sleeping.
            clock.sleep(self.policy.delay_seconds)
        elif fault == "corrupt":
            rows, busy = payload
            # A malformed extra row: _validate_rows must reject the batch.
            return list(rows) + [("chaos", "corrupt")], busy
        return payload


def build_matcher(tgds: Sequence[TGD], workers: int = 1) -> ParallelMatcher:
    """The chase loops' matcher factory: production by default, chaos'd
    when ``CHASE_CHAOS_SEED`` is set (the CI fault-injection job's hook).

    Chaos only bites the process backend — the serial pass is the fault
    *recovery* target and stays clean — so a chaos'd chase still
    terminates with the production answer.
    """
    seed = os.environ.get(CHAOS_SEED_ENV)
    if seed:
        return ChaosMatcher(tgds, ChaosPolicy(seed=int(seed)), workers)
    return ParallelMatcher(tgds, workers)
