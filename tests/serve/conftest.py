"""Serving-test fixtures: the loop-stall sanitizer tier.

Every test in this package runs under
:class:`repro.analysis.sanitizers.LoopStallSanitizer` — any event-loop
callback that holds the loop longer than the budget fails the test.
This is the *runtime* half of the ``loop-safety`` static rule: the rule
catches blocking calls reachable from ``serve/`` coroutines at analysis
time, the sanitizer catches whatever slips past it (C extensions,
dynamic dispatch, plain slow Python) at test time.

The budget is generous (0.5 s) because it bounds *loop callbacks*, not
tests: every deliberately slow piece of serving work (merge prepare,
engine batches, checkpoints) runs on executor threads, so a healthy
loop never holds a callback anywhere near that long even on a loaded CI
runner. Tune with ``REPRO_LOOP_STALL_BUDGET`` (seconds); ``0`` disables
the sanitizer entirely.

Setting ``REPRO_CHAOS_SEED=<int>`` additionally runs every test in this
package under :class:`repro.analysis.sanitizers.ChaosEventLoop` — a
seeded event loop that randomizes ready-task wakeup order, the runtime
half of the ``await-atomicity`` static rule. Same seed, same schedule,
so CI failures reproduce locally by exporting the same value.
"""

import asyncio
import os

import pytest

from repro.analysis.sanitizers import ChaosEventLoopPolicy, LoopStallSanitizer

_BUDGET = float(os.environ.get("REPRO_LOOP_STALL_BUDGET", "0.5"))
_CHAOS_SEED = os.environ.get("REPRO_CHAOS_SEED")


@pytest.fixture(autouse=True)
def loop_stall_guard():
    if _BUDGET <= 0:
        yield
        return
    with LoopStallSanitizer(budget=_BUDGET) as sanitizer:
        yield
    sanitizer.assert_clean()


@pytest.fixture(autouse=True)
def chaos_event_loop():
    if _CHAOS_SEED is None:
        yield
        return
    previous = asyncio.get_event_loop_policy()
    asyncio.set_event_loop_policy(ChaosEventLoopPolicy(seed=int(_CHAOS_SEED)))
    try:
        yield
    finally:
        asyncio.set_event_loop_policy(previous)
