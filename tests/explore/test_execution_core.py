"""Sweeps and explorations share one execution core.

``SweepRunner.run`` and ``ExplorationDriver`` both go through
``repro.spec.runner.execute_payloads``: the same batch grouping, the
same supervision (a per-call policy, serial or pooled) and the same
refill of missing records.  These tests pin that the two front doors
agree row for row."""

import pytest

from repro import faults
from repro.explore import Axis, ExplorationDriver, Objective, SearchSpace
from repro.results import ResultStore
from repro.spec import SweepRunner
from repro.spec import runner as runner_mod
from repro.spec.presets import fig7_spec
from repro.spec.runner import (
    QUARANTINE_PREFIX,
    SupervisionPolicy,
    execute_payloads,
    is_quarantined,
)


@pytest.fixture(autouse=True)
def disarmed():
    faults.clear()
    yield
    faults.clear()


def fast_base():
    return fig7_spec(fft_size=64, duration=0.4).with_override(
        "kernel", "fast"
    )


#: 4 capacitances x 2 frequencies: the 8-point grid both paths run.
SPACE = SearchSpace.of(
    Axis.categorical("capacitance", [22e-6, 33e-6, 47e-6, 68e-6]),
    Axis.continuous("frequency", 4.7, 9.4),
)
GRID = {axis.name: axis.grid(2) for axis in SPACE.axes}
OBJECTIVE = Objective("completion_time", "min", require="completed")


def store_rows(store):
    return sorted((r.spec_hash, repr(r.metrics)) for r in store.results())


def grid_driver(store, **extra):
    return ExplorationDriver(
        fast_base(), SPACE, [OBJECTIVE], optimizer="grid",
        optimizer_params={"resolution": 2}, store=store, max_workers=2,
        **extra,
    )


@pytest.mark.parametrize("parallel", [True, False])
@pytest.mark.parametrize("batch_size", [None, 0])
def test_grid_exploration_stores_the_same_rows_as_the_sweep(
    batch_size, parallel
):
    sweep_store, explore_store = ResultStore(), ResultStore()
    events = []
    SweepRunner(fast_base(), GRID, max_workers=2).run(
        parallel=parallel, store=sweep_store, batch_size=batch_size,
        progress=events.append,
    )
    outcome = grid_driver(
        explore_store, parallel=parallel, batch_size=batch_size,
        progress=events.append,
    ).run(budget=8)
    assert len(outcome) == 8
    assert len(sweep_store) == 8
    assert store_rows(explore_store) == store_rows(sweep_store)
    sweep_event, explore_event = events
    # Both paths report the same batched-kernel accounting.
    for name in ("members", "passes", "advanced", "settled", "diverged"):
        assert getattr(sweep_event, name) == getattr(explore_event, name)
    assert (sweep_event.members is None) == (batch_size is None)


@pytest.mark.parametrize("parallel", [False, True])
def test_supervised_exploration_quarantines_like_a_sweep(parallel):
    """Every evaluation of an always-crashing exploration ends as a
    quarantine row after 1 + max_retries attempts, serial or pooled,
    exactly as a supervised sweep's points do."""
    policy = SupervisionPolicy(max_retries=1)
    space = SearchSpace.of(Axis.log("capacitance", 22e-6, 47e-6))
    store = ResultStore()
    with faults.active({"worker.crash": 1.0}):
        outcome = ExplorationDriver(
            fast_base(), space, [OBJECTIVE], optimizer="random",
            seed=3, store=store, parallel=parallel, max_workers=2,
            policy=policy,
        ).run(budget=3)
        sweep = SweepRunner(
            fast_base(), {"capacitance": [22e-6, 47e-6]}, max_workers=2
        ).run(parallel=parallel, policy=policy)
    results = [e.result for e in outcome.evaluations] + list(sweep.points)
    assert len(results) == 5
    for result in results:
        assert is_quarantined(result)
        assert result.error.startswith(
            f"{QUARANTINE_PREFIX}2 attempt(s) crashed"
        )
    # Quarantine rows are deterministic outcomes: the store keeps them.
    assert len(store) == 3


def test_missing_batch_member_record_becomes_a_worker_failure_row(
    monkeypatch
):
    """A batch worker returning fewer member records than it was sent
    leaves the missing points with a transient worker-failure row, keyed
    like every other crash row for the same payload."""
    real = runner_mod.run_point_payload

    def short_batch(payload):
        record = real(payload)
        if "batch" in record:
            record["batch"] = record["batch"][:-1]
        return record

    monkeypatch.setattr(runner_mod, "run_point_payload", short_batch)
    base = fast_base()
    overrides = [{"capacitance": c} for c in (22e-6, 47e-6)]
    payloads = [
        {"spec_overrides": o, "overrides": o} for o in overrides
    ]
    records, stats = execute_payloads(
        payloads, [base.with_overrides(o) for o in overrides],
        batch_size=0, parallel=False, base_spec=base.to_dict(),
    )
    assert stats["members"] == 2
    assert records[0]["metrics"]["error"] is None
    missing = records[1]
    assert missing["metrics"]["error"] == (
        "worker failed: RuntimeError: batch worker returned no record"
    )
    assert missing["spec_hash"] == runner_mod._task_failure_key(
        payloads[1], base.to_dict()
    )
