"""Metric-extractor registry: contribution, layout, extraction."""

import pytest

from repro.errors import SpecError
from repro.results import metrics as metrics_mod
from repro.results.metrics import (
    ERROR_COLUMN,
    empty_metrics,
    extract_metrics,
    extractor_names,
    metric_columns,
    register_metric,
    result_columns,
)
from repro.spec.presets import fig7_spec


@pytest.fixture(scope="module")
def fig7_run():
    spec = fig7_spec(fft_size=64, duration=0.3)
    return spec, spec.run()


def test_every_layer_contributes():
    """The cross-layer consolidation: each subsystem owns its columns."""
    names = extractor_names()
    for expected in ("trace", "platform", "engine", "rail", "storage",
                     "governor"):
        assert expected in names


def test_column_layout_is_deterministic_and_unique():
    columns = metric_columns()
    assert columns == metric_columns()
    assert len(columns) == len(set(columns))
    assert ERROR_COLUMN not in columns
    assert result_columns() == columns + [ERROR_COLUMN]
    # trace columns sort first (order=0), platform counters right after.
    assert columns.index("t_end") < columns.index("completed")


def test_legacy_drift_is_gone():
    """cycles_executed is a first-class column, and the result columns
    and the empty metrics row both derive from the registry, so they
    cannot drift apart."""
    assert "cycles_executed" in metric_columns()
    assert set(result_columns()) == set(empty_metrics())


def test_extract_metrics_covers_every_column(fig7_run):
    spec, run = fig7_run
    extracted = extract_metrics(run, spec)
    assert sorted(extracted) == sorted(result_columns())
    assert extracted["completed"] is True
    assert extracted["cycles_executed"] > 0
    assert extracted["energy_harvested"] > extracted["energy_consumed"] * 0.5
    assert extracted["energy_stored_final"] > 0.0
    assert extracted[ERROR_COLUMN] is None


def test_not_applicable_columns_are_none(fig7_run):
    spec, run = fig7_run
    extracted = extract_metrics(run, spec)
    # fig7 runs plain Hibernus: the governor extractor yields nothing.
    assert extracted["governor_updates"] is None
    assert extracted["governor_mean_frequency"] is None


def test_platformless_run_keeps_trace_and_rail_columns():
    from repro.spec.specs import ScenarioSpec, StorageSpec, HarvesterSpec

    spec = ScenarioSpec(
        name="bare",
        duration=0.01,
        dt=1e-4,
        storage=StorageSpec("capacitor", {"capacitance": 22e-6}),
        harvesters=(HarvesterSpec("constant-power", {"power": 1e-3}),),
    )
    extracted = extract_metrics(spec.run(), spec)
    assert extracted["t_end"] == pytest.approx(0.01)
    assert extracted["energy_harvested"] > 0.0
    assert extracted["completed"] is None
    assert extracted["cycles_executed"] is None


def test_register_rejects_column_collisions():
    with pytest.raises(SpecError, match="already contributed"):
        register_metric("imposter", columns=("vcc_min",))(lambda run, spec: {})


def test_register_rejects_reserved_error_column():
    with pytest.raises(SpecError, match="reserved"):
        register_metric("bad", columns=(ERROR_COLUMN,))(lambda run, spec: {})


def test_extractor_cannot_emit_undeclared_columns(fig7_run):
    spec, run = fig7_run

    @register_metric("rogue-test", columns=("rogue_column",), order=999)
    def rogue(run, spec):
        return {"not_declared": 1}

    try:
        with pytest.raises(SpecError, match="undeclared"):
            extract_metrics(run, spec)
    finally:
        del metrics_mod._EXTRACTORS["rogue-test"]


def test_registered_extension_column_flows_to_sweep(fig7_run):
    """Downstream users can contribute columns without touching runner.py."""
    spec, run = fig7_run

    @register_metric("ext-test", columns=("vcc_span",), order=998)
    def span(run, spec):
        vcc = run.vcc()
        return {"vcc_span": float(vcc.maximum() - vcc.minimum())}

    try:
        extracted = extract_metrics(run, spec)
        assert extracted["vcc_span"] == pytest.approx(
            extracted["vcc_max"] - extracted["vcc_min"]
        )
        assert "vcc_span" in result_columns()
    finally:
        del metrics_mod._EXTRACTORS["ext-test"]
