"""Differential wall: degenerate priority arbitration is the paper model.

With one criticality class and unit tenure, every priority discipline
must collapse to exactly the arbitration the paper describes — not
approximately, *bit-identically*.  These tests pin that collapse across
all five connection schemes and both paper request models along three
independent routes:

* the priority simulator's per-cycle grant counts ``==`` the class-blind
  simulator's for the same seed (the stage-one winner *identity* may
  differ between arbiters, but under a work-conserving arbiter the grant
  counts are a pure function of the request stream);
* the loop and vectorized priority backends agree array-for-array; and
* the degenerate analytic split reproduces eqs. 1-12 within 1e-9.
"""

from __future__ import annotations

import pytest

from repro.analysis.batch import priority_class_profile
from repro.analysis.evaluate import analytic_bandwidth
from repro.analysis.sweep import paper_model_pair
from repro.core.priority import DISCIPLINES, ArbitrationSpec
from repro.simulation.engine import MultiprocessorSimulator
from repro.topology.factory import build_network

SCHEMES = [
    ("full", {}),
    ("single", {}),
    ("partial", {"n_groups": 2}),
    ("kclass", {}),
    ("crossbar", {}),
]
N = 8
B = 4
CYCLES = 1500
SEED = 404

_BASELINES: dict[tuple, object] = {}


def _network(scheme: str, kwargs: dict):
    n_buses = N if scheme == "crossbar" else B
    return build_network(scheme, N, N, n_buses, **kwargs)


def _baseline(scheme, kwargs, model_name, rate):
    """Class-blind loop-backend run, cached across parametrizations."""
    key = (scheme, model_name, rate)
    if key not in _BASELINES:
        model = paper_model_pair(N, rate)[model_name]
        _BASELINES[key] = MultiprocessorSimulator(
            _network(scheme, kwargs), model, seed=SEED, backend="loop"
        ).run(CYCLES)
    return _BASELINES[key]


def _priority_run(scheme, kwargs, model_name, rate, spec, backend):
    model = paper_model_pair(N, rate)[model_name]
    return MultiprocessorSimulator(
        _network(scheme, kwargs), model, seed=SEED, backend=backend,
        spec=spec,
    ).run(CYCLES)


@pytest.mark.parametrize("discipline", DISCIPLINES)
@pytest.mark.parametrize("model_name", ["hier", "unif"])
@pytest.mark.parametrize("scheme,kwargs", SCHEMES, ids=lambda v: str(v))
def test_degenerate_simulation_matches_baseline(
    scheme, kwargs, model_name, discipline
):
    """K = 1, L = 1 under any discipline == today's simulator, ``==``."""
    spec = ArbitrationSpec(discipline=discipline)
    assert spec.is_degenerate
    baseline = _baseline(scheme, kwargs, model_name, 1.0)
    loop = _priority_run(scheme, kwargs, model_name, 1.0, spec, "loop")
    vec = _priority_run(
        scheme, kwargs, model_name, 1.0, spec, "vectorized"
    )

    # Route 1: the priority engine reproduces the paper-model simulator.
    assert loop.total.grant_counts == baseline.grant_counts
    assert loop.total.bandwidth == baseline.bandwidth
    assert loop.bandwidth == baseline.bandwidth
    assert loop.total.bandwidth_ci95 == baseline.bandwidth_ci95
    assert loop.total.bus_utilization == baseline.bus_utilization
    assert loop.total.acceptance_probability == (
        baseline.acceptance_probability
    )

    # Route 2: both priority backends agree array-for-array.
    assert vec.per_class_grant_counts == loop.per_class_grant_counts
    assert vec.per_class_starved_cycles == loop.per_class_starved_cycles
    assert vec.per_class_blocked_tenure == loop.per_class_blocked_tenure
    assert vec.total.grant_counts == baseline.grant_counts

    # The single class carries the whole system.
    assert loop.n_classes == 1
    assert loop.per_class_bandwidth == (loop.total.bandwidth,)
    assert loop.per_class_blocked_tenure == (0,)
    assert loop.per_class_mean_grant_latency == (1.0,)


@pytest.mark.parametrize("rate", [0.5, 1.0])
@pytest.mark.parametrize("discipline", DISCIPLINES)
@pytest.mark.parametrize("model_name", ["hier", "unif"])
@pytest.mark.parametrize("scheme,kwargs", SCHEMES, ids=lambda v: str(v))
def test_degenerate_analytics_match_closed_forms(
    scheme, kwargs, model_name, discipline, rate
):
    """Degenerate class split reproduces eqs. 1-12 within 1e-9."""
    network = _network(scheme, kwargs)
    model = paper_model_pair(N, rate)[model_name]
    profile = priority_class_profile(
        scheme,
        N,
        N,
        network.n_buses,
        model,
        discipline=discipline,
        **kwargs,
    )
    expected = analytic_bandwidth(network, model)
    assert profile.total == pytest.approx(expected, abs=1e-9)
    assert profile.per_class == (profile.total,)
    assert profile.tenure == 1.0
    assert profile.effective_buses == network.n_buses


@pytest.mark.parametrize("model_name", ["hier", "unif"])
@pytest.mark.parametrize("scheme,kwargs", SCHEMES, ids=lambda v: str(v))
def test_multiclass_totals_stay_work_conserving(scheme, kwargs, model_name):
    """Class weights alone (L = 1) never change the total grant stream."""
    baseline = _baseline(scheme, kwargs, model_name, 1.0)
    spec = ArbitrationSpec(
        discipline="strict", class_weights=(0.25, 0.75)
    )
    result = _priority_run(scheme, kwargs, model_name, 1.0, spec, "loop")
    assert result.total.grant_counts == baseline.grant_counts
    assert sum(result.per_class_bandwidth) == pytest.approx(
        result.total.bandwidth, abs=1e-12
    )
