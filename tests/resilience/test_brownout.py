"""Brownout ladder: thresholds, hysteresis, shed order, batch shrink.

Everything here is evaluation-counted (no wall clock), so the ladder's
walk is exactly reproducible — the property the chaos replay suite
leans on.
"""

import math
from collections import deque

import pytest
from hypothesis import given, strategies as st

from repro import build_manifest, telemetry
from repro.exceptions import ConfigurationError
from repro.resilience.brownout import BrownoutGovernor, BrownoutPolicy


def _governor(**overrides):
    kwargs = dict(
        criticality_classes=4,
        queue_high=10,
        queue_low=2,
        p95_high_seconds=0.5,
        p95_low_seconds=0.1,
        recovery_updates=2,
    )
    kwargs.update(overrides)
    return BrownoutGovernor(BrownoutPolicy(**kwargs))


def _push_to(governor, level, queue_depth=100):
    for _ in range(level):
        governor.evaluate(queue_depth)
    assert governor.level == level


class TestLadder:
    def test_steps_up_one_rung_per_hot_evaluation(self):
        governor = _governor()
        assert governor.evaluate(queue_depth=0) == 0
        assert governor.evaluate(queue_depth=10) == 1
        assert governor.evaluate(queue_depth=10) == 2
        assert governor.evaluate(queue_depth=10) == 3

    def test_p95_pressure_also_steps_up(self):
        governor = _governor()
        for _ in range(30):
            governor.observe_latency(1.0)
        assert governor.latency_p95() == pytest.approx(1.0)
        assert governor.evaluate(queue_depth=0) == 1

    def test_tops_out_at_max_level(self):
        governor = _governor(criticality_classes=4)
        assert governor.policy.max_level == 5
        for _ in range(10):
            governor.evaluate(queue_depth=100)
        assert governor.level == 5

    def test_recovery_is_hysteretic(self):
        governor = _governor(recovery_updates=2)
        _push_to(governor, 2)
        # One calm evaluation is not enough...
        assert governor.evaluate(queue_depth=0) == 2
        # ...the second steps down one rung, and the streak resets.
        assert governor.evaluate(queue_depth=0) == 1
        assert governor.evaluate(queue_depth=0) == 1
        assert governor.evaluate(queue_depth=0) == 0

    def test_middling_pressure_resets_the_calm_streak(self):
        governor = _governor(queue_high=10, queue_low=2, recovery_updates=2)
        _push_to(governor, 1)
        assert governor.evaluate(queue_depth=0) == 1   # calm #1
        assert governor.evaluate(queue_depth=5) == 1   # neither hot nor calm
        assert governor.evaluate(queue_depth=0) == 1   # calm #1 again
        assert governor.evaluate(queue_depth=0) == 0


class TestDegradation:
    def test_level_1_approximates_only(self):
        governor = _governor()
        _push_to(governor, 1)
        assert governor.approximate
        assert not governor.shrink_batches
        assert governor.batch_limits(64, 0.01) == (64, 0.01)
        assert not governor.should_shed(3)

    def test_level_2_shrinks_batch_windows(self):
        governor = _governor(batch_shrink_factor=0.25)
        _push_to(governor, 2)
        assert governor.shrink_batches
        size, delay = governor.batch_limits(64, 0.02)
        assert size == 16
        assert delay == pytest.approx(0.005)
        assert governor.batch_limits(2, 0.0) == (1, 0.0)  # size floors at 1

    def test_shed_order_is_descending_criticality(self):
        governor = _governor(criticality_classes=4)
        # Level 3 sheds only class 3; level 4 adds class 2; level 5
        # adds class 1.  Class 0 is never shed at any level.
        expectations = {
            3: {0: False, 1: False, 2: False, 3: True},
            4: {0: False, 1: False, 2: True, 3: True},
            5: {0: False, 1: True, 2: True, 3: True},
        }
        for level, sheds in expectations.items():
            governor = _governor(criticality_classes=4)
            _push_to(governor, level)
            for cls, expected in sheds.items():
                assert governor.should_shed(cls) is expected, (level, cls)

    def test_shed_floor_table(self):
        policy = BrownoutPolicy(criticality_classes=4)
        assert policy.shed_floor(0) is None
        assert policy.shed_floor(2) is None
        assert policy.shed_floor(3) == 3
        assert policy.shed_floor(4) == 2
        assert policy.shed_floor(5) == 1
        assert policy.shed_floor(99) == 1  # never reaches class 0


class TestTelemetryAndValidation:
    def test_transitions_and_sheds_land_in_manifest(self):
        with telemetry() as registry:
            governor = _governor()
            _push_to(governor, 3)
            governor.should_shed(3)
            governor.should_shed(3)
            governor.evaluate(queue_depth=0)
            governor.evaluate(queue_depth=0)  # steps down to 2
        manifest = build_manifest(registry)["brownout"]
        assert manifest["moves"] == {"down": 1, "up": 3}
        assert manifest["shed_by_class"] == {"3": 2}
        walk = [(t["from"], t["to"]) for t in manifest["transitions"]]
        assert walk == [(0, 1), (1, 2), (2, 3), (3, 2)]

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            BrownoutPolicy(criticality_classes=0)
        with pytest.raises(ConfigurationError):
            BrownoutPolicy(queue_high=0)
        with pytest.raises(ConfigurationError):
            BrownoutPolicy(queue_high=4, queue_low=5)
        with pytest.raises(ConfigurationError):
            BrownoutPolicy(p95_high_seconds=0.1, p95_low_seconds=0.2)
        with pytest.raises(ConfigurationError):
            BrownoutPolicy(batch_shrink_factor=1.0)
        with pytest.raises(ConfigurationError):
            BrownoutPolicy(recovery_updates=0)


class _SortingGovernor(BrownoutGovernor):
    """Reference p95: a bounded deque sorted afresh on every read."""

    def __init__(self, policy):
        super().__init__(policy)
        self._window = deque(maxlen=policy.latency_window)

    def observe_latency(self, seconds):
        with self._lock:
            self._window.append(float(seconds))

    def _p95_locked(self):
        if not self._window:
            return 0.0
        ordered = sorted(self._window)
        index = max(0, int(0.95 * len(ordered)) - (len(ordered) >= 20))
        index = min(index, len(ordered) - 1)
        return ordered[index]


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# Few distinct values, so windows hold many ties (-0.0 ties with 0.0).
_LATENCIES = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 2.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestIncrementalP95:
    @given(data=st.data(), window=st.integers(min_value=1, max_value=40))
    def test_matches_a_sorting_reference(self, data, window):
        policy = BrownoutPolicy(
            criticality_classes=3,
            queue_high=10,
            queue_low=2,
            p95_high_seconds=0.5,
            p95_low_seconds=0.1,
            latency_window=window,
            recovery_updates=2,
        )
        # Each step folds in one latency, then evaluates at 0-3 queue
        # depths; there are always more latencies than the window holds.
        steps = data.draw(
            st.lists(
                st.tuples(
                    _LATENCIES,
                    st.lists(st.integers(min_value=0, max_value=14),
                             max_size=3),
                ),
                min_size=window + 1,
                max_size=3 * window + 20,
            )
        )
        governor = BrownoutGovernor(policy)
        reference = _SortingGovernor(policy)
        for seconds, depths in steps:
            governor.observe_latency(seconds)
            reference.observe_latency(seconds)
            assert _same_float(
                governor.latency_p95(), reference.latency_p95()
            )
            # The whole window, not only its p95 rank, matches a stable
            # sort, down to which of two tied zeros left first.
            assert list(map(repr, governor._sorted)) == list(
                map(repr, sorted(reference._window))
            )
            for depth in depths:
                assert governor.evaluate(depth) == reference.evaluate(depth)
        assert governor.transitions() == reference.transitions()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_latency_is_rejected(self, bad):
        governor = _governor()
        governor.observe_latency(0.2)
        with pytest.raises(ConfigurationError, match="finite"):
            governor.observe_latency(bad)
        assert governor.latency_p95() == 0.2
