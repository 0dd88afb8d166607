"""QoS classes and the SLO policy: contracts and validation."""

import pytest

from repro.errors import InvalidParameterError
from repro.slo import (
    BEST_EFFORT,
    DEFAULT_CLASSES,
    DEFAULT_POLICY,
    GOLD,
    STANDARD,
    QoSClass,
    SloPolicy,
)


class TestClassTable:
    def test_default_tiers_are_ordered_by_priority(self):
        assert [qos.priority for qos in DEFAULT_CLASSES] == [0, 1, 2]
        assert GOLD.deadline_ms < STANDARD.deadline_ms < BEST_EFFORT.deadline_ms

    def test_ladder_consent_tightens_with_priority(self):
        # Gold consents to nothing; best-effort consents to everything.
        assert not GOLD.degradable and not GOLD.sheddable
        assert STANDARD.degradable and not STANDARD.sheddable
        assert BEST_EFFORT.degradable and BEST_EFFORT.sheddable

    @pytest.mark.parametrize("kwargs", [{"deadline_ms": 0.0}, {"queue_budget": 0}])
    def test_bad_class_rejected(self, kwargs):
        defaults = dict(
            name="x",
            priority=0,
            deadline_ms=1.0,
            queue_budget=4,
            degradable=True,
            sheddable=True,
        )
        with pytest.raises(InvalidParameterError):
            QoSClass(**{**defaults, **kwargs})


class TestPolicy:
    def test_class_named_resolves_and_rejects(self):
        assert DEFAULT_POLICY.class_named("gold") is GOLD
        with pytest.raises(InvalidParameterError):
            DEFAULT_POLICY.class_named("platinum")

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(InvalidParameterError):
            SloPolicy(classes=(GOLD, GOLD))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"classes": ()},
            {"degraded_recall": 0.0},
            {"degraded_recall": 1.5},
            {"ewma_alpha": 0.0},
            {"initial_service_ms": 0.0},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SloPolicy(**kwargs)
