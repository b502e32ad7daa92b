"""ResiliencePolicy: validation, JSON round-trip, seeded backoff."""

import json
import random

import pytest

from repro.resilience import DEFAULT_LADDER, ResiliencePolicy


class TestValidation:
    def test_defaults_are_valid(self):
        policy = ResiliencePolicy()
        assert policy.max_restarts == 3
        assert policy.ladder == DEFAULT_LADDER

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(max_restarts=-1), "max_restarts"),
            (dict(backoff_base=-0.1), "backoff_base"),
            (dict(backoff_multiplier=0.5), "backoff_multiplier"),
            (dict(backoff_jitter=1.5), "backoff_jitter"),
            (dict(checkpoint_every=0), "checkpoint_every"),
            (dict(keep_checkpoints=0), "keep_checkpoints"),
            (dict(lease_seconds=0.0), "lease_seconds"),
            (dict(ladder=("par", "par")), "repeats"),
            (dict(ladder=("gpu", "lockstpe")), "unknown backend 'lockstpe'"),
        ],
    )
    def test_bad_values_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ResiliencePolicy(**kwargs)

    def test_ladder_coerced_to_tuple(self):
        policy = ResiliencePolicy(ladder=["gpu", "lockstep"])
        assert policy.ladder == ("gpu", "lockstep")


class TestRoundTrip:
    def test_dict_round_trip(self):
        policy = ResiliencePolicy(
            max_restarts=5, backoff_base=0.01, backoff_jitter=0.25,
            seed=42, checkpoint_every=2, ladder=("par", "cluster"),
            lease_seconds=1.5, verify_degraded=False,
        )
        assert ResiliencePolicy.from_dict(policy.to_dict()) == policy

    def test_json_file_round_trip(self, tmp_path):
        policy = ResiliencePolicy(max_restarts=1, lease_seconds=0.5)
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(policy.to_dict()))
        assert ResiliencePolicy.load(path) == policy

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown policy key"):
            ResiliencePolicy.from_dict({"max_restarts": 1, "retries": 9})

    def test_describe_mentions_the_ladder(self):
        text = ResiliencePolicy(lease_seconds=2.0).describe()
        assert "par -> cluster -> gpu -> lockstep" in text
        assert "lease 2s" in text


class TestBackoff:
    def test_exponential_growth_with_cap(self):
        policy = ResiliencePolicy(
            backoff_base=0.01, backoff_multiplier=2.0,
            backoff_jitter=0.0, backoff_cap=0.05,
        )
        rng = random.Random(0)
        delays = [policy.backoff_delay(k, rng) for k in range(5)]
        assert delays[:3] == [0.01, 0.02, 0.04]
        assert delays[3] == delays[4] == 0.05  # saturates at the cap

    def test_jitter_is_seeded_and_bounded(self):
        policy = ResiliencePolicy(
            backoff_base=0.1, backoff_jitter=0.5, backoff_cap=1.0
        )
        a = [policy.backoff_delay(0, random.Random(7)) for _ in range(3)]
        assert a[0] == a[1] == a[2]  # same seed, same decision
        assert 0.05 <= a[0] <= 0.1  # within [delay*(1-jitter), delay]

    def test_zero_jitter_still_consumes_a_draw(self):
        """Decision sequences stay aligned across policy variants."""
        policy = ResiliencePolicy(backoff_jitter=0.0)
        rng = random.Random(3)
        policy.backoff_delay(0, rng)
        assert rng.random() != random.Random(3).random()


class TestLadder:
    def test_walks_the_default_ladder(self):
        policy = ResiliencePolicy()
        assert policy.next_backend("par") == "cluster"
        assert policy.next_backend("cluster") == "gpu"
        assert policy.next_backend("gpu") == "lockstep"
        assert policy.next_backend("lockstep") is None

    def test_backend_off_ladder_has_nowhere_to_fall(self):
        assert ResiliencePolicy(ladder=()).next_backend("event") is None
