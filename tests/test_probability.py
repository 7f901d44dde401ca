"""Unit tests for failure-probability models (repro.faults.probability)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.component import ComponentType
from repro.faults.probability import (
    HOURS_PER_YEAR,
    PROBABILITY_DECIMALS,
    AhpProbabilityPolicy,
    BathtubCurve,
    DefaultProbabilityPolicy,
    NormalProbabilityModel,
    PaperProbabilityPolicy,
    annual_downtime_hours,
    sample_each,
)
from repro.util.errors import ConfigurationError


class TestDowntimeConversion:
    def test_annual_downtime_matches_paper_examples(self):
        # §4.2.2: 99.62 % ~ 33.3 h/yr, 99.97 % ~ 2.6 h/yr.
        assert annual_downtime_hours(0.9962) == pytest.approx(33.3, abs=0.3)
        assert annual_downtime_hours(0.9997) == pytest.approx(2.6, abs=0.1)

    def test_annual_downtime_bounds(self):
        assert annual_downtime_hours(1.0) == 0.0
        assert annual_downtime_hours(0.0) == HOURS_PER_YEAR

    def test_annual_downtime_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            annual_downtime_hours(1.1)


class TestNormalProbabilityModel:
    def test_draws_are_rounded(self, rng):
        model = NormalProbabilityModel(mean=0.01, stddev=0.001)
        draws = model.sample(rng, size=500)
        assert np.allclose(draws, np.round(draws, PROBABILITY_DECIMALS))

    def test_draws_clipped_to_range(self, rng):
        model = NormalProbabilityModel(mean=0.01, stddev=0.05, minimum=0.005, maximum=0.02)
        draws = model.sample(rng, size=2_000)
        assert draws.min() >= 0.005
        assert draws.max() <= 0.02

    def test_draws_never_zero(self, rng):
        # Dagger cycle lengths must stay finite.
        model = NormalProbabilityModel(mean=0.0001, stddev=0.001, minimum=1e-4)
        draws = model.sample(rng, size=2_000)
        assert draws.min() > 0.0

    def test_scalar_draw(self, rng):
        model = NormalProbabilityModel(mean=0.01, stddev=0.001)
        value = model.sample(rng)
        assert isinstance(value, float)
        assert 0 < value < 1

    def test_mean_is_respected(self, rng):
        model = NormalProbabilityModel(mean=0.01, stddev=0.001)
        draws = model.sample(rng, size=20_000)
        assert draws.mean() == pytest.approx(0.01, abs=5e-4)

    def test_rejects_negative_stddev(self):
        with pytest.raises(ConfigurationError):
            NormalProbabilityModel(mean=0.01, stddev=-0.1)

    def test_rejects_bad_clip_range(self):
        with pytest.raises(ConfigurationError):
            NormalProbabilityModel(mean=0.01, stddev=0.001, minimum=0.5, maximum=0.1)


class TestPaperProbabilityPolicy:
    def test_switches_use_switch_model(self, rng):
        policy = PaperProbabilityPolicy()
        draws = policy.probabilities([ComponentType.CORE_SWITCH] * 500, rng)
        assert np.mean(draws) == pytest.approx(0.008, abs=1e-3)

    def test_hosts_use_default_model(self, rng):
        policy = PaperProbabilityPolicy()
        draws = policy.probabilities([ComponentType.HOST] * 500, rng)
        assert np.mean(draws) == pytest.approx(0.01, abs=1e-3)

    def test_links_default_to_perfectly_reliable(self, rng):
        policy = PaperProbabilityPolicy()
        assert policy.probabilities([ComponentType.LINK], rng).tolist() == [0.0]

    def test_link_probability_override(self, rng):
        policy = PaperProbabilityPolicy(link_probability=0.05)
        assert policy.probabilities([ComponentType.LINK], rng).tolist() == [0.05]


_MODELS = [
    NormalProbabilityModel(mean=0.008, stddev=0.001),
    NormalProbabilityModel(mean=0.01, stddev=0.001),
    NormalProbabilityModel(mean=0.3, stddev=0.2, minimum=0.2),
    NormalProbabilityModel(mean=0.01, stddev=0.02, maximum=0.02),
    NormalProbabilityModel(mean=0.05, stddev=0.0),
]


class TestOneDrawPerBuild:
    """A build's probabilities come from one ``rng.normal`` call over
    arrays; it must be the per-component loop it replaced, bit for bit,
    leaving the generator in the same state."""

    @given(
        picks=st.lists(st.integers(0, len(_MODELS) - 1), max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_each_is_the_per_model_loop(self, picks, seed):
        models = [_MODELS[i] for i in picks]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_each(models, rng)
        want = [model.sample(ref_rng) for model in models]
        assert got.tolist() == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(
        types=st.lists(st.sampled_from(list(ComponentType)), max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_paper_policy_is_the_per_component_draw(self, types, seed):
        policy = PaperProbabilityPolicy(
            switch_model=_MODELS[3], default_model=_MODELS[2], link_probability=0.001
        )
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [
            policy.link_probability
            if ctype is ComponentType.LINK
            else (policy.switch_model if ctype.is_switch else policy.default_model)
            .sample(ref_rng)
            for ctype in types
        ]
        assert policy.probabilities(types, rng).tolist() == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestDefaultProbabilityPolicy:
    def test_same_value_for_all_non_links(self, rng):
        policy = DefaultProbabilityPolicy(default_probability=0.02)
        for ctype in (ComponentType.HOST, ComponentType.CORE_SWITCH, ComponentType.POWER_SUPPLY):
            assert policy.probabilities([ctype], rng).tolist() == [0.02]

    def test_rejects_out_of_range_default(self):
        with pytest.raises(ConfigurationError):
            DefaultProbabilityPolicy(default_probability=0.0)
        with pytest.raises(ConfigurationError):
            DefaultProbabilityPolicy(default_probability=1.0)


class TestAhpProbabilityPolicy:
    def test_from_pairwise_matrix_weights(self, rng):
        types = [ComponentType.HOST, ComponentType.CORE_SWITCH]
        # Hosts judged 3x more failure-prone than switches.
        policy = AhpProbabilityPolicy.from_pairwise_matrix(
            types, [[1, 3], [1 / 3, 1]], base_probability=0.01
        )
        host_p, switch_p = policy.probabilities(
            [ComponentType.HOST, ComponentType.CORE_SWITCH], rng
        )
        assert host_p == pytest.approx(3 * switch_p, rel=1e-6)

    def test_mean_weight_maps_to_base(self, rng):
        types = [ComponentType.HOST, ComponentType.CORE_SWITCH]
        policy = AhpProbabilityPolicy.from_pairwise_matrix(
            types, [[1, 1], [1, 1]], base_probability=0.01
        )
        assert policy.probabilities([ComponentType.HOST], rng)[0] == pytest.approx(0.01)

    def test_unknown_type_uses_base(self, rng):
        policy = AhpProbabilityPolicy(
            type_weights={ComponentType.HOST: 1.0}, base_probability=0.03
        )
        assert policy.probabilities([ComponentType.COOLING], rng).tolist() == [0.03]

    def test_rejects_empty_weights(self):
        with pytest.raises(ConfigurationError):
            AhpProbabilityPolicy(type_weights={})

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ConfigurationError):
            AhpProbabilityPolicy(type_weights={ComponentType.HOST: 0.0})

    def test_rejects_mismatched_matrix(self):
        with pytest.raises(ConfigurationError):
            AhpProbabilityPolicy.from_pairwise_matrix(
                [ComponentType.HOST], [[1, 2], [0.5, 1]]
            )

    def test_rejects_non_positive_comparisons(self):
        with pytest.raises(ConfigurationError):
            AhpProbabilityPolicy.from_pairwise_matrix(
                [ComponentType.HOST, ComponentType.LINK], [[1, -2], [-0.5, 1]]
            )


class TestBathtubCurve:
    def test_infant_mortality_elevated(self):
        curve = BathtubCurve(plateau_probability=0.01)
        assert curve.probability_at(0.0) > curve.probability_at(0.5)

    def test_wearout_elevated(self):
        curve = BathtubCurve(plateau_probability=0.01)
        assert curve.probability_at(1.0) > curve.probability_at(0.5)

    def test_plateau_close_to_base(self):
        curve = BathtubCurve(plateau_probability=0.01)
        mid = curve.probability_at(0.5)
        assert 0.01 <= mid < 0.013

    def test_age_clamped(self):
        curve = BathtubCurve(plateau_probability=0.01)
        assert curve.probability_at(-5.0) == curve.probability_at(0.0)
        assert curve.probability_at(99.0) == curve.probability_at(curve.lifetime)

    def test_probability_never_reaches_one(self):
        curve = BathtubCurve(plateau_probability=0.5, wearout_factor=100.0)
        assert curve.probability_at(1.0) < 1.0

    def test_rejects_bad_plateau(self):
        with pytest.raises(ConfigurationError):
            BathtubCurve(plateau_probability=0.0)

    def test_rejects_bad_lifetime(self):
        with pytest.raises(ConfigurationError):
            BathtubCurve(plateau_probability=0.01, lifetime=-1.0)
