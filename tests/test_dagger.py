"""Unit + property tests for dagger sampling (repro.sampling.dagger)."""

import hashlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.packed import packed_width
from repro.sampling import dagger
from repro.sampling.dagger import (
    CHUNK_DRAWS,
    CommonRandomDaggerSampler,
    DaggerSampler,
    ExtendedDaggerSampler,
    dagger_cycle_length,
    dagger_draw_count,
)
from repro.sampling.montecarlo import MonteCarloSampler
from tests.conftest import failed_rounds
from tests.legacy_crn import legacy_streams
from tests.percall_oracle import blake2b_uniforms, per_row_draw
from tests.interpreted_oracle import (
    component_stream,
    per_level_dagger_sample,
    reference_sample,
)


class TestCycleLength:
    def test_paper_example(self):
        # p = 0.3 -> s = 3 subintervals (Fig. 3).
        assert dagger_cycle_length(0.3) == 3

    def test_exact_reciprocal(self):
        assert dagger_cycle_length(0.25) == 4

    def test_small_probability(self):
        assert dagger_cycle_length(0.01) == 100

    def test_large_probability(self):
        assert dagger_cycle_length(0.9) == 1

    def test_rejects_zero_and_one(self):
        with pytest.raises(ValueError):
            dagger_cycle_length(0.0)
        with pytest.raises(ValueError):
            dagger_cycle_length(1.0)


class TestDrawCount:
    def test_single_component(self):
        # p = 0.01, s = 100, 1000 rounds -> 10 cycles -> 10 draws.
        assert dagger_draw_count({"c": 0.01}, 1_000) == 10

    def test_heterogeneous_extended(self):
        # Longest cycle: s=100 (p=0.01). Block = 100 rounds.
        # p=0.5 (s=2) needs ceil(100/2)=50 draws per block.
        assert dagger_draw_count({"a": 0.01, "b": 0.5}, 100) == 1 + 50

    def test_far_fewer_than_monte_carlo(self):
        probabilities = {f"c{i}": 0.01 for i in range(50)}
        rounds = 10_000
        dagger = dagger_draw_count(probabilities, rounds)
        monte_carlo = len(probabilities) * rounds
        assert dagger * 50 < monte_carlo

    def test_zero_probability_needs_no_draws(self):
        assert dagger_draw_count({"c": 0.0}, 1_000) == 0

    def test_zero_rounds(self):
        assert dagger_draw_count({"c": 0.1}, 0) == 0

    def test_one_round_takes_one_block(self):
        # One 10-round block: one cycle of p=0.1, five of p=0.5.
        assert dagger_draw_count({"a": 0.1, "b": 0.5}, 1) == 1 + 5


class TestFig3Examples:
    """The worked examples of the paper's Fig. 3, reproduced exactly."""

    def _states_for(self, r: float) -> list[bool]:
        """Failure states over one cycle for p=0.3 given the draw ``r``."""
        p, s = 0.3, 3
        offset = math.floor(r / p)
        return [offset == i for i in range(s)]

    def test_r_in_second_subinterval(self):
        # Fig. 3a: r=0.4 -> {'alive', 'failed', 'alive'}.
        assert self._states_for(0.4) == [False, True, False]

    def test_r_in_remainder(self):
        # Fig. 3b: r=0.95 -> all alive.
        assert self._states_for(0.95) == [False, False, False]

    def test_r_in_first_subinterval(self):
        assert self._states_for(0.0) == [True, False, False]

    def test_r_at_boundary(self):
        assert self._states_for(0.6) == [False, False, True]


@pytest.mark.parametrize("sampler_cls", [DaggerSampler, ExtendedDaggerSampler])
class TestDaggerSamplers:
    def test_at_most_one_failure_per_own_cycle(self, sampler_cls, rng):
        """Dagger fails a component in <= 1 round per (own) dagger cycle."""
        p = 0.2
        s = dagger_cycle_length(p)
        batch = sampler_cls().sample({"c": p}, 10_000, rng)
        failed = failed_rounds(batch)["c"]
        cycles = failed // s
        assert len(np.unique(cycles)) == len(cycles)

    def test_failed_rounds_sorted_unique(self, sampler_cls, rng):
        batch = sampler_cls().sample({"c": 0.3}, 5_000, rng)
        failed = failed_rounds(batch)["c"]
        assert np.all(np.diff(failed) > 0)

    def test_failed_rounds_in_range(self, sampler_cls, rng):
        batch = sampler_cls().sample({"c": 0.3}, 777, rng)
        failed = failed_rounds(batch)["c"]
        assert failed.min() >= 0
        assert failed.max() < 777

    def test_marginal_rate_matches_p(self, sampler_cls, rng):
        """Unbiasedness: expected fraction of failed rounds is p (§3.2.2)."""
        p, rounds = 0.01, 200_000
        batch = sampler_cls().sample({"c": p}, rounds, rng)
        rate = len(failed_rounds(batch)["c"]) / rounds
        sigma = math.sqrt(p * (1 - p) / rounds)
        assert abs(rate - p) < 5 * sigma

    def test_zero_probability_component_never_fails(self, sampler_cls, rng):
        batch = sampler_cls().sample({"c": 0.0, "d": 0.5}, 1_000, rng)
        assert batch.component_ids == ("d",)  # no draw, no row
        assert "c" not in failed_rounds(batch)

    def test_empty_probabilities(self, sampler_cls, rng):
        batch = sampler_cls().sample({}, 100, rng)
        assert batch.matrix.shape == (0, packed_width(100))
        assert failed_rounds(batch) == {}

    def test_many_components(self, sampler_cls, rng):
        probabilities = {f"c{i}": 0.05 for i in range(40)}
        batch = sampler_cls().sample(probabilities, 2_000, rng)
        failed = failed_rounds(batch)
        rates = [len(failed.get(f"c{i}", ())) / 2_000 for i in range(40)]
        assert np.mean(rates) == pytest.approx(0.05, abs=0.01)

    @given(p=st.floats(min_value=0.001, max_value=0.9), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_property_marginal_rate(self, sampler_cls, p, seed):
        rounds = 30_000
        rng = np.random.default_rng(seed)
        batch = sampler_cls().sample({"c": p}, rounds, rng)
        rate = len(failed_rounds(batch).get("c", ())) / rounds
        sigma = math.sqrt(p * (1 - p) / rounds)
        # Dagger variance is *at most* the Bernoulli variance.
        assert abs(rate - p) < 6 * sigma + 1e-9


class TestExtendedDaggerSpecifics:
    def test_heterogeneous_components_all_sampled(self, rng):
        probabilities = {"fast": 0.3, "slow": 0.001, "mid": 0.05}
        batch = ExtendedDaggerSampler().sample(probabilities, 50_000, rng)
        failed = failed_rounds(batch)
        for cid, p in probabilities.items():
            rate = len(failed[cid]) / 50_000
            sigma = math.sqrt(p * (1 - p) / 50_000)
            assert abs(rate - p) < 6 * sigma

    def test_truncation_keeps_marginal_rate(self, rng):
        """Cycle reset at the longest cycle must not bias shorter cycles.

        With p1=0.4 (s=2) and p2=0.001 (s=1000), p1's cycles are truncated
        at every 1000-round boundary; its rate must remain 0.4.
        """
        rounds = 100_000
        batch = ExtendedDaggerSampler().sample({"a": 0.4, "b": 0.001}, rounds, rng)
        assert len(failed_rounds(batch)["a"]) / rounds == pytest.approx(0.4, abs=0.01)


@pytest.mark.parametrize("sampler_cls", [DaggerSampler, ExtendedDaggerSampler])
class TestOnePassDraw:
    """The one ragged pass over every draw against the per-level loop it
    replaced, over chunks of every size down to one row."""

    @given(
        levels=st.lists(
            st.sampled_from([0.0, 1e-4, 0.3, 0.999, 0.0123]), min_size=1, max_size=12
        ),
        rounds=st.sampled_from([1, 7, 513, 10_000]),
        chunk=st.sampled_from([1, 50, CHUNK_DRAWS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_level_loop(self, sampler_cls, levels, rounds, chunk, seed):
        probabilities = {f"c{i}": p for i, p in enumerate(levels)}
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(dagger, "CHUNK_DRAWS", chunk):
            got = sampler_cls().sample(probabilities, rounds, rng)
        want = per_level_dagger_sample(sampler_cls(), probabilities, rounds, ref_rng)
        assert got.component_ids == want.component_ids
        assert np.array_equal(got.matrix, want.matrix)
        if want.nonzero is None:
            assert got.nonzero is None
        else:
            assert np.array_equal(got.nonzero, want.nonzero)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_scratch_stays_within_17_bytes_a_draw(self, sampler_cls):
        """Whole-data-center draws (Fig. 7) hold a float, a hit flag and a
        bit position per draw; the per-draw geometry is one chunk's."""
        spread = np.round(np.linspace(1e-3, 2e-2, 1_000), 4)
        probabilities = {f"c{i}": float(p) for i, p in enumerate(spread)}
        rounds = 100_000
        tracemalloc.start()
        try:
            batch = sampler_cls().sample(probabilities, rounds, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        draws = sum(
            dagger._cycle_geometry(p, rounds, sampler_cls._block_length(p, 1_000))[1]
            for p in probabilities.values()
        )
        assert peak <= batch.matrix.nbytes + 17 * draws + 40 * CHUNK_DRAWS


class TestOnePassDrawPerRowBody:
    """``_draw`` against its body before the lean delta draw
    (``tests/percall_oracle.py``: a geometry lookup and a list entry per
    row, and CRN's keyed BLAKE2b built per id): ids, rows, ``nonzero`` and
    the rng state of every dagger sampler, over chunks down to one row."""

    @given(
        levels=st.lists(
            st.sampled_from([0.0, 1e-4, 0.3, 0.999, 0.0123, 0.0101]),
            min_size=1,
            max_size=12,
        ),
        rounds=st.sampled_from([1, 7, 513, 10_000]),
        chunk=st.sampled_from([1, 50, CHUNK_DRAWS]),
        seed=st.integers(0, 2**32 - 1),
        master_seed=st.one_of(st.integers(0, 2**64), st.sampled_from([2**512, 2**600])),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_row_body(self, levels, rounds, chunk, seed, master_seed):
        probabilities = {f"c{i}": p for i, p in enumerate(levels)}
        samplers = (
            DaggerSampler(),
            ExtendedDaggerSampler(),
            CommonRandomDaggerSampler(master_seed),
        )
        for sampler in samplers:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            with mock.patch.object(dagger, "CHUNK_DRAWS", chunk):
                got = sampler.sample(probabilities, rounds, rng)
                with mock.patch.object(DaggerSampler, "_draw", per_row_draw):
                    want = sampler.sample(probabilities, rounds, ref_rng)
            assert got.component_ids == want.component_ids, sampler.name
            assert np.array_equal(got.matrix, want.matrix), sampler.name
            assert np.array_equal(got.nonzero, want.nonzero), sampler.name
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(
        draws=st.lists(st.integers(1, 300), min_size=1, max_size=20),
        master_seed=st.one_of(st.integers(0, 2**64), st.sampled_from([2**512, 2**600])),
    )
    @settings(max_examples=60, deadline=None)
    def test_crn_uniforms_equal_the_per_id_hashing(self, draws, master_seed):
        sampler = CommonRandomDaggerSampler(master_seed)
        ids = [f"host/{i}/0/{i % 3}" for i in range(len(draws))]
        ends = np.cumsum(draws)
        got = sampler._uniforms(None, ids, ends)
        assert got.dtype == np.float64
        assert np.array_equal(got, blake2b_uniforms(sampler, None, ids, ends))


class TestVarianceReduction:
    def test_dagger_variance_not_worse_than_monte_carlo(self):
        """Dagger's per-window failure-count variance is below Bernoulli's.

        This is the variance-reduction effect the paper leans on (§3.2.2):
        within a cycle the states are negatively correlated.
        """
        p, rounds, trials = 0.1, 1_000, 200
        s = dagger_cycle_length(p)

        def window_counts(sampler, seed):
            batch = sampler.sample({"c": p}, rounds, np.random.default_rng(seed))
            return len(failed_rounds(batch).get("c", ()))

        dagger_counts = [window_counts(ExtendedDaggerSampler(), i) for i in range(trials)]
        mc_counts = [window_counts(MonteCarloSampler(), i) for i in range(trials)]
        # Dagger: variance only from the remainder section; MC: full binomial.
        assert np.var(dagger_counts) < np.var(mc_counts)


def _pinned_rows_digest() -> str:
    """sha256 of the failed-round indices of four components under master
    seed 2024 at 5 000 rounds; the same through :meth:`component_rows` and
    through ``sample`` (where a ``p = 0`` component takes no draw)."""
    sampler = CommonRandomDaggerSampler(master_seed=2024)
    cases = {"host/0/0/0": 0.01, "link/a--b": 0.003, "psu/1": 0.2, "core/0": 0.5}
    rows = sampler.component_rows(list(cases), np.array(list(cases.values())), 5_000)
    batch = sampler.sample({"link/c--d": 0.0, **cases}, 5_000, np.random.default_rng())
    assert batch.component_ids == tuple(cases)
    digests = set()
    for failed in (
        {cid: np.flatnonzero(np.unpackbits(row, count=5_000)) for cid, row in rows.items()},
        failed_rounds(batch),
    ):
        digest = hashlib.sha256()
        for cid in cases:
            digest.update(failed[cid].astype(np.int64).tobytes())
        digests.add(digest.hexdigest())
    (digest,) = digests
    return digest


class TestCommonRandomDagger:
    def test_same_master_seed_same_states(self, rng):
        s1 = CommonRandomDaggerSampler(master_seed=99)
        s2 = CommonRandomDaggerSampler(master_seed=99)
        b1 = s1.sample({"a": 0.1, "b": 0.05}, 5_000, rng)
        b2 = s2.sample({"a": 0.1, "b": 0.05}, 5_000, np.random.default_rng(7))
        f1, f2 = failed_rounds(b1), failed_rounds(b2)
        assert f1.keys() == f2.keys() == {"a", "b"}
        for cid in ("a", "b"):
            assert np.array_equal(f1[cid], f2[cid])

    def test_shared_components_coupled_across_closures(self, rng):
        """A component's states must not depend on the rest of the set."""
        sampler = CommonRandomDaggerSampler(master_seed=5)
        small = sampler.sample({"shared": 0.1}, 2_000, rng)
        large = sampler.sample(
            {"shared": 0.1, "extra1": 0.2, "extra2": 0.01}, 2_000, rng
        )
        assert np.array_equal(
            failed_rounds(small)["shared"], failed_rounds(large)["shared"]
        )

    def test_reseed_changes_states(self, rng):
        sampler = CommonRandomDaggerSampler(master_seed=1)
        before = sampler.sample({"a": 0.2}, 5_000, rng)
        sampler.reseed(2)
        after = sampler.sample({"a": 0.2}, 5_000, rng)
        assert not np.array_equal(failed_rounds(before)["a"], failed_rounds(after)["a"])

    def test_marginal_rate_unbiased_over_seeds(self):
        p, rounds = 0.05, 2_000
        rates = []
        for seed in range(200):
            sampler = CommonRandomDaggerSampler(master_seed=seed)
            batch = sampler.sample({"c": p}, rounds, np.random.default_rng(0))
            rates.append(len(failed_rounds(batch).get("c", ())) / rounds)
        assert np.mean(rates) == pytest.approx(p, abs=0.005)

    def test_distinct_components_distinct_streams(self, rng):
        sampler = CommonRandomDaggerSampler(master_seed=3)
        batch = sampler.sample({"a": 0.3, "b": 0.3}, 10_000, rng)
        failed = failed_rounds(batch)
        assert not np.array_equal(failed["a"], failed["b"])

    def test_component_streams_are_pinned(self):
        """A component's private stream is a pure function of ``(master
        seed, id, probability, rounds)``: the rows are byte for byte what
        the counter-based streams gave when they replaced the generator
        per component (digest of the failed-round indices), through
        :meth:`component_rows` and through ``sample`` alike; a component
        that never fails takes no draw and gets no row."""
        assert _pinned_rows_digest() == (
            "9eeada6f29b3287ed07cb207f058a5bfffb6fd9ce9538e86345546012b149adf"
        )

    def test_legacy_source_keeps_the_old_pin(self):
        """The generator-per-component source kept under ``tests/`` draws
        exactly the rows the sampler drew before the counter-based
        streams (the digest pinned then)."""
        with legacy_streams():
            assert _pinned_rows_digest() == (
                "9fc02f58da92dcf22b8114a94173d8860746d2b7dcf85943668c287e4ddf6e64"
            )

    @given(
        probabilities=st.lists(
            st.one_of(
                st.floats(min_value=1e-4, max_value=0.999),
                st.sampled_from([0.5, 1 / 3, 0.25, 0.75, 0.01]),
            ),
            min_size=1,
            max_size=12,
        ),
        rounds=st.sampled_from([7, 13, 500, 10_000]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_draw_equals_the_per_component_draw(
        self, probabilities, rounds, seed
    ):
        """``component_rows`` against the oracle's per-component reference
        draw, row for row; a component that never failed has no entry."""
        sampler = CommonRandomDaggerSampler(master_seed=seed)
        ids = [f"component/{i}" for i in range(len(probabilities))]
        rows = sampler.component_rows(ids, np.array(probabilities), rounds)
        assert list(rows) == [cid for cid in ids if cid in rows]
        for cid, probability in zip(ids, probabilities):
            expected = reference_sample(sampler, {cid: probability}, rounds, None)
            if not expected:
                assert cid not in rows
            else:
                dense = np.zeros(rounds, dtype=bool)
                dense[expected[cid]] = True
                assert rows[cid].dtype == np.uint8
                assert np.array_equal(rows[cid], np.packbits(dense))

    def test_batch_draw_takes_probabilities_strictly_inside_the_unit_interval(self):
        sampler = CommonRandomDaggerSampler(master_seed=1)
        for probability in (0.0, 1.0):
            with pytest.raises(ValueError):
                sampler.component_rows(["a", "b"], np.array([0.1, probability]), 50)

    def test_stream_known_answer(self):
        """The first three uniforms of ``host/0/0/0`` under master seed 2024,
        worked from the definition: the BLAKE2b key is ``2024`` as the two
        little-endian bytes ``e8 07``, the id's 64-bit key (little-endian
        digest) is ``0x7831cef8b0126012``, and SplitMix64's finaliser of
        ``key + (j + 1) * 0x9E3779B97F4A7C15`` gives ``0xd970a641f0342dda``,
        ``0xd72f39b14822ba09`` and ``0x0e78f71d49765a5d``, whose top 53 bits
        over ``2**53`` are the floats below. Drawn with every warning an
        error: the uint64 arithmetic wraps silently, as defined."""
        digest = hashlib.blake2b(b"host/0/0/0", digest_size=8, key=b"\xe8\x07")
        assert int.from_bytes(digest.digest(), "little") == 0x7831CEF8B0126012
        sampler = CommonRandomDaggerSampler(master_seed=2024)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            uniforms = sampler._uniforms(None, ["host/0/0/0"], np.array([3]))
        expected = [0.8493751440984886, 0.8405643518273206, 0.05653328385366174]
        assert uniforms.tolist() == expected
        mixed = (0xD970A641F0342DDA, 0xD72F39B14822BA09, 0x0E78F71D49765A5D)
        assert [(z >> 11) / 2**53 for z in mixed] == expected
        assert component_stream(2024, "host/0/0/0", 3).tolist() == expected

    @pytest.mark.parametrize(
        "master_seed", [0, 1, 255, 256, 2**63 - 1, 2**70, 2**511, 2**512, 2**600]
    )
    def test_any_non_negative_seed_keys_a_stream(self, master_seed):
        """Every row of one call equals the oracle's stream of its id, for
        seeds on both sides of each key-length boundary, including those
        past BLAKE2b's 64-byte key (hashed first)."""
        sampler = CommonRandomDaggerSampler(master_seed)
        ids = ["host/0/0/0", "link/a--b", "psu/1"]
        ends = np.array([5, 105, 106])
        expected = [component_stream(master_seed, cid, n) for cid, n in zip(ids, (5, 100, 1))]
        assert np.array_equal(sampler._uniforms(None, ids, ends), np.concatenate(expected))

    def test_draws_construct_no_numpy_generator(self):
        """The counter-based source builds no per-component object, and
        its wrapping uint64 arithmetic raises no warning."""
        sampler = CommonRandomDaggerSampler(master_seed=7)
        ids = [f"host/0/0/{i}" for i in range(64)]
        with mock.patch.object(
            np.random, "SeedSequence", side_effect=AssertionError("seeded")
        ), mock.patch.object(
            np.random, "default_rng", side_effect=AssertionError("constructed")
        ), warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = sampler.component_rows(ids, np.full(64, 0.01), 10_000)
        assert len(rows) == 64


def _ks_statistic(uniforms: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample to the uniform on [0, 1)."""
    u = np.sort(uniforms)
    n = len(u)
    i = np.arange(1, n + 1)
    return max(float((i / n - u).max()), float((u - (i - 1) / n).max()))


class TestCounterStreamStatistics:
    """The CRN source's uniforms look uniform and independent where the
    keys are closest: near-identical ids and adjacent master seeds. The
    streams are fixed by their seeds, so each bound is checked once, at a
    level (KS 1.95/sqrt(n): 0.1 % two-sided; |r| < 4/sqrt(n)) a sound
    source misses by chance about once in a thousand or far less."""

    KS_CRITICAL = 1.95  # Kolmogorov distribution, alpha = 0.001

    def test_ks_uniform_pooled_and_first_draws(self):
        sampler = CommonRandomDaggerSampler(master_seed=20170412)
        streams, per_stream = 1_000, 100
        ids = [f"host/{i // 100}/{i // 10 % 10}/{i % 10}" for i in range(streams)]
        ends = np.arange(1, streams + 1) * per_stream
        uniforms = sampler._uniforms(None, ids, ends)
        assert uniforms.size == 100_000
        assert uniforms.min() >= 0.0 and uniforms.max() < 1.0
        pooled = _ks_statistic(uniforms)
        assert pooled * math.sqrt(uniforms.size) < self.KS_CRITICAL
        first = uniforms[::per_stream]
        assert _ks_statistic(first) * math.sqrt(first.size) < self.KS_CRITICAL

    def test_near_identical_ids_are_uncorrelated(self):
        n = 100_000
        sampler = CommonRandomDaggerSampler(master_seed=3)
        both = sampler._uniforms(None, ["host/0/0/0", "host/0/0/1"], np.array([n, 2 * n]))
        assert abs(np.corrcoef(both[:n], both[n:])[0, 1]) < 4 / math.sqrt(n)

    def test_adjacent_master_seeds_are_uncorrelated(self):
        n = 100_000
        ends = np.array([n])
        seed0 = CommonRandomDaggerSampler(0)._uniforms(None, ["host/0/0/0"], ends)
        seed1 = CommonRandomDaggerSampler(1)._uniforms(None, ["host/0/0/0"], ends)
        assert abs(np.corrcoef(seed0, seed1)[0, 1]) < 4 / math.sqrt(n)
