"""Checkpoint/resume tests for the search (repro.core.search + serialization).

The acceptance bar: a search interrupted mid-anneal and resumed from its
checkpoint must reach the same best plan and score as an equivalent
uninterrupted run with the same seed — not merely a good plan, the same
trajectory.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import serialization
from repro.app.structure import ApplicationStructure
from repro.core.assessment import ReliabilityAssessor
from repro.core.search import DeploymentSearch, SearchSpec, SearchState
from repro.util.cancel import CancellationToken
from repro.util.errors import ConfigurationError
from repro.core.api import AssessmentConfig


class FakeClock:
    """Monotonic clock advancing ``step`` seconds per reading."""

    def __init__(self, step=0.01):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


STRUCTURE = ApplicationStructure.k_of_n(2, 3)


def _make_search(fattree4, inventory, ckpt=None, **kwargs):
    assessor = ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=800, rng=5))
    kwargs.setdefault("rng", 42)
    kwargs.setdefault("clock", FakeClock())
    kwargs.setdefault("keep_trace", True)
    kwargs.setdefault("checkpoint_every", 4)
    return DeploymentSearch(assessor, checkpoint_path=ckpt, **kwargs)


def _trace_key(records):
    return [
        (r.iteration, r.candidate_score, r.accepted, round(r.temperature, 9))
        for r in records
    ]


class TestResumeEquivalence:
    def test_resume_matches_uninterrupted_run(self, fattree4, inventory, tmp_path):
        """Interrupt at 12 of 30 iterations, resume, and compare against
        the same search run straight through: identical best plan, score,
        and full acceptance trace (temperatures included)."""
        spec_full = SearchSpec(STRUCTURE, max_seconds=50.0, max_iterations=30)
        full = _make_search(
            fattree4, inventory, str(tmp_path / "full.json")
        ).search(spec_full)

        ckpt = str(tmp_path / "part.json")
        _make_search(fattree4, inventory, ckpt).search(
            SearchSpec(STRUCTURE, max_seconds=50.0, max_iterations=12)
        )
        resumed = _make_search(fattree4, inventory, ckpt).resume(
            ckpt, max_iterations=30
        )

        assert resumed.best_plan == full.best_plan
        assert resumed.best_score == full.best_score
        assert resumed.iterations == full.iterations == 30
        assert resumed.plans_assessed == full.plans_assessed
        assert _trace_key(resumed.trace) == _trace_key(full.trace)

    def test_checkpointing_does_not_perturb_search(
        self, fattree4, inventory, tmp_path
    ):
        """Checkpoint writes read no clock and draw no randomness: a
        checkpointing run is bit-identical to a plain one."""
        spec = SearchSpec(STRUCTURE, max_seconds=50.0, max_iterations=20)
        plain = _make_search(fattree4, inventory).search(spec)
        checkpointed = _make_search(
            fattree4, inventory, str(tmp_path / "ck.json")
        ).search(spec)
        assert plain.best_plan == checkpointed.best_plan
        assert plain.best_score == checkpointed.best_score
        assert _trace_key(plain.trace) == _trace_key(checkpointed.trace)

    def test_budget_expiry_then_extended_resume(
        self, fattree4, inventory, tmp_path
    ):
        """A search that ran out of budget resumes with an extended one
        and keeps annealing — elapsed time carries over."""
        ckpt = str(tmp_path / "ck.json")
        first = _make_search(fattree4, inventory, ckpt).search(
            SearchSpec(STRUCTURE, max_seconds=1.0)
        )
        assert first.elapsed_seconds >= 1.0
        resumed = _make_search(fattree4, inventory, ckpt).resume(
            ckpt, max_seconds=2.0
        )
        assert resumed.iterations > first.iterations
        assert resumed.elapsed_seconds >= 2.0
        # The walk's best-so-far (its CRN score) carries over and never
        # drops; the reported scores are two independent draws.
        assert resumed.trace[-1].best_score >= first.trace[-1].best_score

    def test_should_stop_preempts_and_checkpoints(
        self, fattree4, inventory, tmp_path
    ):
        """A cancelled token (what the CLI's SIGTERM handler fires) halts
        the loop and forces a final checkpoint even off the periodic
        cadence."""
        ckpt = str(tmp_path / "ck.json")
        # The loop polls the token once per iteration and each poll reads
        # the clock once, so the ninth poll finds the deadline passed.
        token = CancellationToken(deadline_seconds=8.5, clock=FakeClock(step=1.0))

        result = _make_search(
            fattree4, inventory, ckpt, checkpoint_every=5, cancel=token
        ).search(SearchSpec(STRUCTURE, max_seconds=50.0, max_iterations=100))
        assert result.iterations == 8
        assert os.path.exists(ckpt)
        state = serialization.decode(SearchState, serialization.load(ckpt))
        assert state.iterations == 8

        resumed = _make_search(fattree4, inventory, ckpt).resume(
            ckpt, max_iterations=20
        )
        assert resumed.iterations == 20


class TestPreemptionEndToEnd:
    """``repro search --checkpoint`` as a real process: SIGTERM ends it
    with a final checkpoint and exit code 4, and ``--resume`` continues."""

    def _start(self, *argv):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        command = [sys.executable, "-m", "repro", "search", "--scale", "tiny",
                   "--rounds", "500", "--json", *argv]
        return subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )

    def _finish(self, process, timeout=120.0):
        try:
            return process.communicate(timeout=timeout)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    def test_sigterm_exits_preempted_and_resume_continues(self, tmp_path):
        ckpt = str(tmp_path / "search.ckpt")
        process = self._start(
            "--k", "2", "--n", "3", "--seconds", "60",
            "--checkpoint", ckpt, "--checkpoint-every", "1",
        )
        deadline = time.monotonic() + 60.0
        while not os.path.exists(ckpt) and process.poll() is None:
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)
        process.send_signal(signal.SIGTERM)
        out, err = self._finish(process)
        assert process.returncode == 4, err
        stopped = json.loads(out)["iterations"]
        state = serialization.decode(SearchState, serialization.load(ckpt))
        assert state.iterations == stopped

        resumed = self._start("--resume", ckpt, "--move-budget", str(stopped + 5))
        out, err = self._finish(resumed)
        assert resumed.returncode == 0, err
        assert json.loads(out)["iterations"] == stopped + 5


class TestCheckpointSerialization:
    def _checkpoint(self, fattree4, inventory, tmp_path):
        ckpt = str(tmp_path / "ck.json")
        _make_search(fattree4, inventory, ckpt).search(
            SearchSpec(STRUCTURE, max_seconds=50.0, max_iterations=10)
        )
        return ckpt

    def test_round_trip(self, fattree4, inventory, tmp_path):
        ckpt = self._checkpoint(fattree4, inventory, tmp_path)
        document = serialization.load(ckpt)
        assert document["format"] == "search-checkpoint"
        state = serialization.decode(SearchState, document)
        assert isinstance(state, SearchState)
        assert state.iterations == 10
        assert state.search_rng_state is not None
        assert state.assessor_rng_state is not None
        again = serialization.encode(state)
        assert again["iterations"] == document["iterations"]
        assert again["search_rng_state"] == document["search_rng_state"]

    def test_checkpoint_is_plain_json(self, fattree4, inventory, tmp_path):
        ckpt = self._checkpoint(fattree4, inventory, tmp_path)
        with open(ckpt) as handle:
            document = json.load(handle)  # no custom decoder needed
        assert document["spec"]["structure"]["components"]
        assert document["best_assessment"]["estimate"]["rounds"] > 0

    def test_rejects_wrong_format(self, tmp_path):
        with pytest.raises(ConfigurationError):
            serialization.decode(SearchState, {"format": "nonsense"})

    def test_resume_rejects_checkpoint_without_rng(
        self, fattree4, inventory, tmp_path
    ):
        ckpt = self._checkpoint(fattree4, inventory, tmp_path)
        document = serialization.load(ckpt)
        document["search_rng_state"] = None
        with pytest.raises(ConfigurationError):
            _make_search(fattree4, inventory).resume(document)

    def test_resume_rejects_checkpoint_without_crn_master_seed(
        self, fattree4, inventory, tmp_path
    ):
        """A null seed still decodes (the field stays nullable), but every
        search walks under common random numbers, so it cannot resume."""
        ckpt = self._checkpoint(fattree4, inventory, tmp_path)
        document = serialization.load(ckpt)
        document["crn_master_seed"] = None
        assert serialization.decode(SearchState, document).crn_master_seed is None
        with pytest.raises(ConfigurationError, match="crn_master_seed"):
            _make_search(fattree4, inventory).resume(document)

    def test_resume_accepts_path_dict_and_state(
        self, fattree4, inventory, tmp_path
    ):
        ckpt = self._checkpoint(fattree4, inventory, tmp_path)
        document = serialization.load(ckpt)
        state = serialization.decode(SearchState, document)
        results = [
            _make_search(fattree4, inventory).resume(source, max_iterations=12)
            for source in (ckpt, document, state)
        ]
        assert len({r.best_score for r in results}) == 1
        assert len({str(r.best_plan) for r in results}) == 1

    def test_checkpoint_every_validated(self, fattree4, inventory):
        with pytest.raises(ConfigurationError):
            _make_search(fattree4, inventory, "x.json", checkpoint_every=0)
