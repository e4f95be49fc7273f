"""Campaigns, artifacts, replay (in-process and fresh-process), self-test."""

import json
import os
import subprocess
import sys

import pytest

from repro.dst import (
    build_artifact,
    load_artifact,
    replay_artifact,
    run_campaign,
    run_self_test,
)

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")

#: A failing-case artifact written before specs had joins and leaves.
PARENT_ARTIFACT = os.path.join(os.path.dirname(__file__), "artifacts",
                               "no-churn-keys.json")


def failing_campaign(tmp_path):
    return run_campaign(1, 3, max_n=16, max_rounds=12,
                        mutation="double-delivery", stop_after=1,
                        artifact_dir=str(tmp_path))


class TestCampaign:
    def test_clean_campaign_passes(self):
        result = run_campaign(2026, 3, max_n=16, max_rounds=12)
        assert result.ok
        assert result.checked == 3

    def test_campaign_is_deterministic(self):
        a = run_campaign(2026, 3, max_n=16, max_rounds=12)
        b = run_campaign(2026, 3, max_n=16, max_rounds=12)
        assert a.ok == b.ok and a.checked == b.checked

    def test_failing_campaign_reports_and_writes_artifacts(self, tmp_path):
        result = failing_campaign(tmp_path)
        assert not result.ok
        case = result.cases[0]
        assert case.signature.startswith("invariant:")
        assert case.artifact_path is not None
        assert os.path.exists(case.artifact_path)

    def test_no_shrink_keeps_original(self):
        result = run_campaign(1, 3, max_n=16, max_rounds=12,
                              mutation="double-delivery", shrink=False,
                              stop_after=1)
        case = result.cases[0]
        assert case.shrunk.spec == case.original


class TestByzantineCampaign:
    def test_fixed_seed_byzantine_campaign_passes(self):
        """Acceptance: 25 generated Byzantine scenarios (double-echo systems
        with liars drawn into every plan) all pass the oracle — which runs
        each spec on the serial *and* sharded engine and requires
        bit-identical counter records, so this certifies cross-engine
        identity under every one of those plans, and (via the invariant
        oracle) that double echo holds agreement on all of them."""
        result = run_campaign(2026, 25, max_n=16, max_rounds=16,
                              byzantine=True)
        assert result.ok, [c.signature for c in result.cases]
        assert result.checked == 25

    def test_byzantine_campaign_is_deterministic(self):
        a = run_campaign(7, 5, max_n=16, max_rounds=16, byzantine=True)
        b = run_campaign(7, 5, max_n=16, max_rounds=16, byzantine=True)
        assert a.ok == b.ok and a.checked == b.checked

    def test_planted_equivocation_caught_as_agreement_violation(self):
        """The planted equivocating sender must be rediscovered by the
        campaign with the agreement signature (plain-family scenarios, where
        nothing defends the protocol)."""
        result = run_campaign(1, 6, max_n=16, max_rounds=14,
                              mutation="equivocation", stop_after=1,
                              shrink=False)
        assert not result.ok, "planted equivocation went undetected"
        assert result.cases[0].signature == "invariant:agreement"


class TestCausalCampaign:
    def test_causal_campaign_passes_bit_identity(self):
        """Each ordering-family spec runs on the serial and sharded engine
        and must produce bit-identical counter records; the invariant
        oracle checks causality and the hold-back bound along the way.
        The full 25-scenario acceptance run lives in CI."""
        result = run_campaign(2026, 5, max_n=16, max_rounds=16, causal=True)
        assert result.ok, [c.signature for c in result.cases]
        assert result.checked == 5

    def test_causal_campaign_is_deterministic(self):
        a = run_campaign(7, 3, max_n=16, max_rounds=16, causal=True)
        b = run_campaign(7, 3, max_n=16, max_rounds=16, causal=True)
        assert a.ok == b.ok and a.checked == b.checked

    def test_causal_rejected_with_columnar_engine(self):
        with pytest.raises(ValueError, match="columnar"):
            run_campaign(0, 1, causal=True,
                         engines=("serial", "columnar"))

    def test_dropped_dependency_mutation_is_registered(self):
        from repro.dst.mutations import MUTATIONS
        mutation = MUTATIONS["dropped-dependency"]
        assert mutation.family == "causal"
        assert mutation.expected_kind == "invariant"

    def test_planted_dropped_dependency_caught_as_causality_violation(self):
        """The planted publisher that strips dependency metadata must be
        rediscovered by the causal campaign with the causality signature."""
        result = run_campaign(1, 6, max_n=16, max_rounds=14, causal=True,
                              mutation="dropped-dependency", stop_after=1,
                              shrink=False)
        assert not result.ok, "planted dropped dependency went undetected"
        assert result.cases[0].signature == "invariant:causality"


class TestArtifacts:
    def test_artifact_round_trips_through_disk(self, tmp_path):
        case = failing_campaign(tmp_path).cases[0]
        data = load_artifact(case.artifact_path)
        assert data == build_artifact(case)
        assert data["failure"]["signature"] == case.signature
        assert set(data["fingerprints"]) == {"serial", "sharded"}

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else/1"}))
        with pytest.raises(ValueError, match="format"):
            load_artifact(str(path))

    @pytest.mark.parametrize("edit,key", [
        (lambda data: data["spec"].pop("n"), "'n'|\\bn\\b"),
        (lambda data: data.pop("failure"), "failure"),
        (lambda data: data["failure"].pop("signature"), "signature"),
    ], ids=["spec-n", "failure", "failure-signature"])
    def test_missing_keys_named(self, tmp_path, edit, key):
        data = load_artifact(PARENT_ARTIFACT)
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=key):
            replay_artifact(load_artifact(str(path)))

    def test_non_object_artifact_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_artifact(str(path))

    def test_artifact_without_churn_keys_replays(self):
        """An artifact written before specs had joins and leaves replays
        bit-identically: same signature, same per-engine fingerprints."""
        data = load_artifact(PARENT_ARTIFACT)
        assert "joins" not in data["spec"]
        result = replay_artifact(data)
        assert result.ok, result.mismatches

    def test_replay_reproduces_bit_identically(self, tmp_path):
        case = failing_campaign(tmp_path).cases[0]
        result = replay_artifact(load_artifact(case.artifact_path))
        assert result.ok, result.mismatches

    def test_replay_flags_stale_fingerprints(self, tmp_path):
        case = failing_campaign(tmp_path).cases[0]
        data = load_artifact(case.artifact_path)
        data["fingerprints"]["serial"] = "0" * 64
        result = replay_artifact(data)
        assert not result.ok
        assert any("fingerprint" in line for line in result.mismatches)


class TestFreshProcessReplay:
    @pytest.mark.slow
    def test_cli_replay_in_a_new_interpreter(self, tmp_path):
        """The acceptance criterion: an artifact written here replays
        bit-identically in a process with no shared state."""
        case = failing_campaign(tmp_path).cases[0]
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz",
             "--replay", case.artifact_path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "bit-identically" in proc.stdout


class TestSelfTest:
    @pytest.mark.slow
    def test_self_test_catches_every_planted_bug(self, tmp_path):
        outcomes = run_self_test(0, artifact_dir=str(tmp_path))
        assert outcomes, "no mutations registered"
        for outcome in outcomes:
            assert outcome.ok, f"{outcome.mutation}: {outcome.detail}"
        kinds = {o.expected_kind for o in outcomes}
        assert kinds == {"invariant", "parity"}
