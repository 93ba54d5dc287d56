"""Input pinning and the contract file: digests repeat, names line up."""

import json
import os

import pytest

from benchmarks.ledger import calibration, cli, layers, runner, workloads


def _input_digest(name, seed, workdir):
    workload = workloads.WORKLOADS[name](seed, True, str(workdir))
    try:
        workload.setup()
        return workload.input_digest
    finally:
        workload.close()


@pytest.mark.parametrize("name", cli.WORKLOAD_NAMES)
def test_input_digest_is_stable_across_generations(name, tmp_path):
    first = _input_digest(name, 11, tmp_path)
    assert first and first == _input_digest(name, 11, tmp_path)
    assert first != _input_digest(name, 12, tmp_path)


@pytest.mark.parametrize("name", cli.WORKLOAD_NAMES)
def test_golden_digests_exist_for_both_modes(name):
    for quick in (True, False):
        golden = cli.load_golden(name, quick, cli.DEFAULT_SEED)
        assert golden is not None
        assert golden["crosscheck"]["model_equal"] is True
        assert len(golden["input_digest"]) == len(golden["output_digest"]) == 32
    assert cli.load_golden(name, True, cli.DEFAULT_SEED + 1) is None


def test_quick_round_matches_its_golden_and_reports_every_metric(tmp_path):
    result = runner.spawn_round("churn", cli.DEFAULT_SEED, quick=True, traced=True)
    assert "error" not in result, result
    golden = cli.load_golden("churn", True, cli.DEFAULT_SEED)
    summary = runner.aggregate([result], golden)
    assert summary["golden"] == "match" and summary["failed"] == 0
    names = {name for name, _, _ in layers.PER_LAYER}
    assert set(summary["per_layer"]) <= names
    # The interaction predictions: churn pays no parsing and has no serve layer.
    assert "dataplane.parse_s" not in summary["per_layer"]
    assert not any(n.startswith("serve.") for n in summary["per_layer"])
    assert summary["per_layer"]["core.apply_s"] > 0


def test_a_changed_input_or_output_fails_every_operation():
    result = runner.spawn_round("storm", cli.DEFAULT_SEED, quick=True, traced=False)
    golden = dict(cli.load_golden("storm", True, cli.DEFAULT_SEED))
    assert runner.aggregate([result], golden)["failed"] == 0
    golden["input_digest"] = "0" * 32
    summary = runner.aggregate([result], golden)
    assert summary["golden"] == "MISMATCH"
    assert summary["failed"] == summary["attempted"] > 0


def test_a_round_past_its_deadline_is_killed_and_counted_failed():
    result = runner.spawn_round(
        "epochs", cli.DEFAULT_SEED, quick=False, traced=False, deadline_s=0.3
    )
    assert "deadline" in result["error"]
    summary = runner.aggregate([result])
    assert summary["failed"] == summary["attempted"] >= 1
    assert summary["failed_share"] == 1.0
    assert not os.path.exists(runner.WORK_ROOT) or not os.listdir(runner.WORK_ROOT)


def test_benchmark_json_matches_the_code():
    contract = cli.load_contract()
    assert [w["name"] for w in contract["workloads"]] == list(cli.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == [
        tuple(row) for row in layers.PER_LAYER
    ]
    end_to_end = {m["name"] for m in contract["end_to_end"]}
    fake = {"setup_s": 1.0, "wall_s": 2.0, "updates": 10, "peak_rss_mb": 3.0,
            "latencies_ms": [1.0, 2.0, 3.0],
            "setup_pass_s": calibration.REFERENCE_PASS_S,
            "region_pass_s": 2 * calibration.REFERENCE_PASS_S}
    scaled = runner.round_metrics(fake)
    assert set(scaled) == end_to_end
    # Half the reference speed: region times read half, set-up as measured.
    assert scaled["wall_s"] == pytest.approx(1.0)
    assert scaled["verdict_ms_p50"] == pytest.approx(1.0)
    assert scaled["updates_per_s"] == pytest.approx(10.0)
    assert scaled["setup_s"] == pytest.approx(1.0)
    assert scaled["peak_rss_mb"] == 3.0
    assert contract["paths"] == ["benchmarks/ledger"]
    assert all(not part.startswith("/") for part in contract["command"])
    json.dumps(contract)  # stays plain JSON
