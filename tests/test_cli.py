import csv
import json

import numpy as np
import pytest

from gridfdi.cli import main
from gridfdi.harness import (
    AttackParams,
    NetworkCache,
    ScenarioConfig,
    run_timeline,
)


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_ptdf_command(case3_path, tmp_path):
    out = tmp_path / "ptdf.json"
    main(["ptdf", "--case", str(case3_path), "--out", str(out)])
    data = _read(out)
    assert data["reference_bus"] == 1
    matrix = np.array(data["matrix"])
    assert matrix.shape == (3, 3)
    assert matrix[0, 1] == pytest.approx(-2.0 / 3.0)
    assert data["branch_ordinals"] == [1, 2, 3]


def test_ptdf_outage_flag(case118_path, tmp_path):
    out = tmp_path / "ptdf.json"
    main(["ptdf", "--case", str(case118_path), "--outage", "1,71", "--out", str(out)])
    data = _read(out)
    assert len(data["branch_ordinals"]) == 184
    assert 1 not in data["branch_ordinals"]
    assert 71 not in data["branch_ordinals"]


def test_sced_command(case3_path, tmp_path):
    out = tmp_path / "sced.json"
    main(["sced", "--case", str(case3_path), "--out", str(out)])
    data = _read(out)
    assert data["gen_output_mw"][0] == pytest.approx(80.0)
    assert data["total_cost"] == pytest.approx(2000.0)


def test_sced_loads_file(case3_path, tmp_path):
    loads = tmp_path / "loads.json"
    loads.write_text(json.dumps({"2": 40.0, "3": 20.0}))
    out = tmp_path / "sced.json"
    main(["sced", "--case", str(case3_path), "--loads", str(loads),
          "--out", str(out)])
    data = _read(out)
    assert data["gen_output_mw"][0] == pytest.approx(60.0)


def test_attack_command(case118_path, tmp_path):
    out = tmp_path / "attack.json"
    main(["attack", "--case", str(case118_path), "--target", "118",
          "--ls", "0.1", "--n1", "5", "--out", str(out)])
    data = _read(out)
    assert data["objective_pu"] > 0
    assert len(data["delta_d_mw"]) == 118
    assert len(data["cyber_flows_pu"]) == 186
    # forged loads sum to the truth
    assert sum(data["delta_d_mw"]) == pytest.approx(0.0, abs=1e-6)


def test_detect_command_roundtrip(case118_path, tmp_path):
    config = ScenarioConfig(
        case_path=str(case118_path), mode="attack", seed=(5, 0),
        attack_params=AttackParams(118, 0.10, 5.0),
        group="t", index=0,
    )
    timeline = run_timeline(config, NetworkCache())
    snap_file = tmp_path / "snapshot.json"
    snap = timeline.snapshot
    with open(snap_file, "w") as fh:
        json.dump({
            "case": config.case_path, "outages": list(config.outages),
            "top_n": config.top_n, "prev_flows": snap.prev_flows,
            "prev_loads": snap.prev_loads, "measured_flows": snap.measured_flows,
            "measured_loads": snap.measured_loads, "sced_flows": snap.sced_flows,
        }, fh, default=lambda o: o.tolist())
    out = tmp_path / "report.json"
    main(["detect", "--snapshot", str(snap_file), "--out", str(out)])
    report = _read(out)
    assert report["under_attack"] is True
    assert report["stage1_alert"] in ("Warning", "Danger")
    suspects = [s["branch"] for s in report["stage2"]["suspects"]]
    assert 118 in suspects


def test_gen_scenarios_and_run_experiment(case118_path, tmp_path, monkeypatch):
    suite_file = tmp_path / "suite.json"
    main(["gen-scenarios", "--case", str(case118_path),
          "--out", str(suite_file)])
    suite = _read(suite_file)["scenarios"]
    assert len(suite) == 240

    # run a small slice end to end
    small = {"scenarios": suite[:2] + suite[80:81]}
    small_file = tmp_path / "small.json"
    small_file.write_text(json.dumps(small))
    out_dir = tmp_path / "results"
    # the summary reads the reference bus off the experiment's own network
    monkeypatch.delattr("gridfdi.cli.load_case")
    main(["run-experiment", "--suite", str(small_file), "--out", str(out_dir)])

    summary = _read(out_dir / "summary.json")
    assert summary["assumptions"]["reference_bus"] == 69
    with open(out_dir / "aggregate.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["group"] for r in rows} == {"N(0,0.03)", "attack-118-constant"}
    for row in rows:
        assert set(row) == {
            "group", "max", "min", "median", "average", "std",
            "detected", "identified", "danger_marked",
        }
    scenario_files = sorted(out_dir.glob("scenario_*.json"))
    assert len(scenario_files) == 3
    payload = _read(scenario_files[0])
    assert payload["report"]["stage1_alert"] in (
        "Normal", "Monitor", "Warning", "Danger"
    )
    # noiseless telemetry: no residual; the attack's own figures are kept
    payloads = [_read(f) for f in scenario_files]
    for payload in payloads:
        assert payload["error"] is None
        assert 0.0 <= payload["lnr_value"] <= 1e-9
    fluct, attack = payloads[0], payloads[2]
    assert (fluct["attack_objective_pu"], fluct["tampered_load_count"],
            fluct["residual_delta"]) == (None, None, None)
    assert attack["attack_objective_pu"] > 0
    assert attack["tampered_load_count"] > 0
    assert 0.0 <= attack["residual_delta"] < 1e-8


def test_gen_scenarios_outage_grid(case118_path, tmp_path):
    suite_file = tmp_path / "mini.json"
    main(["gen-scenarios", "--case", str(case118_path), "--outage", "71",
          "--out", str(suite_file)])
    suite = _read(suite_file)["scenarios"]
    assert len(suite) == 72
    assert all(s["outages"] == [71] for s in suite)
