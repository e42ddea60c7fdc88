import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridfdi
from gridfdi import harness
from gridfdi.cases import IslandError, load_case
from gridfdi.cli import _config_to_dict, _read_suite, main
from gridfdi.detect import (BORI_THRESHOLDS, COMBINED_ALERT, DEAD_BAND, INDEX_THRESHOLDS,
                            TOP_N)
from gridfdi.harness import (
    NETWORKS_KEPT,
    AttackParams,
    NetworkCache,
    ScenarioConfig,
    outage_robustness_suite,
    run_timeline,
    study_118_suite,
)
from gridfdi.powerflow import MIN_CRITICAL_SET
from gridfdi.sced import base_dispatch

from test_detect import _level


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


def test_ptdf_critical_sets_follow_the_mask(case118_path, net118, ptdf118, tmp_path):
    out = tmp_path / "ptdf.json"
    main(["ptdf", "--case", str(case118_path), "--out", str(out)])
    data = _read(out)
    mask = ptdf118.critical_mask
    bus_ids = [b.external_id for b in net118.buses]
    assert data["bus_ids"] == bus_ids
    want = {str(br.ordinal): [bus_ids[n] for n in np.flatnonzero(mask[k])]
            for k, br in enumerate(net118.in_service_branches)}
    assert data["critical_sets"] == want
    sizes = mask.sum(axis=1)
    assert data["critical_set_sizes"] == sizes.tolist()
    assert data["eligible"] == (sizes >= MIN_CRITICAL_SET).tolist()
    assert 0 < sum(data["eligible"]) < len(sizes)


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
            "prev_flows": snap.prev_flows,
            "prev_loads": snap.prev_loads, "measured_flows": snap.measured_flows,
            "measured_loads": snap.measured_loads, "sced_flows": snap.sced_flows,
        }, fh, default=lambda o: o.tolist())
    out = tmp_path / "report.json"
    main(["detect", "--snapshot", str(snap_file), "--out", str(out)])
    report = _read(out)
    assert report["under_attack"] is True
    assert report["stage1_alert"] in ("Warning", "Danger")
    suspects = [s["ordinal"] for s in report["stage2"]["suspects"]]
    assert 118 in suspects
    # every written alert is the name the scalar oracle gives its value
    s2 = report["stage2"]
    flow = [_level(v, BORI_THRESHOLDS) for v in s2["bori"]]
    load = [_level(v, INDEX_THRESHOLDS) for v in s2["emldi"]]
    assert s2["flow_alerts"] == [str(a) for a in flow]
    assert s2["load_alerts"] == [str(a) for a in load]
    combined = [COMBINED_ALERT[f][d] for f, d in zip(flow, load)]
    assert s2["combined_alerts"] == [str(a) for a in combined]
    assert "Danger" in s2["combined_alerts"]
    position = {ordinal: k for k, ordinal in enumerate(report["branch_ordinals"])}
    for suspect in s2["suspects"]:
        assert suspect["alert"] == str(combined[position[suspect["ordinal"]]])
        assert suspect["alert"] in ("Normal", "Monitor", "Warning", "Danger")


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


def test_run_experiment_loads_each_network_once(case118_path, tmp_path, monkeypatch):
    # 24 outage mini-suites, outage 71 first, one scenario each: more networks
    # than a NetworkCache keeps, so outage 71's is dropped before the summary
    outages = [71]
    for k in range(72, 186):
        if len(outages) < 24 and k not in (111, 118):
            try:
                load_case(case118_path, (k,))
            except IslandError:
                continue
            outages.append(k)
    assert len(outages) == 24 > NETWORKS_KEPT
    runs = {}
    for name, keys in (("alone", outages[:1]), ("joined", outages)):
        suite = [dataclasses.replace(outage_robustness_suite(case118_path, k)[0], index=j)
                 for j, k in enumerate(keys)]
        suite_file = tmp_path / f"{name}.json"
        suite_file.write_text(json.dumps({"scenarios": [_config_to_dict(c) for c in suite]}))
        loads = []
        monkeypatch.setattr(harness, "load_case",
                            lambda *key: loads.append(key) or load_case(*key))
        main(["run-experiment", "--suite", str(suite_file), "--out", str(tmp_path / name)])
        runs[name] = loads, _read(tmp_path / name / "summary.json")
    loads, summary = runs["joined"]
    assert loads == [(str(case118_path), (k,)) for k in outages]
    assert summary["assumptions"] == runs["alone"][1]["assumptions"]
    assert summary["assumptions"]["reference_bus"] == 69


def test_gen_scenarios_outage_grid(case118_path, tmp_path):
    suite_file = tmp_path / "mini.json"
    main(["gen-scenarios", "--case", str(case118_path), "--outage", "71",
          "--out", str(suite_file)])
    suite = _read(suite_file)["scenarios"]
    assert len(suite) == 72
    assert all(s["outages"] == [71] for s in suite)


@pytest.mark.parametrize("command", ["sced", "attack"])
@pytest.mark.parametrize("loads, message", [
    ({"2": 40.0, "999": 20.0}, "bus 999"),
    ({"two": 40.0}, "bus two"),
    ('{"2": NaN, "3": 20.0}', "bus 2 a non-finite load"),
    ("[0.0, 40.0, NaN]", "bus 3 a non-finite load"),
    # float() takes a bool or a numeric string; the file is refused instead
    ({"2": True, "3": "20"}, "bus 2: expected a number, got True"),
    ([0.0, "20", True], "bus 2: expected a number, got '20'"),
])
def test_loads_file_rejected(case3_path, tmp_path, command, loads, message):
    path = tmp_path / "loads.json"
    path.write_text(loads if isinstance(loads, str) else json.dumps(loads))
    args = [command, "--case", str(case3_path), "--loads", str(path),
            "--out", str(tmp_path / "out.json")]
    if command == "attack":
        args += ["--target", "1", "--ls", "0.1", "--n1", "1"]
    with pytest.raises(SystemExit, match=message):
        main(args)
    assert not (tmp_path / "out.json").exists()


def test_negative_loads_allowed(case3_path, tmp_path):
    loads = tmp_path / "loads.json"
    loads.write_text(json.dumps([0.0, 90.0, -10.0]))
    out = tmp_path / "sced.json"
    main(["sced", "--case", str(case3_path), "--loads", str(loads),
          "--out", str(out)])
    assert _read(out)["gen_output_mw"][0] == pytest.approx(80.0)


def _one_scenario_suite(case118_path, tmp_path, **settings):
    """A one-scenario suite whose scenario carries the detector ``settings``,
    as files of an older format did."""
    suite_file = tmp_path / "suite.json"
    main(["gen-scenarios", "--case", str(case118_path), "--out", str(suite_file)])
    scenario = _read(suite_file)["scenarios"][80]
    scenario.update(settings)
    suite_file.write_text(json.dumps({"scenarios": [scenario]}))
    return suite_file


def test_suite_with_fixed_detector_settings_refused(case118_path, tmp_path):
    # the settings the detector runs with are refused like any unknown key
    suite_file = _one_scenario_suite(case118_path, tmp_path, top_n=TOP_N,
                                     dead_band=DEAD_BAND)
    with pytest.raises(SystemExit, match=r"scenarios\[0\]: unknown key 'top_n'$"):
        main(["run-experiment", "--suite", str(suite_file),
              "--out", str(tmp_path / "results")])
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("key, value", [("top_n", 12), ("dead_band", 0.04)])
def test_suite_with_other_detector_settings_refused(case118_path, tmp_path,
                                                   key, value):
    suite_file = _one_scenario_suite(case118_path, tmp_path, **{key: value})
    with pytest.raises(SystemExit, match=rf"scenarios\[0\]: unknown key '{key}'$"):
        main(["run-experiment", "--suite", str(suite_file),
              "--out", str(tmp_path / "results")])
    assert not (tmp_path / "results").exists()


def _steady_snapshot(case_path, net, tmp_path, **extra):
    """A snapshot file of the base dispatch with nothing moving, plus the
    ``extra`` keys."""
    flows = base_dispatch(net).scheduled_flows.tolist()
    loads = net.load_mw.tolist()
    snap_file = tmp_path / "snapshot.json"
    snap_file.write_text(json.dumps({
        "case": str(case_path), **extra, "prev_flows": flows,
        "prev_loads": loads, "measured_flows": flows, "measured_loads": loads,
        "sced_flows": flows,
    }))
    return snap_file


@pytest.mark.parametrize("key, value, other", [
    ("top_n", 10, False), ("dead_band", 0.05, False),
    ("top_n", 8, True), ("dead_band", 0.1, True),
])
def test_snapshot_detector_settings(case118_path, net118, tmp_path, key, value,
                                    other):
    # refused as an unknown key, whether or not the detector runs with the value
    assert (value != {"top_n": TOP_N, "dead_band": DEAD_BAND}[key]) == other
    snap_file = _steady_snapshot(case118_path, net118, tmp_path, **{key: value})
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit, match=f"unknown key '{key}'$"):
        main(["detect", "--snapshot", str(snap_file), "--out", str(out)])
    assert not out.exists()


def test_detect_without_eligible_branch_fails_in_one_line(case3_path, net3, tmp_path):
    # every critical load set of the triangle is below MIN_CRITICAL_SET
    snap_file = _steady_snapshot(case3_path, net3, tmp_path)
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit, match=re.escape(
            f"{snap_file}: no branch has a large enough critical load set")):
        main(["detect", "--snapshot", str(snap_file), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "ptdf --case {case}", "sced --case {case}", "attack --case {case} --target 118"
    " --ls 0.1 --n1 5", "detect --snapshot {snapshot}"],
    ids=["ptdf", "sced", "attack", "detect"])
def test_numerically_singular_case_fails_in_one_line(case118_path, tmp_path, command):
    # branch 1 at 1e-14 p.u. leaves reduced B a pivot ratio of 2.7e-14
    text = Path(case118_path).read_text()
    row = "\t1\t2\t0.0303\t0.0999\t"
    assert row in text
    case = tmp_path / "singular.m"
    case.write_text(text.replace(row, "\t1\t2\t0.0303\t1e-14\t", 1))
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_text(json.dumps({"case": str(case), **{key: [1.0] for key in (
        "prev_flows", "prev_loads", "measured_flows", "measured_loads", "sced_flows")}}))
    out = tmp_path / "out.json"
    argv = command.format(case=case, snapshot=snapshot).split() + ["--out", str(out)]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    source = f"--snapshot {snapshot}: case {case}" if "detect" in argv else f"--case {case}"
    assert exit_.value.code == (f"{source}: reduced susceptance matrix is numerically"
                                " singular: pivot ratio 2.7e-14 <= 1e-10")
    assert not out.exists()


NO_SUCH_FILE = "No such file or directory"


@pytest.mark.parametrize("args, message", [
    ("detect --snapshot {missing}", "--snapshot {missing}: " + NO_SUCH_FILE),
    ("detect --snapshot {text}", "--snapshot {text}: not JSON: Expecting value"),
    ("detect --snapshot {snapshot}",
     "--snapshot {snapshot}: case {missing_case}: " + NO_SUCH_FILE),
    ("run-experiment --suite {missing}", "--suite {missing}: " + NO_SUCH_FILE),
    ("run-experiment --suite {text}", "--suite {text}: not JSON: Expecting value"),
    ("sced --loads {missing}", "--loads {missing}: " + NO_SUCH_FILE),
    ("sced --loads {text}", "--loads {text}: not JSON: Expecting value"),
    ("ptdf --case {missing_case}", "--case {missing_case}: " + NO_SUCH_FILE),
    ("ptdf --outage 7x", "--outage 7x: expected comma-separated branch ordinals"),
    ("attack --outage 9999 --target 118 --ls 0.1 --n1 5",
     "--case {case}: outage ordinals out of range 1..186: [9999]"),
    ("detect --snapshot {object}", "--snapshot {object}: missing key 'case'"),
    ("detect --snapshot {array}", "--snapshot {array}: expected an object, got []"),
    ("detect --snapshot {short}", "--snapshot {short}: prev_flows must have one"
     " entry per in-service branch"),
    ("run-experiment --suite {object}", "--suite {object}: missing key 'scenarios'"),
    ("detect --snapshot {numeric_case}",
     "--snapshot {numeric_case}: case: expected a string, got 0"),
    ("detect --snapshot {fractional_outage}",
     "--snapshot {fractional_outage}: outages[0]: expected an integer, got 1.5"),
    ("run-experiment --suite {no_seed}",
     "--suite {no_seed}: scenarios[1]: missing key 'seed'"),
    ("detect --snapshot {string_outage}",
     "--snapshot {string_outage}: outages: expected a list, got '71'"),
    ("run-experiment --suite {mixed_outages}", "--suite {mixed_outages}: scenarios[1]"
     ".outages[0]: expected an integer, got '71'"),
    ("detect --snapshot {boolean_outage}",
     "--snapshot {boolean_outage}: outages[0]: expected an integer, got True"),
    ("sced --loads {nested_load}", "--loads {nested_load}: bus 1: expected a number,"
     " got [1]"),
    ("sced --loads {string_array}", "--loads {string_array}: bus 1: expected a number,"
     " got 'a'"),
    ("sced --loads {string_loads}", "--loads {string_loads}: expected a list or an"
     " object, got 'text'"),
    ("sced --loads {word_load}", "--loads {word_load}: bus 1: expected a number,"
     " got 'x'"),
    ("sced --loads {null_load}", "--loads {null_load}: bus 1: expected a number,"
     " got None"),
    ("sced --loads {overload}", "sced: dispatch infeasible for load 5302.5 MW;"
     " binding: 111, 118"),
    ("attack --loads {overload} --target 118 --ls 0.1 --n1 5",
     "attack: dispatch infeasible for load 5302.5 MW; binding: 111, 118"),
    ("attack --target 9999 --ls 0.1 --n1 5", "attack: branch 9999 is not in service"),
    ("attack --target 118 --ls 2 --n1 5",
     "attack: load shift factor must be in [0, 1], got 2.0"),
    ("attack --target 118 --ls nan --n1 5",
     "attack: load shift factor must be in [0, 1], got nan"),
    ("attack --target 118 --ls 0.1 --n1 -1", "attack: l1 budget must be nonnegative"
     " and finite, got -1.0"),
    ("attack --target 118 --ls 0.1 --n1 nan", "attack: l1 budget must be nonnegative"
     " and finite, got nan"),
    ("attack --target 118 --ls 0.1 --n1 inf", "attack: l1 budget must be nonnegative"
     " and finite, got inf"),
    ("run-experiment --suite {boolean_target}", "--suite {boolean_target}: scenarios[1]"
     ".attack.target_branch: expected an integer, got True"),
    ("run-experiment --suite {fractional_target}", "--suite {fractional_target}:"
     " scenarios[1].attack.target_branch: expected an integer, got 118.7"),
    ("run-experiment --suite {string_target}", "--suite {string_target}: scenarios[1]"
     ".attack.target_branch: expected an integer, got '118'"),
    ("run-experiment --suite {boolean_sigma}", "--suite {boolean_sigma}: scenarios[1]"
     ".fluctuation.sigma: expected a number, got True"),
    ("run-experiment --suite {string_mu}", "--suite {string_mu}: scenarios[1]"
     ".fluctuation.mu: expected a number, got '0.0'"),
    ("run-experiment --suite {fractional_index}", "--suite {fractional_index}:"
     " scenarios[1].index: expected an integer, got 2.9"),
    ("run-experiment --suite {misspelt_key}", "--suite {misspelt_key}: scenarios[1]:"
     " unknown key 'fluctuaton'"),
    ("run-experiment --suite {duplicate_index}", "--suite {duplicate_index}:"
     " scenarios[0] and scenarios[1] both have index 0"),
    ("detect --snapshot {misspelt_outages}",
     "--snapshot {misspelt_outages}: unknown key 'outage'"),
    ("detect --snapshot {string_series}",
     "--snapshot {string_series}: measured_flows[1]: expected a number, got '0.5'"),
    ("detect --snapshot {boolean_series}",
     "--snapshot {boolean_series}: prev_loads[0]: expected a number, got True"),
    ("attack --case {case3} --loads {negative_load} --target 1 --ls 0.1 --n1 1",
     "attack: bus 3 has base load -10 MW; a load shift needs a nonnegative load"),
    ("sced --out {missing_dir}/x.json", "--out {missing_dir}/x.json: " + NO_SUCH_FILE),
    ("run-experiment --suite {one_scenario} --out {text}", "--out {text}: File exists"),
    ("sced --loads {short_load}", "--loads {short_load}: has 2 loads, the case has 118"
     " buses"),
], ids=["snapshot-missing", "snapshot-not-json", "snapshot-case-missing",
        "suite-missing", "suite-not-json", "loads-missing", "loads-not-json",
        "case-missing", "outage-not-a-number", "outage-out-of-range",
        "snapshot-empty-object", "snapshot-array", "snapshot-short-series",
        "suite-empty-object", "snapshot-numeric-case", "snapshot-fractional-outage",
        "scenario-without-seed", "snapshot-string-outage", "scenario-mixed-outages",
        "snapshot-boolean-outage", "loads-nested-list", "loads-string-array",
        "loads-string", "loads-word-value", "loads-null-value", "sced-unservable-loads",
        "attack-unservable-loads", "attack-target-not-in-service",
        "attack-shift-above-one", "attack-shift-nan", "attack-negative-budget",
        "attack-budget-nan", "attack-budget-inf", "scenario-boolean-target",
        "scenario-fractional-target", "scenario-string-target", "scenario-boolean-sigma",
        "scenario-string-mu", "scenario-fractional-index", "scenario-misspelt-key",
        "scenario-duplicate-index", "snapshot-misspelt-outages", "snapshot-string-series",
        "snapshot-boolean-series", "attack-negative-load", "out-in-missing-dir",
        "out-dir-is-a-file", "loads-short-list"])
def test_input_errors_end_in_one_line(case3_path, case118_path, net118, tmp_path, args,
                                      message):
    paths = {name: tmp_path / f"{name}.json" for name in (
        "missing", "text", "snapshot", "object", "array", "short", "numeric_case",
        "fractional_outage", "no_seed", "string_outage", "mixed_outages",
        "boolean_outage", "nested_load", "string_array", "string_loads", "word_load",
        "null_load", "overload", "boolean_target", "fractional_target",
        "string_target", "boolean_sigma", "string_mu", "fractional_index",
        "misspelt_key", "duplicate_index", "misspelt_outages", "string_series",
        "boolean_series", "negative_load", "one_scenario", "short_load")}
    paths.update(case=case118_path, case3=case3_path, missing_case=tmp_path / "missing.m",
                 missing_dir=tmp_path / "no_dir")
    series = {key: [1.0] for key in ("prev_flows", "prev_loads", "measured_flows",
                                     "measured_loads", "sced_flows")}
    paths["text"].write_text("not json\n")
    # a complete snapshot, so that reading reaches its case
    paths["snapshot"].write_text(json.dumps({"case": str(paths["missing_case"]), **series}))
    paths["object"].write_text("{}")
    paths["array"].write_text("[]")
    paths["numeric_case"].write_text(json.dumps({"case": 0}))
    paths["fractional_outage"].write_text(
        json.dumps({"case": str(case118_path), "outages": [1.5]}))
    paths["short"].write_text(json.dumps({"case": str(case118_path), **series}))
    for name, extra in (("misspelt_outages", {"outage": [71]}),
                        ("string_series", {"measured_flows": [1.0, "0.5"]}),
                        ("boolean_series", {"prev_loads": [True]})):
        paths[name].write_text(json.dumps({"case": str(case118_path), **series, **extra}))
    scenario = {"case": str(case118_path), "mode": "fluctuation_only", "seed": 1}
    paths["no_seed"].write_text(json.dumps({"scenarios": [
        scenario, {key: scenario[key] for key in ("case", "mode")}]}))
    paths["one_scenario"].write_text(json.dumps({"scenarios": [scenario]}))
    # a string would be read digit by digit, and a mixed list not sorted
    for name, outages in (("string_outage", "71"), ("boolean_outage", [True])):
        paths[name].write_text(json.dumps({"case": str(case118_path), "outages": outages}))
    paths["mixed_outages"].write_text(json.dumps({"scenarios": [
        scenario, {**scenario, "outages": ["71", 9999]}]}))
    attack = {"target_branch": 118, "load_shift_factor": 0.1, "l1_limit": 5.0}
    for name, change in (
            ("boolean_target", {"attack": {**attack, "target_branch": True}}),
            ("fractional_target", {"attack": {**attack, "target_branch": 118.7}}),
            ("string_target", {"attack": {**attack, "target_branch": "118"}}),
            ("boolean_sigma", {"fluctuation": {"mu": 0.0, "sigma": True}}),
            ("string_mu", {"fluctuation": {"mu": "0.0", "sigma": 0.03}}),
            ("fractional_index", {"index": 2.9}),
            ("misspelt_key", {"fluctuaton": {"mu": 0.0, "sigma": 0.03}}),
            ("duplicate_index", {})):
        paths[name].write_text(json.dumps({"scenarios": [
            scenario, {**scenario, "mode": "attack", **change}]}))
    for name, loads in (("nested_load", {"1": [1]}), ("string_array", ["a", 1]),
                        ("string_loads", "text"), ("word_load", {"1": "x"}),
                        ("null_load", {"1": None}), ("negative_load", [0.0, 90.0, -10.0]),
                        ("short_load", [0.0, 40.0]),
                        ("overload", (net118.load_mw * 1.25).tolist())):
        paths[name].write_text(json.dumps(loads))
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in args.split()]
    with pytest.raises(SystemExit) as exit_:
        main(argv if "--out" in argv else argv + ["--out", str(out)])
    assert isinstance(exit_.value.code, str)       # printed to stderr, status 1
    assert "\n" not in exit_.value.code
    assert exit_.value.code.startswith(message.format(**paths))
    assert not out.exists()


def test_suite_on_a_missing_case_fails_its_scenarios(tmp_path):
    suite_file = tmp_path / "suite.json"
    main(["gen-scenarios", "--case", str(tmp_path / "missing.m"), "--outage", "71",
          "--out", str(suite_file)])
    with pytest.raises(SystemExit, match="^72 of 72 scenarios failed"):
        main(["run-experiment", "--suite", str(suite_file),
              "--out", str(tmp_path / "results")])
    assert _read(tmp_path / "results" / "scenario_000.json")["error"].startswith(
        "FileNotFoundError")
    assert _read(tmp_path / "results" / "summary.json")["assumptions"][
        "reference_bus"] is None


def test_run_experiment_counts_failures_and_exits_1(case118_path, tmp_path):
    suite_file = tmp_path / "suite.json"
    main(["gen-scenarios", "--case", str(case118_path), "--out", str(suite_file)])
    scenarios = _read(suite_file)["scenarios"]
    ok, bad, negative = scenarios[0], scenarios[1], scenarios[80]
    bad["noise_sigma"] = {"flows": 0.01}
    # loads drawn below zero leave the attack no load shift bound
    negative["fluctuation"] = {"mu": -1.5, "sigma": 0.03}
    suite_file.write_text(json.dumps({"scenarios": [ok, bad, negative]}))
    out_dir = tmp_path / "results"
    env = {**os.environ, "PYTHONPATH": str(Path(gridfdi.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "gridfdi.cli", "run-experiment",
         "--suite", str(suite_file), "--out", str(out_dir)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 1
    assert done.stdout.rstrip().endswith("; 2 failed")
    assert done.stderr.startswith("2 of 3 scenarios failed")
    # every report is still written, the failure in its own
    assert _read(out_dir / "scenario_000.json")["error"] is None
    assert _read(out_dir / "scenario_001.json")["error"].startswith(
        "ValueError: noise_sigma['flows']")
    assert _read(out_dir / "scenario_080.json")["error"].startswith(
        "ValueError: bus 1 has base load -")
    assert [g["failures"] for g in _read(out_dir / "summary.json")["groups"]] == [1, 1]


def test_suite_configs_round_trip(case118_path):
    for suite in (study_118_suite(case118_path),
                  outage_robustness_suite(case118_path, 71)):
        text = json.dumps({"scenarios": [_config_to_dict(c) for c in suite]})
        assert _read_suite(json.loads(text)) == suite
