import golden


def _record(smldi, keys=("grid/000",)):
    entry = dict.fromkeys(golden.EXACT + tuple(golden.TOLERANCES))
    return {"margins": {"warning_line": golden.WARNING_LINE},
            "scenarios": {key: {**entry, "smldi": smldi} for key in keys}}


def test_record_is_rewritten_only_when_a_scenario_moves(tmp_path):
    path = tmp_path / "golden_outcomes.json"
    assert golden.update(_record(0.3), path) == [f"wrote {path} (1 scenarios)"]
    written = path.read_bytes()
    # a move within the tolerance leaves the bytes as they are
    assert golden.update(_record(0.3 + 1e-13), path) == ["no scenario moved"]
    assert path.read_bytes() == written
    # a move beyond it, and a scenario the record lacks, rewrite them
    assert golden.update(_record(0.301), path) == [
        "grid/000 smldi: 0.3 -> 0.301", f"wrote {path} (1 scenarios)"]
    assert golden.load_record(path) == _record(0.301)
    assert golden.update(_record(0.301, ("grid/000", "grid/001")), path) == [
        "grid/001: not in the golden record", f"wrote {path} (2 scenarios)"]
    assert len(golden.load_record(path)["scenarios"]) == 2
