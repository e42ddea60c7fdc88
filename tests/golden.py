"""The golden outcome record: what the seed-2018 study grid (240 scenarios)
and the outage-71 robustness suite (72) decide, scenario by scenario.

``golden_outcomes.json`` beside this module holds one entry per scenario,
keyed ``grid/NNN`` or ``outage71/NNN`` by scenario index.  Discrete fields
compare exactly; each float field compares at the absolute tolerance in
``TOLERANCES``, whose comment gives the reason.  A change that moves an entry
rewrites the record with ``scripts/write_golden.py`` and explains the move;
the script (:func:`update`) writes only when an entry moved beyond its
tolerance or is missing, so roundoff below the tolerances never rewrites it.

The record also keeps, per suite, the two SMLDI margins to the 0.35 Warning
line: the largest fluctuation-only SMLDI (0.336 on the grid) and the smallest
attack SMLDI (0.298).  A scenario that crosses the line there has changed its
answer; that is not noise.
"""

import json
from pathlib import Path

from gridfdi.detect import INDEX_THRESHOLDS

RECORD = Path(__file__).resolve().parent / "golden_outcomes.json"

WARNING_LINE = INDEX_THRESHOLDS[1]

EXACT = ("error", "stage1_alert", "under_attack", "target_in_suspects",
         "target_cai_rank", "target_danger", "tampered_load_count", "suspects")

TOLERANCES = {
    # A mean of ten per-branch MLDI values, each an integer count of +-1
    # indicators over an integer critical-set size (at most 99 loads): any
    # real change moves it by about 1e-3, so 1e-12 admits only summation-
    # order roundoff.
    "smldi": 1e-12,
    # The attack LP's optimum, p.u.; HiGHS and the certificate hold it to
    # lp.FEASIBILITY_TOL (1e-7), so another optimal vertex, pivot order or
    # BLAS may move it that far and no further.
    "attack_objective_pu": 1e-7,
    # MW above the target's rating after the soft-limit re-dispatch, an LP
    # answer held to lp.FEASIBILITY_TOL (1e-7 p.u.) on the 100 MVA base.
    "target_overload_mw": 1e-5,
    # Telemetry is noiseless, so the largest normalised residual is roundoff
    # (below 1e-12 on both suites); 1e-9 is the bound the timeline tests
    # hold a clean estimate to, far below the 3.0 alarm line.
    "lnr_value": 1e-9,
}


def outcome_entry(outcome) -> dict:
    """The recorded fields of one ``ScenarioOutcome``."""
    report = outcome.report
    stage2 = None if report is None else report.stage2
    return {
        "error": outcome.error,
        "stage1_alert": None if report is None else report.stage1_alert.name,
        "under_attack": outcome.under_attack,
        "target_in_suspects": outcome.target_in_suspects,
        "target_cai_rank": outcome.target_cai_rank,
        "target_danger": outcome.target_danger,
        "tampered_load_count": outcome.tampered_load_count,
        "suspects": None if stage2 is None else [s.ordinal for s in stage2.suspects],
        "smldi": outcome.smldi,
        "attack_objective_pu": outcome.attack_objective_pu,
        "target_overload_mw": outcome.target_overload_mw,
        "lnr_value": outcome.lnr_value,
    }


def build_record(runs: dict) -> dict:
    """The record of ``{suite name: outcomes}``, margins included."""
    scenarios = {
        f"{name}/{o.config.index:03d}": outcome_entry(o)
        for name, outcomes in runs.items() for o in outcomes
    }
    margins = {"warning_line": WARNING_LINE}
    for name, outcomes in runs.items():
        ok = [o for o in outcomes if o.error is None]
        margins[name] = {
            "fluctuation_smldi_max": max(
                o.smldi for o in ok if o.config.mode == "fluctuation_only"),
            "attack_smldi_min": min(o.smldi for o in ok if o.config.mode == "attack"),
        }
    return {"margins": margins, "scenarios": scenarios}


def load_record(path: Path = RECORD) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_record(record: dict, path: Path = RECORD) -> None:
    """Write ``record`` with one line per scenario, so a moved entry shows
    as one changed line."""
    rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(entry)}"
                      for key, entry in record["scenarios"].items())
    with open(path, "w") as fh:
        fh.write(f'{{"margins": {json.dumps(record["margins"], indent=1)},\n'
                 f' "scenarios": {{\n{rows}\n}}}}\n')


def _differs(field, old, new) -> bool:
    if field not in TOLERANCES or old is None or new is None:
        return old != new
    return not abs(new - old) <= TOLERANCES[field]


def diff(golden: dict, record: dict) -> list[str]:
    """One line per scenario field that moved beyond its tolerance, and per
    scenario present in only one of the two records."""
    old, new = golden["scenarios"], record["scenarios"]
    lines = [f"{key}: only in the golden record" for key in old if key not in new]
    lines += [f"{key}: not in the golden record" for key in new if key not in old]
    for key in old.keys() & new.keys():
        for field in EXACT + tuple(TOLERANCES):
            a, b = old[key].get(field), new[key].get(field)
            if _differs(field, a, b):
                lines.append(f"{key} {field}: {a!r} -> {b!r}")
    return sorted(lines)


def update(record: dict, path: Path = RECORD) -> list[str]:
    """Write ``record`` to ``path`` when no record is there yet or when
    :func:`diff` names a moved or missing scenario, and leave the file as
    it is otherwise.  Returns the lines to print: the moves and where the
    record went, or "no scenario moved"."""
    lines = diff(load_record(path), record) if path.exists() else []
    if path.exists() and not lines:
        return ["no scenario moved"]
    write_record(record, path)
    return lines + [f"wrote {path} ({len(record['scenarios'])} scenarios)"]
