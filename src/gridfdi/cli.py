"""Command-line front end.

Subcommands mirror the library surface: ``ptdf``, ``sced``, ``attack`` and
``detect`` operate on single artifacts; ``gen-scenarios`` emits the canonical
study grids; ``run-experiment`` executes a suite and writes per-scenario JSON
reports plus an aggregate CSV (metrics in percent, overloads in MW).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import bundled_case
from .attack import AttackSpec, solve_attack
from .cases import CaseError, load_case
from .detect import LEVELS, TOP_N, AlertLevel, ConfigError, Snapshot, run_two_stage
from .harness import (AttackParams, FluctuationSpec, NetworkCache, ScenarioConfig,
                      outage_robustness_suite, run_experiment, study_118_suite)
from .powerflow import compute_ptdf
from .sced import DispatchError, run_sced


@contextmanager
def _one_line(source: str):
    """End the run with one line naming ``source`` when that input is refused:
    a file that is missing or not JSON, JSON not of the declared kinds, a case
    that does not load or is numerically singular, or a value the library
    refuses."""
    try:
        yield
    except OSError as exc:
        raise SystemExit(f"{source}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{source}: not JSON: {exc}")
    except (CaseError, ConfigError, DispatchError, ValueError) as exc:
        raise SystemExit(f"{source}: {exc}")


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# The JSON reader.  A kind reads the value found at ``where``, a key path
# such as ``scenarios[3].attack.l1_limit``, and returns it typed, or raises
# a ValueError that names ``where``.

def _expect(ok: bool, where: str, what: str) -> None:
    if not ok:
        raise ValueError(f"{where}: {what}" if where else what)


def _number(value, where: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), where,
            f"expected a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    """An integer; an integral float such as ``71.0`` reads as 71."""
    _expect(isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer(), where,
            f"expected an integer, got {value!r}")
    return int(value)


def _instance(cls, kind: str):
    def read(value, where: str):
        _expect(isinstance(value, cls), where, f"expected {kind}, got {value!r}")
        return value
    return read


_string, _mapping = _instance(str, "a string"), _instance(dict, "an object")


def _list(kind):
    def read(value, where: str) -> tuple:
        _expect(isinstance(value, list), where, f"expected a list, got {value!r}")
        return tuple(kind(entry, f"{where}[{k}]") for k, entry in enumerate(value))
    return read


def _nullable(kind):
    return lambda value, where: None if value is None else kind(value, where)


def _object(required: dict, optional: dict = {}, build=dict):
    """An object read into ``build(**values)``: ``required`` and ``optional``
    map each key to its kind, and any other key is refused."""
    kinds = {**required, **optional}

    def read(value, where: str):
        for key in _mapping(value, where):
            _expect(key in kinds, where, f"unknown key {key!r}")
        values = {key: kinds[key](entry, f"{where}.{key}" if where else key)
                  for key, entry in value.items()}
        for key in required:
            _expect(key in value, where, f"missing key {key!r}")
        return build(**values)
    return read


def _seed(value, where: str):
    return (_list(_integer) if isinstance(value, list) else _integer)(value, where)


def _scenario(case, attack=None, **fields):
    return ScenarioConfig(case_path=case, attack_params=attack, **fields)


_SERIES = ("prev_flows", "prev_loads", "measured_flows", "measured_loads", "sced_flows")
_SNAPSHOT = _object({"case": _string, **dict.fromkeys(_SERIES, _list(_number))},
                    {"outages": _list(_integer)})
# noise_sigma's keys and values, and the mode, are the library's to check.
_SCENARIO = _object({"case": _string, "mode": _string, "seed": _seed}, {
    "outages": _list(_integer),
    "fluctuation": _nullable(_object({"mu": _number, "sigma": _number},
                                     build=FluctuationSpec)),
    "attack": _nullable(_object({"target_branch": _integer,
                                 "load_shift_factor": _number,
                                 "l1_limit": _number}, build=AttackParams)),
    "noise_sigma": _mapping, "group": _string, "index": _integer,
}, build=_scenario)


def _read_suite(data) -> list[ScenarioConfig]:
    """The scenarios of a suite; each writes its report under its own index."""
    suite = _object({"scenarios": _list(_SCENARIO)})(data, "")["scenarios"]
    first = {}
    for k, config in enumerate(suite):
        if (j := first.setdefault(config.index, k)) != k:
            raise ValueError(f"scenarios[{j}] and scenarios[{k}] both have"
                             f" index {config.index}")
    return list(suite)


def _parse_outages(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise SystemExit(f"--outage {text}: expected comma-separated branch ordinals")


def _case_network(args):
    """The ``--case`` network with the ``--outage`` branches out of service,
    its PTDF built, so that a numerically singular case fails here."""
    outages = _parse_outages(args.outage)
    with _one_line(f"--case {args.case}"):
        net = load_case(args.case, outages)
        compute_ptdf(net)
    return net


def _load_loads(net, path: str | None) -> np.ndarray:
    """The ``--loads`` file: a list in bus order or an object by bus id."""
    if path is None:
        return net.load_mw
    with _one_line(f"--loads {path}"):
        data = _read_json(path)
        if isinstance(data, dict):
            position = dict(zip(net.bus_ids.tolist(), range(net.n_bus)))
            by_bus = [0.0] * net.n_bus
            for key, mw in data.items():
                if not key.isdigit() or int(key) not in position:
                    raise ValueError(f"bus {key} is not in the case")
                by_bus[position[int(key)]] = mw
            data = by_bus
        _expect(isinstance(data, list), "", f"expected a list or an object, got {data!r}")
        loads = np.array([_number(mw, f"bus {b}") for b, mw in zip(net.bus_ids, data)])
        if len(data) != net.n_bus:
            raise ValueError(f"has {len(data)} loads, the case has {net.n_bus} buses")
        bad = ~np.isfinite(loads)
        if np.any(bad):
            raise ValueError(f"gives bus {net.bus_ids[np.argmax(bad)]} a non-finite load")
    return loads


def _plain(obj, levels=False):
    """JSON-ready copy of a record: dataclasses become dicts of their fields,
    alert levels their names (in ``LEVELS`` fields too), arrays and numpy
    scalars lists and numbers."""
    if levels:
        return [str(AlertLevel(i)) for i in obj.tolist()]
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name), f.metadata == LEVELS)
                for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return str(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    return obj


def _assumptions(net) -> dict:
    """The modelling assumptions a detection report was made under."""
    return {
        "reference_bus": None if net is None else net.bus_ids[net.reference_bus],
        "measurement_set": "one flow per in-service branch + one net injection per bus",
        "smldi_top_n": TOP_N,
    }


def _dump(path, payload) -> None:
    with _one_line(f"--out {path}"), open(path, "w") as fh:
        json.dump(_plain(payload), fh, indent=1)


def _write_json(path: str, payload) -> None:
    _dump(path, payload)
    print(f"wrote {path}")


def _cmd_ptdf(args):
    net = _case_network(args)
    ptdf = compute_ptdf(net)
    payload = {
        "case": str(args.case),
        "outages": list(_parse_outages(args.outage)),
        "reference_bus": net.bus_ids[net.reference_bus],
        "branch_ordinals": net.branch_ordinals,
        "bus_ids": net.bus_ids,
        "matrix": ptdf.matrix,
        "critical_sets": {str(ordinal): net.bus_ids[row]
                          for ordinal, row in zip(net.branch_ordinals, ptdf.critical_mask)},
        "critical_set_sizes": ptdf.critical_sizes,
        "eligible": ptdf.eligible,
    }
    _write_json(args.out, payload)


def _cmd_sced(args):
    net = _case_network(args)
    loads = _load_loads(net, args.loads)
    with _one_line("sced"):
        dispatch = run_sced(net, loads)
    payload = {
        "case": str(args.case),
        "total_cost": dispatch.total_cost,
        "gen_output_mw": dispatch.gen_output,
        "gen_buses": [net.bus_ids[g.bus] for g in net.generators],
        "scheduled_flows_pu": dispatch.scheduled_flows,
        "branch_ordinals": net.branch_ordinals,
        "binding_branches": list(dispatch.binding_branches),
    }
    _write_json(args.out, payload)


def _cmd_attack(args):
    net = _case_network(args)
    loads = _load_loads(net, args.loads)
    with _one_line("attack"):
        base = run_sced(net, loads)
        spec = AttackSpec(target_branch=args.target, load_shift_factor=args.ls,
                          l1_limit=args.n1, base_flows=base.scheduled_flows,
                          base_loads=loads)
        result = solve_attack(net, spec)
    payload = {
        "case": str(args.case),
        "target_branch": args.target,
        "load_shift_factor": args.ls,
        "l1_limit": args.n1,
        "objective_pu": result.objective,
        "c_rad": result.c,
        "s": result.s,
        "delta_p_pu": result.delta_p,
        "delta_d_mw": result.delta_d,
        "tampered_loads_mw": result.tampered_loads,
        "cyber_flows_pu": result.cyber_flows,
        "branch_ordinals": net.branch_ordinals,
        "bus_ids": net.bus_ids,
        "base_mva": result.base_mva,
        "reference_bus": net.bus_ids[net.reference_bus],
    }
    _write_json(args.out, payload)


def _cmd_detect(args):
    source = f"--snapshot {args.snapshot}"
    with _one_line(source):
        data = _SNAPSHOT(_read_json(args.snapshot), "")
    with _one_line(f"{source}: case {data['case']}"):
        net = load_case(data["case"], data.get("outages", ()))
        ptdf = compute_ptdf(net)
    with _one_line(source):
        snap = Snapshot(**{key: np.array(data[key]) for key in _SERIES},
                        limits=net.limits_pu, ptdf=ptdf,
                        branch_ordinals=net.branch_ordinals)
        payload = _plain(run_two_stage(snap))
    payload["assumptions"] = _assumptions(net)
    _write_json(args.out, payload)


# Suite-file keys of the ScenarioConfig fields whose names differ.
_SUITE_KEYS = {"case_path": "case", "attack_params": "attack"}


def _config_to_dict(c: ScenarioConfig) -> dict:
    return {_SUITE_KEYS.get(key, key): value for key, value in _plain(c).items()}


def _cmd_gen_scenarios(args):
    case = args.case or bundled_case()
    if args.outage:
        suite = outage_robustness_suite(case, args.outage, seed=args.seed)
    else:
        suite = study_118_suite(case, seed=args.seed)
    _write_json(args.out, {"scenarios": [_config_to_dict(c) for c in suite]})


def _cmd_run_experiment(args):
    with _one_line(f"--suite {args.suite}"):
        suite = _read_suite(_read_json(args.suite))
    out_dir = Path(args.out)
    with _one_line(f"--out {out_dir}"):
        out_dir.mkdir(parents=True, exist_ok=True)
    cache = NetworkCache()
    report = run_experiment(suite, cache)

    for outcome in report.outcomes:
        payload = {**_plain(outcome), "config": _config_to_dict(outcome.config)}
        _dump(out_dir / f"scenario_{outcome.config.index:03d}.json", payload)

    ran = [o.config for o in report.outcomes if o.error is None]
    net = cache.first[str(ran[0].case_path)] if ran else None
    _dump(out_dir / "summary.json", {
        "n_scenarios": len(report.outcomes),
        "assumptions": _assumptions(net),
        "groups": report.groups,
    })

    with open(out_dir / "aggregate.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "max", "min", "median", "average", "std",
                         "detected", "identified", "danger_marked"])
        for g in report.groups:
            smldi = (g.smldi_max, g.smldi_min, g.smldi_median, g.smldi_average, g.smldi_std)
            writer.writerow([g.group, *(f"{100 * v:.1f}" for v in smldi),
                             g.detected, g.identified, g.danger_marked])
    failed = sum(o.error is not None for o in report.outcomes)
    print(f"wrote {out_dir}/aggregate.csv and {len(report.outcomes)} scenario reports;"
          f" {failed} failed")
    if failed:
        raise SystemExit(f"{failed} of {len(report.outcomes)} scenarios failed;"
                         " their scenario reports carry the error")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridfdi",
        description="Measurement-tampering attack synthesis and detection "
        "for DC state estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    network = argparse.ArgumentParser(add_help=False)
    network.add_argument("--case", default=bundled_case())
    network.add_argument("--outage", help="comma-separated 1-based branch ordinals")
    network.add_argument("--out", required=True)

    p = sub.add_parser("ptdf", parents=[network],
                       help="dump sensitivity matrix and critical sets")
    p.set_defaults(func=_cmd_ptdf)

    p = sub.add_parser("sced", parents=[network], help="run economic dispatch")
    p.add_argument("--loads", help="JSON array (bus order) or {bus_id: MW}")
    p.set_defaults(func=_cmd_sced)

    p = sub.add_parser("attack", parents=[network],
                       help="solve the tampering LP for one target")
    p.add_argument("--target", type=int, required=True, help="1-based branch ordinal")
    p.add_argument("--ls", type=float, required=True, help="load shift factor")
    p.add_argument("--n1", type=float, required=True, help="l1 budget (rad)")
    p.add_argument("--loads")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("detect", help="run the two-stage detector on a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("gen-scenarios", help="emit a canonical scenario grid")
    p.add_argument("--outage", type=int,
                   help="emit the outage robustness mini-grid instead of the"
                   " 240-scenario 118-bus study grid")
    p.add_argument("--case", help="case file the scenarios reference")
    p.add_argument("--seed", type=int, default=2018)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_scenarios)

    p = sub.add_parser("run-experiment", help="run a scenario suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_run_experiment)

    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
