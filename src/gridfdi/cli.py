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
from .detect import DEAD_BAND, TOP_N, ConfigError, Snapshot, run_two_stage
from .harness import (
    AttackParams,
    FluctuationSpec,
    NetworkCache,
    ScenarioConfig,
    outage_robustness_suite,
    study_118_suite,
    run_experiment,
)
from .powerflow import compute_ptdf
from .sced import DispatchError, run_sced


@contextmanager
def _reading(source: str):
    """End the run with one line naming ``source`` when reading that input
    fails: a missing or unreadable file, text that is not JSON, or a case
    that does not load."""
    try:
        yield
    except OSError as exc:
        raise SystemExit(f"{source}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{source}: not JSON: {exc}")
    except CaseError as exc:
        raise SystemExit(f"{source}: {exc}")


@contextmanager
def _fields(source: str):
    """End the run with one line naming ``source`` when JSON that parsed
    lacks a key or has the wrong shape for the records read from it."""
    try:
        yield
    except KeyError as exc:
        raise SystemExit(f"{source}: missing key {exc}")
    except (TypeError, ValueError, AttributeError) as exc:
        raise SystemExit(f"{source}: wrong shape: {exc}")


@contextmanager
def _refused(command: str):
    """End the run with one line naming ``command`` when the library refuses
    its input: loads the dispatch cannot serve, a target branch that is not
    in service, an attack setting out of range."""
    try:
        yield
    except (DispatchError, CaseError, ValueError) as exc:
        raise SystemExit(f"{command}: {exc}")


def _path(value) -> str:
    """A case path read from JSON; a number would open a file descriptor."""
    if not isinstance(value, str):
        raise TypeError(f"case must be a path string, got {value!r}")
    return value


def _outages(value) -> tuple:
    """Outage ordinals read from JSON: a string would be read digit by digit.
    Numbers that name no branch are left to the case validation."""
    if not isinstance(value, list) or any(
            isinstance(k, bool) or not isinstance(k, (int, float)) for k in value):
        raise TypeError(f"outages must be a list of branch ordinals, got {value!r}")
    return tuple(value)


def _read_json(path: str, flag: str):
    with _reading(f"{flag} {path}"), open(path) as fh:
        return json.load(fh)


def _parse_outages(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise SystemExit(f"--outage {text}: expected comma-separated branch ordinals")


def _case_network(args):
    """The ``--case`` network with the ``--outage`` branches out of service."""
    outages = _parse_outages(args.outage)
    with _reading(f"--case {args.case}"):
        return load_case(args.case, outages)


def _load_loads(net, path: str | None) -> np.ndarray:
    if path is None:
        return net.load_mw
    data = _read_json(path, "--loads")
    with _fields(f"--loads {path}"):
        if isinstance(data, dict):
            loads = np.zeros(net.n_bus)
            ext = {b.external_id: i for i, b in enumerate(net.buses)}
            for key, mw in data.items():
                bus = ext.get(int(key)) if key.isdigit() else None
                if bus is None:
                    raise SystemExit(f"loads file names bus {key}, which is not in the case")
                loads[bus] = _number(key, mw)
        else:
            if isinstance(data, list):
                for bus, mw in zip(net.buses, data):
                    _number(bus.external_id, mw)
            loads = np.asarray(data, dtype=float)
    if loads.shape != (net.n_bus,):
        raise SystemExit(
            f"loads file has {loads.shape} entries, case has {net.n_bus} buses"
        )
    bad = ~np.isfinite(loads)
    if np.any(bad):
        bus = net.buses[np.argmax(bad)].external_id
        raise SystemExit(f"loads file gives bus {bus} a non-finite load")
    return loads


def _number(bus, mw) -> float:
    """One bus load from a loads file; ``float`` would also take a bool or
    a numeric string."""
    if isinstance(mw, (bool, str)):
        raise TypeError(f"bus {bus} has load {mw!r}, not a number")
    return float(mw)


def _check_detector_settings(data: dict, source: str) -> None:
    """Files may carry the detector settings, which are fixed; refuse any
    other value rather than run with a setting the file did not ask for."""
    for key, fixed in (("top_n", TOP_N), ("dead_band", DEAD_BAND)):
        if key in data and data[key] != fixed:
            raise SystemExit(
                f"{source}: {key} = {data[key]!r} is not supported;"
                f" the detector runs with {key} = {fixed}"
            )


def _plain(obj):
    """JSON-ready copy of a record: dataclasses become dicts of their fields,
    alert levels their names, arrays and numpy scalars lists and numbers."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
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
        "reference_bus": None if net is None else net.buses[net.reference_bus].external_id,
        "measurement_set": "one flow per in-service branch + one net injection per bus",
        "smldi_top_n": TOP_N,
    }


def _dump(path, payload) -> None:
    with open(path, "w") as fh:
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
        "reference_bus": net.buses[net.reference_bus].external_id,
        "branch_ordinals": [b.ordinal for b in net.in_service_branches],
        "bus_ids": [b.external_id for b in net.buses],
        "matrix": ptdf.matrix,
        "critical_sets": {
            str(br.ordinal): [net.buses[n].external_id
                              for n in np.flatnonzero(ptdf.critical_mask[k])]
            for k, br in enumerate(net.in_service_branches)
        },
        "critical_set_sizes": ptdf.critical_sizes,
        "eligible": ptdf.eligible,
    }
    _write_json(args.out, payload)


def _cmd_sced(args):
    net = _case_network(args)
    loads = _load_loads(net, args.loads)
    with _refused("sced"):
        dispatch = run_sced(net, loads)
    payload = {
        "case": str(args.case),
        "total_cost": dispatch.total_cost,
        "gen_output_mw": dispatch.gen_output,
        "gen_buses": [net.buses[g.bus].external_id for g in net.generators],
        "scheduled_flows_pu": dispatch.scheduled_flows,
        "branch_ordinals": [b.ordinal for b in net.in_service_branches],
        "binding_branches": list(dispatch.binding_branches),
    }
    _write_json(args.out, payload)


def _cmd_attack(args):
    net = _case_network(args)
    loads = _load_loads(net, args.loads)
    with _refused("attack"):
        base = run_sced(net, loads)
        spec = AttackSpec(
            target_branch=args.target,
            load_shift_factor=args.ls,
            l1_limit=args.n1,
            base_flows=base.scheduled_flows,
            base_loads=loads,
        )
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
        "branch_ordinals": [b.ordinal for b in net.in_service_branches],
        "bus_ids": [b.external_id for b in net.buses],
        "base_mva": result.base_mva,
        "reference_bus": net.buses[net.reference_bus].external_id,
    }
    _write_json(args.out, payload)


def _cmd_detect(args):
    data = _read_json(args.snapshot, "--snapshot")
    with _fields(args.snapshot):
        _check_detector_settings(data, args.snapshot)
        case, outages = _path(data["case"]), _outages(data.get("outages", []))
    with _reading(f"{args.snapshot}: case {case}"):
        net = load_case(case, outages)
    ptdf = compute_ptdf(net)
    with _fields(args.snapshot):
        snap = Snapshot(
            **{key: np.asarray(data[key], dtype=float) for key in (
                "prev_flows", "prev_loads", "measured_flows", "measured_loads",
                "sced_flows")},
            limits=net.limits_pu,
            ptdf=ptdf,
            branch_ordinals=np.array([b.ordinal for b in net.in_service_branches]),
        )
    try:
        payload = _plain(run_two_stage(snap))
    except ConfigError as exc:
        raise SystemExit(f"{args.snapshot}: {exc}")
    payload["assumptions"] = _assumptions(net)
    _write_json(args.out, payload)


# Suite-file keys of the ScenarioConfig fields whose names differ.
_SUITE_KEYS = {"case_path": "case", "attack_params": "attack"}


def _config_to_dict(c: ScenarioConfig) -> dict:
    return {_SUITE_KEYS.get(key, key): value for key, value in _plain(c).items()}


def _config_from_dict(d: dict, source: str) -> ScenarioConfig:
    with _fields(source):
        _check_detector_settings(d, source)
        fluct = d.get("fluctuation")
        att = d.get("attack")
        seed = d["seed"]
        return ScenarioConfig(
            case_path=_path(d["case"]),
            mode=d["mode"],
            seed=tuple(seed) if isinstance(seed, list) else seed,
            outages=_outages(d.get("outages", [])),
            fluctuation=None if fluct is None else FluctuationSpec(
                mu=float(fluct["mu"]), sigma=float(fluct["sigma"])
            ),
            attack_params=None if att is None else AttackParams(
                target_branch=int(att["target_branch"]),
                load_shift_factor=float(att["load_shift_factor"]),
                l1_limit=float(att["l1_limit"]),
            ),
            noise_sigma=dict(d.get("noise_sigma", {})),
            group=d.get("group", ""),
            index=int(d.get("index", 0)),
        )


def _cmd_gen_scenarios(args):
    case = args.case or bundled_case()
    if args.outage:
        suite = outage_robustness_suite(case, args.outage, seed=args.seed)
    else:
        suite = study_118_suite(case, seed=args.seed)
    _write_json(args.out, {"scenarios": [_config_to_dict(c) for c in suite]})


def _cmd_run_experiment(args):
    data = _read_json(args.suite, "--suite")
    with _fields(args.suite):
        suite = [_config_from_dict(d, f"{args.suite}: scenarios[{k}]")
                 for k, d in enumerate(data["scenarios"])]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = NetworkCache()
    report = run_experiment(suite, cache)

    for outcome in report.outcomes:
        payload = {**_plain(outcome), "config": _config_to_dict(outcome.config)}
        _dump(out_dir / f"scenario_{outcome.config.index:03d}.json", payload)

    ran = [o.config for o in report.outcomes if o.error is None]
    net = cache.get(ran[0].case_path, ran[0].outages)[0] if ran else None
    _dump(out_dir / "summary.json", {
        "n_scenarios": len(report.outcomes),
        "assumptions": _assumptions(net),
        "groups": report.groups,
    })

    with open(out_dir / "aggregate.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "group", "max", "min", "median", "average", "std",
            "detected", "identified", "danger_marked",
        ])
        for g in report.groups:
            writer.writerow([
                g.group,
                f"{100 * g.smldi_max:.1f}",
                f"{100 * g.smldi_min:.1f}",
                f"{100 * g.smldi_median:.1f}",
                f"{100 * g.smldi_average:.1f}",
                f"{100 * g.smldi_std:.1f}",
                g.detected,
                g.identified,
                g.danger_marked,
            ])
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

    p = sub.add_parser("ptdf", help="dump sensitivity matrix and critical sets")
    p.add_argument("--case", default=bundled_case())
    p.add_argument("--outage", help="comma-separated 1-based branch ordinals")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ptdf)

    p = sub.add_parser("sced", help="run economic dispatch")
    p.add_argument("--case", default=bundled_case())
    p.add_argument("--outage")
    p.add_argument("--loads", help="JSON array (bus order) or {bus_id: MW}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sced)

    p = sub.add_parser("attack", help="solve the tampering LP for one target")
    p.add_argument("--case", default=bundled_case())
    p.add_argument("--outage")
    p.add_argument("--target", type=int, required=True,
                   help="1-based branch ordinal")
    p.add_argument("--ls", type=float, required=True, help="load shift factor")
    p.add_argument("--n1", type=float, required=True, help="l1 budget (rad)")
    p.add_argument("--loads")
    p.add_argument("--out", required=True)
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
