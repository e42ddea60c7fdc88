"""Command-line front end.

Subcommands mirror the library surface: ``ptdf``, ``sced``, ``attack`` and
``detect`` operate on single artifacts; ``gen-scenarios`` emits the canonical
study grids; ``run-experiment`` executes a suite and writes per-scenario JSON
reports plus an aggregate CSV (metrics in percent, overloads in MW).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import bundled_case
from .attack import AttackSpec, solve_attack
from .cases import load_case
from .detect import DetectionReport, Snapshot, run_two_stage
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
from .sced import run_sced


def _parse_outages(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _load_loads(net, path: str | None) -> np.ndarray:
    if path is None:
        return net.load_mw
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        loads = np.zeros(net.n_bus)
        ext = {b.external_id: b.internal_index for b in net.buses}
        for key, mw in data.items():
            loads[ext[int(key)]] = float(mw)
        return loads
    loads = np.asarray(data, dtype=float)
    if loads.shape != (net.n_bus,):
        raise SystemExit(
            f"loads file has {loads.shape} entries, case has {net.n_bus} buses"
        )
    return loads


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=_jsonify)
    print(f"wrote {path}")


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def report_to_dict(report: DetectionReport) -> dict:
    out = {
        "branch_ordinals": report.branch_ordinals.tolist(),
        "mldi": report.mldi.tolist(),
        "smldi": report.smldi,
        "stage1_alert": str(report.stage1_alert),
        "under_attack": report.under_attack,
    }
    if report.stage2 is not None:
        s2 = report.stage2
        out["stage2"] = {
            "bori1": s2.bori1.tolist(),
            "bori2": s2.bori2.tolist(),
            "bori": s2.bori.tolist(),
            "flow_alerts": [str(a) for a in s2.flow_alerts],
            "emldi": s2.emldi.tolist(),
            "load_alerts": [str(a) for a in s2.load_alerts],
            "combined_alerts": [str(a) for a in s2.combined_alerts],
            "cai": s2.cai.tolist(),
            "cai_rank": s2.cai_rank.tolist(),
            "suspects": [
                {
                    "branch": s.ordinal,
                    "cai": s.cai,
                    "cai_rank": s.cai_rank,
                    "alert": str(s.alert),
                    "reasons": list(s.reasons),
                }
                for s in s2.suspects
            ],
        }
    else:
        out["stage2"] = None
    return out


def _cmd_ptdf(args):
    net = load_case(args.case, _parse_outages(args.outage))
    ptdf = compute_ptdf(net)
    payload = {
        "case": str(args.case),
        "outages": list(_parse_outages(args.outage)),
        "reference_bus": net.buses[net.reference_bus].external_id,
        "branch_ordinals": [b.ordinal for b in net.in_service_branches],
        "bus_ids": [b.external_id for b in net.buses],
        "matrix": ptdf.matrix,
        "critical_sets": {
            str(net.in_service_branches[k].ordinal): [
                net.buses[n].external_id for n in ptdf.critical_sets[k]
            ]
            for k in range(ptdf.n_branches)
        },
        "critical_set_sizes": ptdf.nl_sizes,
        "eligible": ptdf.eligible,
    }
    _write_json(args.out, payload)


def _cmd_sced(args):
    net = load_case(args.case, _parse_outages(args.outage))
    loads = _load_loads(net, args.loads)
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
    net = load_case(args.case, _parse_outages(args.outage))
    loads = _load_loads(net, args.loads)
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
    with open(args.snapshot) as fh:
        data = json.load(fh)
    net = load_case(data["case"], tuple(data.get("outages", ())))
    ptdf = compute_ptdf(net)
    snap = Snapshot(
        prev_flows=np.asarray(data["prev_flows"], dtype=float),
        prev_loads=np.asarray(data["prev_loads"], dtype=float),
        measured_flows=np.asarray(data["measured_flows"], dtype=float),
        measured_loads=np.asarray(data["measured_loads"], dtype=float),
        sced_flows=np.asarray(data["sced_flows"], dtype=float),
        limits=net.limits_pu(),
        ptdf=ptdf,
        branch_ordinals=np.array([b.ordinal for b in net.in_service_branches]),
    )
    report = run_two_stage(snap, top_n=int(data.get("top_n", 10)))
    payload = report_to_dict(report)
    payload["assumptions"] = {
        "reference_bus": net.buses[net.reference_bus].external_id,
        "measurement_set": "one flow per in-service branch + one net injection per bus",
        "smldi_top_n": int(data.get("top_n", 10)),
    }
    _write_json(args.out, payload)


def _config_to_dict(c: ScenarioConfig) -> dict:
    return {
        "case": c.case_path,
        "mode": c.mode,
        "seed": list(c.seed) if isinstance(c.seed, tuple) else c.seed,
        "outages": list(c.outages),
        "fluctuation": (
            None if c.fluctuation is None
            else {"mu": c.fluctuation.mu, "sigma": c.fluctuation.sigma}
        ),
        "attack": (
            None if c.attack_params is None
            else {
                "target_branch": c.attack_params.target_branch,
                "load_shift_factor": c.attack_params.load_shift_factor,
                "l1_limit": c.attack_params.l1_limit,
            }
        ),
        "noise_sigma": dict(c.noise_sigma),
        "top_n": c.top_n,
        "dead_band": c.dead_band,
        "group": c.group,
        "index": c.index,
    }


def _config_from_dict(d: dict) -> ScenarioConfig:
    fluct = d.get("fluctuation")
    att = d.get("attack")
    seed = d["seed"]
    return ScenarioConfig(
        case_path=d["case"],
        mode=d["mode"],
        seed=tuple(seed) if isinstance(seed, list) else seed,
        outages=tuple(d.get("outages", ())),
        fluctuation=None if fluct is None else FluctuationSpec(
            mu=float(fluct["mu"]), sigma=float(fluct["sigma"])
        ),
        attack_params=None if att is None else AttackParams(
            target_branch=int(att["target_branch"]),
            load_shift_factor=float(att["load_shift_factor"]),
            l1_limit=float(att["l1_limit"]),
        ),
        noise_sigma=dict(d.get("noise_sigma", {})),
        top_n=int(d.get("top_n", 10)),
        dead_band=float(d.get("dead_band", 0.05)),
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
    with open(args.suite) as fh:
        suite = [_config_from_dict(d) for d in json.load(fh)["scenarios"]]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = NetworkCache()
    report = run_experiment(suite, cache)

    for outcome in report.outcomes:
        payload = {
            "config": _config_to_dict(outcome.config),
            "error": outcome.error,
            "smldi": outcome.smldi,
            "under_attack": outcome.under_attack,
            "target_in_suspects": outcome.target_in_suspects,
            "target_cai_rank": outcome.target_cai_rank,
            "target_danger": outcome.target_danger,
            "target_overload_mw": outcome.target_overload_mw,
            "report": None if outcome.report is None else report_to_dict(outcome.report),
        }
        name = f"scenario_{outcome.config.index:03d}.json"
        with open(out_dir / name, "w") as fh:
            json.dump(payload, fh, indent=1, default=_jsonify)

    net = load_case(suite[0].case_path, suite[0].outages) if suite else None
    summary = {
        "n_scenarios": len(report.outcomes),
        "assumptions": {
            "reference_bus": (
                None if net is None
                else net.buses[net.reference_bus].external_id
            ),
            "measurement_set": "one flow per in-service branch + one net injection per bus",
            "smldi_top_n": suite[0].top_n if suite else 10,
        },
        "groups": [g.__dict__ for g in report.groups],
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, default=_jsonify)

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
    print(f"wrote {out_dir}/aggregate.csv and {len(report.outcomes)} scenario reports")


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
