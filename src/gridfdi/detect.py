"""Two-stage detection of load-redistribution tampering.

Stage 1 aggregates per-branch malicious-load-deviation indices into a
system-wide score and decides whether anything is wrong at all; stage 2 ranks
branches by a combined overload-risk / load-deviation score and names the
suspected targets.  All metrics are computed from one :class:`Snapshot` of
what the control room can actually see: last interval's trusted state, this
interval's (possibly forged) measurements and the freshly scheduled flows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .powerflow import Ptdf

# Relative load changes inside the dead band carry no directional evidence.
DEAD_BAND = 0.05
# Counteracts LP/solver roundoff for deviations that sit exactly on a bound.
_BAND_SLOP = 1e-9

# Alert thresholds, strict ">" as printed; boundary values fall a level down.
BORI_THRESHOLDS = (1.05, 1.10, 1.15)     # Monitor / Warning / Danger
INDEX_THRESHOLDS = (0.20, 0.35, 0.50)    # Monitor / Warning / Danger

TOP_N = 10          # branches pooled into the system-wide score
TOP_SUSPECTS = 3    # combined-score ranks always treated as suspects


class ConfigError(Exception):
    """Unusable detector configuration (e.g. nothing is eligible)."""


class AlertLevel(enum.IntEnum):
    NORMAL = 0
    MONITOR = 1
    WARNING = 2
    DANGER = 3

    def __str__(self):
        return self.name.capitalize()


# Combined alert lookup: rows = flow-risk level, columns = load-deviation level.
_N, _M, _W, _D = AlertLevel
COMBINED_ALERT = (
    (_N, _M, _M, _W),
    (_M, _M, _W, _W),
    (_M, _W, _W, _D),
    (_W, _W, _D, _D),
)

_LEVELS = tuple(AlertLevel)
_COMBINED_INDEX = np.array(COMBINED_ALERT, dtype=int)


def _levels(values: np.ndarray, thresholds) -> np.ndarray:
    """Alert level index per value: the number of (ascending) thresholds it
    strictly exceeds."""
    return (np.asarray(values)[:, None] > np.asarray(thresholds)).sum(axis=1)


@dataclass(frozen=True)
class Snapshot:
    """Everything the detector sees for one dispatch interval.

    Branch vectors are aligned with the in-service branch order (same as the
    sensitivity matrix rows); ``branch_ordinals`` maps positions back to
    1-based case-file ordinals.  Flows and limits are p.u., loads are MW.
    """

    prev_flows: np.ndarray
    prev_loads: np.ndarray
    measured_flows: np.ndarray
    measured_loads: np.ndarray
    sced_flows: np.ndarray
    limits: np.ndarray
    ptdf: Ptdf
    branch_ordinals: np.ndarray

    def __post_init__(self):
        m, n = self.ptdf.matrix.shape
        for name in ("prev_flows", "measured_flows", "sced_flows", "limits",
                     "branch_ordinals", "prev_loads", "measured_loads"):
            values = np.asarray(getattr(self, name))
            size, per = (n, "bus") if name.endswith("loads") else (m, "in-service branch")
            if values.shape != (size,):
                raise ValueError(f"{name} must have one entry per {per}")
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} has NaN or infinite entries")
        if np.any(self.limits <= 0):
            raise ValueError("all branch limits must be positive")

    @property
    def n_branches(self):
        return self.ptdf.matrix.shape[0]


@dataclass(frozen=True)
class Suspect:
    ordinal: int
    cai: float
    cai_rank: int
    alert: AlertLevel
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class Stage2Report:
    bori1: np.ndarray
    bori2: np.ndarray
    bori: np.ndarray
    flow_alerts: tuple[AlertLevel, ...]      # per-branch, from BORI
    emldi: np.ndarray
    load_alerts: tuple[AlertLevel, ...]      # per-branch, from EMLDI
    combined_alerts: tuple[AlertLevel, ...]
    cai: np.ndarray
    cai_rank: np.ndarray                     # 1-based, deterministic ties
    suspects: tuple[Suspect, ...]


@dataclass(frozen=True)
class DetectionReport:
    branch_ordinals: np.ndarray
    mldi: np.ndarray
    smldi: float
    stage1_alert: AlertLevel
    under_attack: bool
    stage2: Stage2Report | None


# --- per-branch metrics -------------------------------------------------------


def _load_direction(snap: Snapshot, dead_band: float) -> np.ndarray:
    """+1 / 0 / -1 per bus from the relative load change, dead-banded.

    Buses with zero previous load carry no evidence and map to 0.
    """
    prev = np.asarray(snap.prev_loads, dtype=float)
    rel = np.zeros_like(prev)
    nz = prev != 0
    rel[nz] = (snap.measured_loads[nz] - prev[nz]) / prev[nz]
    band = dead_band - _BAND_SLOP
    return np.where(rel >= band, 1.0, np.where(rel <= -band, -1.0, 0.0)) * nz


def _indicators(snap: Snapshot, dead_band: float) -> np.ndarray:
    """Indicator matrix (branch x bus): direction of each critical load's
    impact on the branch flow, zero outside the critical sets."""
    direction = _load_direction(snap, dead_band)
    ind = direction[None, :] * np.sign(snap.ptdf.matrix)
    ind[~snap.ptdf.critical_mask] = 0.0
    return ind


def mldi_all(snap: Snapshot, dead_band: float = DEAD_BAND) -> np.ndarray:
    """Mean directional consensus of critical-load changes, per branch,
    signed so that positive means 'loads conspire to shrink this flow'."""
    return _mldi(snap, _indicators(snap, dead_band))


def _mldi(snap: Snapshot, ind: np.ndarray) -> np.ndarray:
    sizes = np.maximum(snap.ptdf.nl_sizes, 1)
    return np.sign(snap.prev_flows) * ind.sum(axis=1) / sizes


def emldi_all(snap: Snapshot, dead_band: float = DEAD_BAND) -> np.ndarray:
    """Like :func:`mldi_all` but weighting each critical load by its share of
    |load change x sensitivity|; zero when no critical load moved at all."""
    return _emldi(snap, _indicators(snap, dead_band))


def _emldi(snap: Snapshot, ind: np.ndarray) -> np.ndarray:
    delta = snap.measured_loads - snap.prev_loads
    weight = np.abs(delta[None, :] * snap.ptdf.matrix)
    weight[~snap.ptdf.critical_mask] = 0.0
    norm = weight.sum(axis=1)
    safe = np.where(norm > 0, norm, 1.0)
    return np.sign(snap.prev_flows) * (weight * ind).sum(axis=1) / safe


def bori_all(snap: Snapshot):
    """Overload-risk pair per branch: one projecting the hidden deviation on
    last interval's flow, one on the freshly scheduled flow."""
    sgn = np.sign(snap.prev_flows)
    hidden = snap.prev_flows - snap.measured_flows
    bori1 = sgn * (hidden + snap.prev_flows) / snap.limits
    bori2 = sgn * (hidden + snap.sced_flows) / snap.limits
    return bori1, bori2, np.maximum(bori1, bori2)


def smldi(mldi_values: np.ndarray, eligible: np.ndarray, top_n: int = TOP_N):
    """Mean of the top ``top_n`` eligible per-branch indices and its alert.

    Ties at the pool boundary break on the lower branch position for
    determinism.  Raises :class:`ConfigError` when nothing is eligible.
    """
    idx = np.nonzero(np.asarray(eligible))[0]
    if len(idx) == 0:
        raise ConfigError("no branch has a large enough critical load set")
    values = np.asarray(mldi_values)[idx]
    order = np.lexsort((idx, -values))
    pool = values[order[: min(top_n, len(idx))]]
    value = float(pool.mean())
    return value, _LEVELS[_levels([value], INDEX_THRESHOLDS)[0]]


def cai_ranking(emldi_values: np.ndarray, bori_values: np.ndarray,
                ordinals: np.ndarray):
    """Combined attack score (product) and its deterministic 1-based ranking
    (descending score, lower ordinal first on ties)."""
    cai = np.asarray(emldi_values) * np.asarray(bori_values)
    order = np.lexsort((ordinals, -cai))
    rank = np.empty(len(cai), dtype=int)
    rank[order] = np.arange(1, len(cai) + 1)
    return cai, rank


def run_two_stage(snap: Snapshot, top_n: int = TOP_N,
                  dead_band: float = DEAD_BAND) -> DetectionReport:
    """Full pipeline: system-wide awareness, then target identification.

    Stage 2 runs only when the stage-1 alert reaches Warning; suspects are
    the Danger-marked branches plus the top-ranked positive combined scores.
    """
    ind = _indicators(snap, dead_band)
    mldi_values = _mldi(snap, ind)
    smldi_value, alert = smldi(mldi_values, snap.ptdf.eligible, top_n)
    under_attack = alert >= AlertLevel.WARNING
    if not under_attack:
        return DetectionReport(
            branch_ordinals=snap.branch_ordinals,
            mldi=mldi_values,
            smldi=smldi_value,
            stage1_alert=alert,
            under_attack=False,
            stage2=None,
        )

    bori1, bori2, bori_values = bori_all(snap)
    emldi_values = _emldi(snap, ind)
    flow_idx = _levels(bori_values, BORI_THRESHOLDS)
    load_idx = _levels(emldi_values, INDEX_THRESHOLDS)
    combined_idx = _COMBINED_INDEX[flow_idx, load_idx]
    flow_alerts, load_alerts, combined = (
        tuple(_LEVELS[i] for i in idx.tolist())
        for idx in (flow_idx, load_idx, combined_idx)
    )
    cai, rank = cai_ranking(emldi_values, bori_values, snap.branch_ordinals)

    chosen: dict[int, list[str]] = {}
    for k in np.flatnonzero(combined_idx == AlertLevel.DANGER).tolist():
        chosen.setdefault(k, []).append("danger-alert")
    for k in np.flatnonzero((rank <= TOP_SUSPECTS) & (cai > 0)).tolist():
        chosen.setdefault(k, []).append("top-cai")
    suspects = tuple(
        Suspect(
            ordinal=int(snap.branch_ordinals[k]),
            cai=float(cai[k]),
            cai_rank=int(rank[k]),
            alert=combined[k],
            reasons=tuple(reasons),
        )
        for k, reasons in sorted(chosen.items(), key=lambda kv: rank[kv[0]])
    )

    return DetectionReport(
        branch_ordinals=snap.branch_ordinals,
        mldi=mldi_values,
        smldi=smldi_value,
        stage1_alert=alert,
        under_attack=True,
        stage2=Stage2Report(
            bori1=bori1,
            bori2=bori2,
            bori=bori_values,
            flow_alerts=flow_alerts,
            emldi=emldi_values,
            load_alerts=load_alerts,
            combined_alerts=combined,
            cai=cai,
            cai_rank=rank,
            suspects=suspects,
        ),
    )
