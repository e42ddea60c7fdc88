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
from dataclasses import dataclass, field

import numpy as np

from .cases import read_only
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
# Sorted combined scores this close to their neighbour rank as ties: series
# branches carry one flow, and their scores differ by roundoff alone.
CAI_TIE_TOL = 1e-9


class ConfigError(Exception):
    """Unusable configuration: a bad scenario, or no eligible branch to pool."""


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
        names = ("prev_flows", "measured_flows", "sced_flows", "limits",
                 "branch_ordinals", "prev_loads", "measured_loads")
        for name in names:
            size, per = (n, "bus") if name.endswith("loads") else (m, "in-service branch")
            if np.shape(getattr(self, name)) != (size,):
                raise ValueError(f"{name} must have one entry per {per}")
        if not np.isfinite(np.concatenate([getattr(self, name) for name in names])).all():
            bad = next(name for name in names if not np.isfinite(getattr(self, name)).all())
            raise ValueError(f"{bad} has NaN or infinite entries")
        if np.any(self.limits <= 0):
            raise ValueError("all branch limits must be positive")


@dataclass(frozen=True)
class Suspect:
    ordinal: int
    cai: float
    cai_rank: int
    alert: AlertLevel
    reasons: tuple[str, ...]


LEVELS = {"alert_levels": True}   # field metadata: read-only integer AlertLevels


@dataclass(frozen=True)
class Stage2Report:
    bori1: np.ndarray
    bori2: np.ndarray
    bori: np.ndarray
    flow_alerts: np.ndarray = field(metadata=LEVELS)  # per-branch, from BORI
    emldi: np.ndarray
    load_alerts: np.ndarray = field(metadata=LEVELS)  # per-branch, from EMLDI
    combined_alerts: np.ndarray = field(metadata=LEVELS)
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


def _load_direction(snap: Snapshot) -> np.ndarray:
    """+1 / 0 / -1 per bus from the load change relative to the size of the
    previous load, dead-banded.

    Buses with zero previous load carry no evidence and map to 0.
    """
    size = np.abs(np.asarray(snap.prev_loads, dtype=float))
    rel = np.divide(snap.measured_loads - snap.prev_loads, size,
                    out=np.zeros_like(size), where=size > 0)
    band = DEAD_BAND - _BAND_SLOP
    return np.where(rel >= band, 1.0, np.where(rel <= -band, -1.0, 0.0))


def _mldi(snap: Snapshot, direction: np.ndarray) -> np.ndarray:
    """Mean directional consensus of the critical-load changes ``direction``
    (from :func:`_load_direction`), per branch, signed so that positive means
    'loads conspire to shrink this flow'."""
    ptdf = snap.ptdf
    sizes = np.maximum(ptdf.critical_sizes, 1)
    return np.sign(snap.prev_flows) * (ptdf.critical_signs @ direction) / sizes


def _emldi(snap: Snapshot, direction: np.ndarray) -> np.ndarray:
    """Like :func:`_mldi` but weighting each critical load by its share of
    |load change x sensitivity|; zero when no critical load moved at all."""
    ptdf = snap.ptdf
    change = np.abs(snap.measured_loads - snap.prev_loads)
    norm = ptdf.critical_abs @ change
    safe = np.where(norm > 0, norm, 1.0)
    return np.sign(snap.prev_flows) * (ptdf.critical @ (change * direction)) / safe


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
    determinism.  Raises :class:`ConfigError` when nothing is eligible or
    ``top_n`` is below 1.
    """
    if top_n < 1:
        raise ConfigError(f"SMLDI pool size top_n must be at least 1, got {top_n!r}")
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
    """Combined attack score (product) and its deterministic 1-based ranking:
    descending score, where a run of sorted scores whose neighbours lie
    within ``CAI_TIE_TOL`` is a tie, ordered by lower ordinal first."""
    cai = np.asarray(emldi_values) * np.asarray(bori_values)
    order = np.argsort(-cai, kind="stable")
    ranked = cai[order]
    run = np.cumsum(np.diff(ranked, prepend=ranked[:1]) < -CAI_TIE_TOL)
    order = order[np.lexsort((np.asarray(ordinals)[order], run))]
    rank = np.empty(len(cai), dtype=int)
    rank[order] = np.arange(1, len(cai) + 1)
    return cai, rank


def _stage2(snap: Snapshot, direction: np.ndarray) -> Stage2Report:
    """Target identification: per-branch alerts, CAI ranking and suspects."""
    bori1, bori2, bori_values = bori_all(snap)
    emldi_values = _emldi(snap, direction)
    flow = read_only(_levels(bori_values, BORI_THRESHOLDS))
    load = read_only(_levels(emldi_values, INDEX_THRESHOLDS))
    combined = read_only(_COMBINED_INDEX[flow, load])
    cai, rank = cai_ranking(emldi_values, bori_values, snap.branch_ordinals)

    danger, top = combined == AlertLevel.DANGER, (rank <= TOP_SUSPECTS) & (cai > 0)
    picked = np.flatnonzero(danger | top)
    # ranks are unique; "stable" spares the SIMD sort's 0.3 MB of peak RSS
    suspects = tuple(
        Suspect(ordinal=int(snap.branch_ordinals[k]), cai=float(cai[k]),
                cai_rank=int(rank[k]), alert=_LEVELS[combined[k]],
                reasons=("danger-alert",) * bool(danger[k]) + ("top-cai",) * bool(top[k]))
        for k in picked[np.argsort(rank[picked], kind="stable")].tolist()
    )
    return Stage2Report(bori1=bori1, bori2=bori2, bori=bori_values, flow_alerts=flow,
                        emldi=emldi_values, load_alerts=load, combined_alerts=combined,
                        cai=cai, cai_rank=rank, suspects=suspects)


def run_two_stage(snap: Snapshot) -> DetectionReport:
    """Full pipeline: system-wide awareness, then target identification.

    Stage 2 runs only when the stage-1 alert reaches Warning; suspects are
    the Danger-marked branches plus the top-ranked positive combined scores.
    """
    direction = _load_direction(snap)
    mldi_values = _mldi(snap, direction)
    smldi_value, alert = smldi(mldi_values, snap.ptdf.eligible)
    under_attack = alert >= AlertLevel.WARNING
    return DetectionReport(
        branch_ordinals=snap.branch_ordinals,
        mldi=mldi_values,
        smldi=smldi_value,
        stage1_alert=alert,
        under_attack=under_attack,
        stage2=_stage2(snap, direction) if under_attack else None,
    )
