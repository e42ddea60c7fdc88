"""DC weighted-least-squares state estimation and the largest-normalized-
residual bad-data screen.

The measurement set pairs one flow measurement per in-service branch with one
net-injection measurement per bus.  Gross random errors trip the LNR test;
network-consistent tampering does not, which is exactly what the attack
builder exploits and the detector metrics are for.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg

from .cases import Network, kept, per_network, read_only
from .powerflow import topology

LNR_THRESHOLD = 3.0

# A measurement whose residual variance is below this share of its own
# variance is critical: its residual is always zero, so the LNR screen skips it.
CRITICAL_OMEGA = 1e-9
_WLS_CACHE_SIZE = 4   # factor sets kept per network (layout x weights)

FLOW = "flow"
INJECTION = "injection"


class ObservabilityError(Exception):
    """Measurement set cannot determine all non-reference angles."""


@dataclass(frozen=True)
class MeasurementSet:
    """Parallel arrays: kind ('flow'|'injection'), index (in-service branch
    position or bus index), value (p.u.), weight (1/sigma^2) and ``is_flow``,
    built from ``kinds`` unless given (an unknown kind raises ``ValueError``)."""

    kinds: tuple[str, ...]
    indices: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    is_flow: np.ndarray | None = None

    def __post_init__(self):
        if self.is_flow is None:
            for kind in self.kinds:
                if kind not in (FLOW, INJECTION):
                    raise ValueError(f"unknown measurement kind {kind!r}")
            is_flow = np.array([kind == FLOW for kind in self.kinds], dtype=bool)
            object.__setattr__(self, "is_flow", read_only(is_flow))
        sizes = {len(self.kinds), len(self.indices), len(self.values),
                 len(self.weights), len(self.is_flow)}
        if len(sizes) > 1:
            raise ValueError(f"measurement arrays have unequal lengths {sorted(sizes)}")

    def __len__(self):
        return len(self.kinds)

    def with_values(self, values: np.ndarray) -> "MeasurementSet":
        return replace(self, values=np.asarray(values, dtype=float))


@dataclass(frozen=True)
class SeResult:
    angles: np.ndarray            # rad per bus, reference = 0
    residuals: np.ndarray         # z - H x_hat
    weighted_residual_norm: float # J = r' W r
    lnr_value: float              # largest normalized residual, non-critical only
    lnr_index: int | None         # its measurement; None when all are critical
    critical_count: int           # measurements with zero residual variance

    @property
    def bad_data(self) -> bool:
        return self.lnr_value > LNR_THRESHOLD


def build_measurements(
    net: Network,
    flows_pu: np.ndarray,
    loads_mw: np.ndarray,
    gen_mw: np.ndarray,
    noise_sigma: dict | None = None,
    seed=None,
) -> MeasurementSet:
    """One flow measurement per in-service branch plus one net-injection
    measurement per bus (generation minus load, p.u.).

    ``noise_sigma`` maps 'flow'/'injection' to a Gaussian sigma in p.u.;
    zero or missing means noiseless.  Any other key, and a sigma that is not
    a real number (a bool, a string, None), negative or not finite, raises
    ``ValueError``.  Same seed, same set.
    """
    flows_pu = np.asarray(flows_pu, dtype=float)
    loads_mw = np.asarray(loads_mw, dtype=float)
    gen_mw = np.asarray(gen_mw, dtype=float)
    m, n = net.branch_ordinals.size, net.n_bus
    for what, given, size in (("branch flows", flows_pu, m), ("bus loads", loads_mw, n),
                              ("bus generation entries", gen_mw, n)):
        if given.shape != (size,):
            raise ValueError(f"expected {size} {what}, got {given.shape}")
    inj_pu = (gen_mw - loads_mw) / net.base_mva

    sigma = {FLOW: 0.0, INJECTION: 0.0}
    for kind, value in (noise_sigma or {}).items():
        if (kind not in sigma or isinstance(value, bool)
                or not isinstance(value, numbers.Real) or not 0.0 <= value < np.inf):
            raise ValueError(f"noise_sigma[{kind!r}] = {value!r}: expected {FLOW!r}"
                             f" or {INJECTION!r} with a finite real sigma >= 0")
        sigma[kind] = value

    indices, is_flow = _layout(net)
    values = np.concatenate([flows_pu, inj_pu])
    noise_scale = np.where(is_flow, sigma[FLOW], sigma[INJECTION])
    if np.any(noise_scale > 0):
        rng = np.random.default_rng(seed)
        values = values + rng.standard_normal(len(values)) * noise_scale
    weights = np.where(is_flow, _weight(sigma[FLOW]), _weight(sigma[INJECTION]))
    return MeasurementSet((FLOW,) * m + (INJECTION,) * n, indices, values, weights, is_flow)


def _weight(sigma: float) -> float:
    return 1.0 / sigma**2 if sigma > 0 else 1.0


@per_network("measurement_layout")
def _layout(net: Network) -> tuple:
    """Indices and flow mask shared by the network's full sets."""
    m, n = net.branch_ordinals.size, net.n_bus
    return np.concatenate([np.arange(m), np.arange(n)]), np.repeat([True, False], [m, n])


def measurement_matrix(meas: MeasurementSet, net: Network) -> np.ndarray:
    """Dense H over all bus angles (the reference column is dropped when
    estimating): flow rows of Bf, injection rows of B = A'Bf."""
    topo = topology(net)
    m, n = topo.bf.shape
    is_flow, idx = meas.is_flow, np.asarray(meas.indices)
    if np.any((idx < 0) | (idx >= np.where(is_flow, m, n))):
        raise ValueError("measurement index outside the network")
    return np.vstack([topo.bf, topo.b])[np.where(is_flow, idx, m + idx)]


def _wls_factors(meas: MeasurementSet, net: Network):
    """H without the reference column, the gain G^-1 H'W (x_hat = gain @ z),
    and the residual standard deviations at the positions of the non-critical
    measurements, for this measurement layout and weight set.  Kept in the
    network's ``wls`` store of at most ``_WLS_CACHE_SIZE``; an unobservable
    set raises and is never kept."""
    weights = np.asarray(meas.weights, dtype=float)
    key = (meas.is_flow.tobytes(), np.asarray(meas.indices, dtype=np.int64).tobytes(),
           weights.tobytes())

    def build():
        keep = topology(net).keep
        h = measurement_matrix(meas, net)[:, keep]
        hw = (h * weights[:, None]).T
        try:
            cho = linalg.cho_factor(hw @ h)
        except linalg.LinAlgError:
            raise ObservabilityError(
                f"measurement set rank {np.linalg.matrix_rank(h)} < {len(keep)}"
            )
        # Residual covariance: Omega = W^-1 - H G^-1 H'.
        hg = linalg.cho_solve(cho, h.T)       # G^-1 H'
        omega = 1.0 / weights - np.einsum("ij,ji->i", h, hg)
        noncritical = np.flatnonzero(omega > CRITICAL_OMEGA / weights)
        return h, hg * weights[None, :], np.sqrt(omega[noncritical]), noncritical
    return kept(net, "wls", _WLS_CACHE_SIZE, key, build)


def wls_estimate(meas: MeasurementSet, net: Network) -> SeResult:
    """Weighted least squares with theta_ref = 0; residual covariance feeds
    the largest-normalized-residual statistic, over non-critical measurements
    only."""
    h, gain, sqrt_omega, noncritical = _wls_factors(meas, net)
    z = meas.values
    x = gain @ z

    angles = np.zeros(net.n_bus)
    angles[topology(net).keep] = x
    residuals = z - h @ x
    j_value = float(residuals @ (meas.weights * residuals))

    lnr_value, lnr_index = 0.0, None
    if len(noncritical):
        normalized = np.abs(residuals[noncritical]) / sqrt_omega
        best = int(np.argmax(normalized))
        lnr_value, lnr_index = float(normalized[best]), int(noncritical[best])
    return SeResult(
        angles=angles,
        residuals=residuals,
        weighted_residual_norm=j_value,
        lnr_value=lnr_value,
        lnr_index=lnr_index,
        critical_count=len(residuals) - len(noncritical),
    )


def estimated_flows(net: Network, angles: np.ndarray) -> np.ndarray:
    """Branch flows implied by estimated angles."""
    return topology(net).bf @ np.asarray(angles)
