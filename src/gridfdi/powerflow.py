"""DC (B-theta) power flow, PTDF sensitivities and critical-load-bus sets."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve

from .cases import CaseError, Network, per_network, read_only

# A load bus belongs to a branch's critical set when the magnitude of its
# transfer sensitivity reaches this threshold.
CRITICAL_PTDF = 0.01

# Branches with fewer critical load buses than this are excluded from the
# system-wide deviation metric.
MIN_CRITICAL_SET = 5

BALANCE_TOL = 1e-9

# Smallest accepted ratio of the smallest to the largest LU pivot magnitude
# of reduced B.  Below it the angle solve keeps fewer digits than the LP and
# audit tolerances (1e-7) assume; case118 sits at 8.0e-3.
MIN_PIVOT_RATIO = 1e-10


class NumericError(CaseError):
    """The case's system matrix is singular or numerically unusable."""


@dataclass(frozen=True)
class DcSolution:
    angles: np.ndarray   # rad per bus, reference fixed at 0
    flows: np.ndarray    # p.u. per in-service branch


@dataclass(frozen=True)
class Ptdf:
    """Branch x bus transfer sensitivities for one network topology.

    ``matrix[k, n]`` is the change of flow on in-service branch position k
    per 1 p.u. injected at bus n and withdrawn at the reference bus; the
    reference column is identically zero.
    """

    matrix: np.ndarray
    critical_mask: np.ndarray   # branch x bus: the load buses of each critical set

    @property
    def n_branches(self):
        return self.matrix.shape[0]

    @cached_property
    def critical_sizes(self) -> np.ndarray:
        """Critical load buses per branch (read-only)."""
        return read_only(self.critical_mask.sum(axis=1))

    @cached_property
    def eligible(self) -> np.ndarray:
        """Per branch: critical set of at least MIN_CRITICAL_SET (read-only)."""
        return read_only(self.critical_sizes >= MIN_CRITICAL_SET)

    @cached_property
    def critical(self) -> np.ndarray:
        """The PTDF inside each critical set, zero outside it (read-only)."""
        return read_only(np.where(self.critical_mask, self.matrix, 0.0))

    @cached_property
    def critical_signs(self) -> np.ndarray:
        """Sign of :attr:`critical`: +-1 inside each critical set (read-only)."""
        return read_only(np.sign(self.critical))

    @cached_property
    def critical_abs(self) -> sparse.csr_array:
        """Magnitude of :attr:`critical` as CSR (read-only): a product with it
        sums each row's nonzeros in bus order, one after another."""
        mask, shape = self.critical_mask, self.matrix.shape
        cols = np.broadcast_to(np.arange(shape[1]), shape)[mask]
        indptr = np.append(0, np.cumsum(self.critical_sizes))
        return read_only(sparse.csr_array((np.abs(self.matrix[mask]), cols, indptr), shape=shape))


@dataclass(frozen=True)
class Topology:
    """DC operators of one network, built once per :class:`Network` instance
    by :func:`topology`.  Branch rows follow ``net.branch_ordinals``;
    arrays are read-only."""

    incidence: np.ndarray  # A, branch x bus: +1 at the from bus, -1 at the to bus
    bf: np.ndarray         # diag(1/x) A: flows = bf @ angles
    b: np.ndarray          # A' bf: net injections = b @ angles
    keep: np.ndarray       # non-reference bus indices
    factor: tuple          # LU factor of b[keep, keep]


@per_network("topology")
def topology(net: Network) -> Topology:
    """The network's cached DC operators; the first call builds them."""
    rows = np.arange(net.branch_ordinals.size)
    a = np.zeros((rows.size, net.n_bus))
    a[rows, net.from_bus] = 1.0
    a[rows, net.to_bus] -= 1.0      # a self-loop row cancels to zero
    bf = a / net.reactance[:, None]
    b = a.T @ bf
    keep = np.array([i for i in range(net.n_bus) if i != net.reference_bus])
    try:
        factor = lu_factor(b[np.ix_(keep, keep)])
    except Exception as exc:  # pragma: no cover - connected nets never hit this
        raise NumericError(f"reduced susceptance matrix not factorizable: {exc}")
    if not np.all(np.isfinite(factor[0])):
        raise NumericError("reduced susceptance matrix is singular")
    pivots = np.abs(np.diag(factor[0]))
    if pivots.min() <= MIN_PIVOT_RATIO * pivots.max():
        raise NumericError(
            "reduced susceptance matrix is numerically singular: pivot ratio"
            f" {pivots.min() / pivots.max():.1e} <= {MIN_PIVOT_RATIO:.0e}"
        )
    return Topology(incidence=a, bf=bf, b=b, keep=keep, factor=factor)


def solve_dc(net: Network, injections: np.ndarray) -> DcSolution:
    """Solve B*theta = injection with theta_ref = 0 (all quantities p.u.).

    The injection vector must be balanced; imbalances are the caller's job
    (conventionally absorbed at the reference bus).
    """
    injections = np.asarray(injections, dtype=float)
    if injections.shape != (net.n_bus,):
        raise ValueError(f"expected {net.n_bus} injections, got {injections.shape}")
    total = float(injections.sum())
    if abs(total) > max(BALANCE_TOL, 1e-12 * np.abs(injections).sum()):
        raise ValueError(f"injections are unbalanced by {total:.3e} p.u.")

    topo = topology(net)
    angles = np.zeros(net.n_bus)
    angles[topo.keep] = lu_solve(topo.factor, injections[topo.keep])
    return DcSolution(angles=angles, flows=topo.bf @ angles)


@per_network("ptdf")
def compute_ptdf(net: Network) -> Ptdf:
    """The network's cached transfer sensitivities of every in-service branch
    to every bus; the first call builds them, later calls return the same
    read-only :class:`Ptdf`.

    The build reuses the topology's LU factor of reduced B for all columns.
    The critical mask marks the load buses whose absolute sensitivity reaches
    ``CRITICAL_PTDF``.
    """
    topo = topology(net)
    keep = topo.keep
    # Response of non-reference angles to a unit injection at each kept bus.
    theta = lu_solve(topo.factor, np.eye(len(keep)))
    matrix = np.zeros((topo.bf.shape[0], net.n_bus))
    matrix[:, keep] = topo.bf[:, keep] @ theta

    critical = (np.abs(matrix) >= CRITICAL_PTDF) & net.load_bus_mask
    return Ptdf(matrix=matrix, critical_mask=critical)
