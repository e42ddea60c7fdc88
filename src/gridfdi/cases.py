"""MATPOWER-style case parsing and the validated network model.

A case file is a MATLAB-flavoured text file assigning matrices to
``mpc.bus``, ``mpc.branch``, ``mpc.gen``, ``mpc.gencost`` and the scalar
``mpc.baseMVA``.  Parsing keeps every numeric entry in file order; validation
turns the raw rows into an immutable :class:`Network` with contiguous internal
indices, applied branch outages and a connectivity check.

Branch ordinals used throughout the toolkit (CLI ``--target``, ``--outage``,
reports) are 1-based row positions in the case file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


class CaseError(Exception):
    """Base class for case file problems."""


class ParseError(CaseError):
    """Malformed matrix block; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class StructureError(CaseError):
    """Missing block, duplicate ids or otherwise unusable case structure."""


class DataError(CaseError):
    """Physically invalid entry (zero reactance, nonpositive limit, ...)."""


class IslandError(CaseError):
    """The in-service subgraph is not a single connected island."""


# Minimum column counts for the MATPOWER layouts we rely on.
_MIN_COLS = {"bus": 13, "branch": 13, "gen": 10, "gencost": 4}

# Column positions (0-based) in the standard tables.
_BUS_ID, _BUS_TYPE, _BUS_PD = 0, 1, 2
_BR_FROM, _BR_TO, _BR_X, _BR_RATE_A, _BR_STATUS = 0, 1, 3, 5, 10
_GEN_BUS, _GEN_PG, _GEN_STATUS, _GEN_PMAX, _GEN_PMIN = 0, 1, 7, 8, 9

_REF_BUS_TYPE = 3


@dataclass(frozen=True)
class RawCase:
    """Numeric case content exactly as read from the file."""

    base_mva: float
    bus_rows: list[list[float]]
    branch_rows: list[list[float]]
    gen_rows: list[list[float]]
    gencost_rows: list[list[float]]


@dataclass(frozen=True)
class Bus:
    external_id: int
    internal_index: int
    is_load_bus: bool
    load_mw: float


@dataclass(frozen=True)
class Branch:
    internal_index: int      # 0-based file position; ordinal = internal_index + 1
    from_bus: int            # internal bus index
    to_bus: int
    reactance: float         # p.u.
    limit_mw: float
    in_service: bool

    @property
    def ordinal(self):
        return self.internal_index + 1


@dataclass(frozen=True)
class Generator:
    bus: int                 # internal bus index
    p_min: float             # MW
    p_max: float             # MW
    linear_cost: float       # $/MWh


@dataclass(frozen=True)
class Network:
    """Validated, immutable network model; safe to share across workers.
    Operators derived from it are built on first use and kept on the
    instance, so an outage case (a new instance) starts without them."""

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    reference_bus: int
    _active: tuple[int, ...] = field(repr=False, default=())

    @property
    def n_bus(self):
        return len(self.buses)

    @cached_property
    def in_service_branches(self) -> tuple[Branch, ...]:
        """In-service branches in file order; all branch-indexed vectors
        (flows, limits, PTDF rows) follow this ordering."""
        return tuple(self.branches[i] for i in self._active)

    @cached_property
    def operators(self) -> dict:
        """Per-topology operators derived from this network, each built on
        first use: ``"topology"`` and ``"ptdf"`` (powerflow), ``"wls"``
        (estimation) and ``"base_dispatch"`` (harness)."""
        return {}

    @property
    def load_mw(self) -> np.ndarray:
        return np.array([b.load_mw for b in self.buses])

    @property
    def load_buses(self) -> np.ndarray:
        return np.array([b.internal_index for b in self.buses if b.is_load_bus])

    def branch_position(self, ordinal: int) -> int:
        """Position of a 1-based file ordinal inside the in-service vector."""
        for pos, i in enumerate(self._active):
            if i == ordinal - 1:
                return pos
        raise DataError(f"branch {ordinal} is not in service")

    def limits_pu(self) -> np.ndarray:
        return np.array([b.limit_mw for b in self.in_service_branches]) / self.base_mva


_BLOCK_RE = re.compile(r"^\s*mpc\.(\w+)\s*=\s*(.*)$")


def _strip_comment(line: str) -> str:
    pos = line.find("%")
    return line if pos < 0 else line[:pos]


def parse_matpower(text: str) -> RawCase:
    """Parse MATPOWER-style case text into raw numeric rows.

    Tolerates comments (``%``), blank lines and arbitrary whitespace.  Rows
    end at ``;`` or end-of-line; a block ends at ``];``.  Every row inside a
    matrix block must have the same width.

    Raises :class:`ParseError` (with line number) for ragged or non-numeric
    rows and unterminated blocks, :class:`StructureError` when a required
    block is absent and :class:`DataError` for a nonpositive baseMVA.
    """
    blocks: dict[str, list[list[float]]] = {}
    scalars: dict[str, float] = {}

    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = _strip_comment(lines[i])
        m = _BLOCK_RE.match(line)
        if m is None:
            i += 1
            continue
        name, rest = m.group(1), m.group(2).strip()
        if not rest.startswith("["):
            # Scalar assignment, e.g. "mpc.baseMVA = 100;"
            value = rest.rstrip(";").strip().strip("'\"")
            try:
                scalars[name] = float(value)
            except ValueError:
                pass  # version strings and other non-numeric scalars
            i += 1
            continue

        rows: list[list[float]] = []
        width = None
        body = rest[1:]
        start_line = i
        closed = False
        while True:
            # Each physical line may carry several ';'-terminated rows.
            segment = body.strip()
            if "]" in segment:
                segment, _, _ = segment.partition("]")
                closed = True
            for chunk in segment.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                try:
                    row = [float(tok) for tok in chunk.split()]
                except ValueError:
                    raise ParseError(f"non-numeric entry in mpc.{name}", line=i + 1)
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise ParseError(
                        f"ragged row in mpc.{name}: expected {width} columns,"
                        f" found {len(row)}",
                        line=i + 1,
                    )
                rows.append(row)
            if closed:
                break
            i += 1
            if i >= len(lines):
                raise ParseError(f"unterminated mpc.{name} block", line=start_line + 1)
            body = _strip_comment(lines[i])
        blocks[name] = rows
        i += 1

    for required in ("bus", "branch", "gen"):
        if required not in blocks:
            raise StructureError(f"case has no mpc.{required} block")
    if "baseMVA" not in scalars:
        raise StructureError("case has no mpc.baseMVA")
    base_mva = scalars["baseMVA"]
    if base_mva <= 0:
        raise DataError(f"baseMVA must be positive, got {base_mva}")

    return RawCase(
        base_mva=base_mva,
        bus_rows=blocks["bus"],
        branch_rows=blocks["branch"],
        gen_rows=blocks["gen"],
        gencost_rows=blocks.get("gencost", []),
    )


def _linear_cost(row: list[float]) -> float:
    """First-order coefficient of a MATPOWER gencost row (model 2)."""
    model, ncost = int(row[0]), int(row[3])
    if model != 2:
        raise DataError(f"only polynomial gencost (model 2) supported, got {model}")
    if ncost < 2:
        return 0.0
    coeffs = row[4 : 4 + ncost]
    return float(coeffs[-2])


def validate_case(raw: RawCase, outaged_branches: tuple[int, ...] = ()) -> Network:
    """Build a :class:`Network` from raw rows, applying branch outages.

    ``outaged_branches`` are 1-based file ordinals.  Deterministic: internal
    bus indices follow bus-row order, branch indices follow branch-row order.
    """
    for name, rows in (
        ("bus", raw.bus_rows),
        ("branch", raw.branch_rows),
        ("gen", raw.gen_rows),
    ):
        need = _MIN_COLS[name]
        for r, row in enumerate(rows):
            if len(row) < need:
                raise StructureError(
                    f"mpc.{name} row {r + 1} has {len(row)} columns, need >= {need}"
                )

    ext_ids = [int(row[_BUS_ID]) for row in raw.bus_rows]
    if len(set(ext_ids)) != len(ext_ids):
        dupes = sorted({e for e in ext_ids if ext_ids.count(e) > 1})
        raise StructureError(f"duplicate bus ids: {dupes}")
    ext_to_int = {e: i for i, e in enumerate(ext_ids)}

    buses = tuple(
        Bus(
            external_id=int(row[_BUS_ID]),
            internal_index=i,
            is_load_bus=row[_BUS_PD] > 0,
            load_mw=float(row[_BUS_PD]),
        )
        for i, row in enumerate(raw.bus_rows)
    )

    n_branch = len(raw.branch_rows)
    outages = set(outaged_branches)
    bad = [k for k in outages if not 1 <= k <= n_branch]
    if bad:
        raise DataError(f"outage ordinals out of range 1..{n_branch}: {sorted(bad)}")

    branches = []
    for i, row in enumerate(raw.branch_rows):
        f_ext, t_ext = int(row[_BR_FROM]), int(row[_BR_TO])
        if f_ext not in ext_to_int or t_ext not in ext_to_int:
            raise StructureError(f"branch {i + 1} references unknown bus")
        in_service = row[_BR_STATUS] > 0 and (i + 1) not in outages
        x = float(row[_BR_X])
        limit = float(row[_BR_RATE_A])
        if in_service:
            if x == 0.0:
                raise DataError(f"branch {i + 1} has zero reactance")
            if limit <= 0.0:
                raise DataError(f"branch {i + 1} has nonpositive limit {limit}")
        branches.append(
            Branch(
                internal_index=i,
                from_bus=ext_to_int[f_ext],
                to_bus=ext_to_int[t_ext],
                reactance=x,
                limit_mw=limit,
                in_service=in_service,
            )
        )

    ncost = len(raw.gencost_rows)
    generators = []
    for g, row in enumerate(raw.gen_rows):
        if row[_GEN_STATUS] <= 0:
            continue
        bus_ext = int(row[_GEN_BUS])
        if bus_ext not in ext_to_int:
            raise StructureError(f"generator {g + 1} references unknown bus {bus_ext}")
        cost = _linear_cost(raw.gencost_rows[g]) if g < ncost else 0.0
        generators.append(
            Generator(
                bus=ext_to_int[bus_ext],
                p_min=float(row[_GEN_PMIN]),
                p_max=float(row[_GEN_PMAX]),
                linear_cost=cost,
            )
        )

    # Reference bus: the case's slack-type bus, else lowest-numbered gen bus.
    ref = None
    for row in raw.bus_rows:
        if int(row[_BUS_TYPE]) == _REF_BUS_TYPE:
            ref = ext_to_int[int(row[_BUS_ID])]
            break
    if ref is None:
        if not generators:
            raise StructureError("no slack bus and no in-service generator")
        ref = min(
            (g.bus for g in generators),
            key=lambda b: buses[b].external_id,
        )

    active = tuple(b.internal_index for b in branches if b.in_service)
    _check_connected(len(buses), [branches[i] for i in active])

    return Network(
        base_mva=raw.base_mva,
        buses=buses,
        branches=tuple(branches),
        generators=tuple(generators),
        reference_bus=ref,
        _active=active,
    )


def _check_connected(n_bus: int, active_branches) -> None:
    if n_bus == 0:
        raise StructureError("case has no buses")
    rows = [b.from_bus for b in active_branches]
    cols = [b.to_bus for b in active_branches]
    adj = coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n_bus, n_bus)
    )
    n_comp, labels = connected_components(adj, directed=False)
    if n_comp != 1:
        sizes = np.bincount(labels)
        raise IslandError(
            f"in-service network splits into {n_comp} islands"
            f" (sizes {sorted(sizes.tolist(), reverse=True)})"
        )


def load_case(path, outages: tuple[int, ...] = ()) -> Network:
    """Read a case file and validate it in one step."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_matpower(fh.read())
    return validate_case(raw, tuple(outages))

