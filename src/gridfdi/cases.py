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
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, wraps
from types import MappingProxyType

import numpy as np
from scipy import sparse
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
    load_mw: float


@dataclass(frozen=True)
class Branch:
    ordinal: int             # 1-based row position in the case file
    from_bus: int            # internal bus index
    to_bus: int
    reactance: float         # p.u.
    limit_mw: float


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
    buses: tuple[Bus, ...]   # internal bus index = position
    # In-service branches in file order; all branch-indexed vectors (flows,
    # limits, PTDF rows) follow this ordering.
    in_service_branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    reference_bus: int

    @property
    def n_bus(self):
        return len(self.buses)

    @cached_property
    def operators(self) -> dict:
        """Per-topology operators derived from this network, by name; each
        is built on first use by a :func:`per_network` builder, or is a
        bounded store of :func:`kept` entries."""
        return {}

    @cached_property
    def load_bus_mask(self) -> np.ndarray:
        """Per bus: whether it carries load (read-only)."""
        return read_only(self.load_mw > 0)

    @cached_property
    def limits_pu(self) -> np.ndarray:
        """Thermal limit per in-service branch, p.u. (read-only)."""
        return read_only(
            np.array([b.limit_mw for b in self.in_service_branches]) / self.base_mva)

    @cached_property
    def branch_ordinals(self) -> np.ndarray:
        """The 1-based file ordinal per in-service branch (read-only)."""
        return read_only(np.array([b.ordinal for b in self.in_service_branches]))

    @property
    def load_mw(self) -> np.ndarray:
        return np.array([b.load_mw for b in self.buses])

    @cached_property
    def _positions(self) -> MappingProxyType:
        return MappingProxyType(
            {br.ordinal: pos for pos, br in enumerate(self.in_service_branches)})

    def branch_position(self, ordinal: int) -> int:
        """Position of a 1-based file ordinal inside the in-service vector.
        A bool is refused: True hashes as 1, so it would find branch 1."""
        if isinstance(ordinal, (bool, np.bool_)):
            raise DataError(f"branch ordinal {ordinal!r} is a bool, not an integer")
        try:
            return self._positions[ordinal]
        except KeyError:
            raise DataError(f"branch {ordinal} is not in service") from None


def read_only(value):
    """Mark every array in ``value`` read-only and return ``value``: a bare
    array, the arrays in a tuple or in dataclass fields (recursively) and the
    ``data``/``indices``/``indptr`` of a sparse matrix."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif sparse.issparse(value):
        read_only((value.data, value.indices, value.indptr))
    elif isinstance(value, tuple):
        for item in value:
            read_only(item)
    elif is_dataclass(value):
        for f in fields(value):
            read_only(getattr(value, f.name))
    return value


def per_network(name: str):
    """Decorator for a builder ``build(net)`` of a per-topology operator: the
    build runs once per :class:`Network` instance and its result, made
    :func:`read_only`, is kept in ``net.operators[name]`` and returned by
    every later call.  A build that raises stores nothing."""
    def decorate(build):
        @wraps(build)
        def get(net: Network):
            ops = net.operators
            if name not in ops:
                ops[name] = read_only(build(net))
            return ops[name]
        return get
    return decorate


def kept(net: Network, name: str, cap: int, key, build):
    """``build()`` for ``key``, made :func:`read_only` and kept in the store
    ``net.operators[name]``, which holds at most ``cap`` entries and evicts
    the least recently used first.  A build that raises stores nothing."""
    store = net.operators.get(name)
    if store is None:
        store = net.operators[name] = OrderedDict()
    if key in store:
        store.move_to_end(key)
        return store[key]
    value = store[key] = read_only(build())
    while len(store) > cap:
        store.popitem(last=False)
    return value


# One ``mpc.NAME = ...`` assignment at the start of a line of comment-free
# text: a matrix block, whose body runs to the first ``]`` (to the end of the
# text when there is none), or else a scalar that runs to the end of the
# line.  Outside a block body, whitespace never crosses a newline.
_ASSIGN_RE = re.compile(
    r"^[^\S\n]*mpc\.(\w+)[^\S\n]*=[^\S\n]*(?:\[([^\]]*)(\]?)|(.*))", re.MULTILINE)
_COMMENT_RE = re.compile(r"%[^\n]*")


def parse_matpower(text: str) -> RawCase:
    """Parse MATPOWER-style case text into raw numeric rows.

    Tolerates comments (``%``), blank lines and arbitrary whitespace.  Rows
    end at ``;`` or end-of-line; a block ends at ``]``, and the rest of that
    line is ignored.  Every row inside a matrix block must have the same
    width.

    Raises :class:`ParseError` (with line number) for ragged or non-numeric
    rows and unterminated blocks, :class:`StructureError` when a required
    block is absent and :class:`DataError` for a nonpositive baseMVA.
    """
    blocks: dict[str, list[list[float]]] = {}
    scalars: dict[str, float] = {}

    # Every line break str.splitlines knows becomes "\n", which the pattern
    # and the line numbers count; a comment runs to the end of its line.
    text = _COMMENT_RE.sub("", "\n".join(text.splitlines()))
    for m in _ASSIGN_RE.finditer(text):
        name, body, closed, scalar = m.groups()
        if body is None:
            # e.g. "mpc.baseMVA = 100;"
            value = scalar.strip().rstrip(";").strip().strip("'\"")
            try:
                scalars[name] = float(value)
            except ValueError:
                pass  # version strings and other non-numeric scalars
            continue

        first_line = text.count("\n", 0, m.start()) + 1
        rows: list[list[float]] = []
        for k, line in enumerate(body.split("\n")):
            # Each physical line may carry several ';'-terminated rows.
            for chunk in line.split(";"):
                tokens = chunk.split()
                if not tokens:
                    continue
                try:
                    row = list(map(float, tokens))
                except ValueError:
                    raise ParseError(f"non-numeric entry in mpc.{name}",
                                     line=first_line + k)
                if rows and len(row) != len(rows[0]):
                    raise ParseError(
                        f"ragged row in mpc.{name}: expected {len(rows[0])} columns,"
                        f" found {len(row)}",
                        line=first_line + k,
                    )
                rows.append(row)
        if not closed:
            raise ParseError(f"unterminated mpc.{name} block", line=first_line)
        blocks[name] = rows

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
    bus indices follow bus-row order, and the in-service branches keep
    branch-row order.  Every branch row's buses are checked, in service or not.
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
        Bus(external_id=int(row[_BUS_ID]), load_mw=float(row[_BUS_PD]))
        for row in raw.bus_rows
    )

    n_branch = len(raw.branch_rows)
    # in input order: entries that are not numbers (say "71") do not sort
    bad = [k for k in outaged_branches
           if isinstance(k, bool) or k not in range(1, n_branch + 1)]
    if bad:
        raise DataError(f"outage ordinals out of range 1..{n_branch}: {bad}")
    outages = set(outaged_branches)

    branches = []
    for i, row in enumerate(raw.branch_rows):
        f_ext, t_ext = int(row[_BR_FROM]), int(row[_BR_TO])
        if f_ext not in ext_to_int or t_ext not in ext_to_int:
            raise StructureError(f"branch {i + 1} references unknown bus")
        if row[_BR_STATUS] <= 0 or (i + 1) in outages:
            continue
        x = float(row[_BR_X])
        limit = float(row[_BR_RATE_A])
        if x == 0.0:
            raise DataError(f"branch {i + 1} has zero reactance")
        if limit <= 0.0:
            raise DataError(f"branch {i + 1} has nonpositive limit {limit}")
        branches.append(
            Branch(
                ordinal=i + 1,
                from_bus=ext_to_int[f_ext],
                to_bus=ext_to_int[t_ext],
                reactance=x,
                limit_mw=limit,
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

    _check_connected(len(buses), branches)

    return Network(
        base_mva=raw.base_mva,
        buses=buses,
        in_service_branches=tuple(branches),
        generators=tuple(generators),
        reference_bus=ref,
    )


def _check_connected(n_bus: int, branches) -> None:
    if n_bus == 0:
        raise StructureError("case has no buses")
    rows = [b.from_bus for b in branches]
    cols = [b.to_bus for b in branches]
    adj = sparse.coo_matrix(
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

