"""MATPOWER-style case parsing and the validated network model.

A case file is a MATLAB-flavoured text file assigning matrices to
``mpc.bus``, ``mpc.branch``, ``mpc.gen``, ``mpc.gencost`` and the scalar
``mpc.baseMVA``.  Parsing keeps every numeric entry in file order; validation
turns the raw rows into a :class:`Network` of read-only per-bus and
per-branch arrays, with contiguous internal indices, applied branch outages,
finite entries and a connectivity check.

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

# The columns (0-based) the model reads, by their MATPOWER names.
_COLUMNS = {
    "bus": {"bus_i": 0, "type": 1, "Pd": 2},
    "branch": {"fbus": 0, "tbus": 1, "x": 3, "rateA": 5, "status": 10},
    "gen": {"bus": 0, "status": 7, "Pmax": 8, "Pmin": 9},
}
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
class Generator:
    bus: int                 # internal bus index
    p_min: float             # MW
    p_max: float             # MW
    linear_cost: float       # $/MWh


@dataclass(frozen=True, eq=False)
class Network:
    """Validated network model, its arrays read-only, so it is safe to share
    across workers; equal only to itself.  Operators derived from it are
    built on first use and kept on the instance, so an outage case (a new
    instance) starts without them."""

    base_mva: float
    bus_ids: np.ndarray          # external id per bus; internal index = position
    load_mw: np.ndarray          # MW per bus
    # Per in-service branch, in file order; all branch-indexed vectors
    # (flows, limits, PTDF rows) follow this ordering.
    branch_ordinals: np.ndarray  # 1-based row position in the case file
    from_bus: np.ndarray         # internal bus index
    to_bus: np.ndarray
    reactance: np.ndarray        # p.u.
    limits_pu: np.ndarray        # thermal limit, p.u.
    generators: tuple[Generator, ...]
    reference_bus: int

    def __post_init__(self):
        read_only(self)

    @property
    def n_bus(self):
        return self.bus_ids.size

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
    def _positions(self) -> MappingProxyType:
        return MappingProxyType(
            dict(zip(self.branch_ordinals.tolist(), range(self.branch_ordinals.size))))

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
    blocks = {"bus": raw.bus_rows, "branch": raw.branch_rows, "gen": raw.gen_rows}
    for name, rows in blocks.items():
        need = _MIN_COLS[name]
        for r, row in enumerate(rows):
            if len(row) < need:
                raise StructureError(
                    f"mpc.{name} row {r + 1} has {len(row)} columns, need >= {need}"
                )
    bus, branch, gen = (_finite_columns(name, rows) for name, rows in blocks.items())

    bus_ids = bus["bus_i"].astype(int)
    ids = bus_ids.tolist()
    index = dict(zip(ids, range(len(ids))))
    if len(index) != len(ids):
        raise StructureError(f"duplicate bus ids: {sorted({e for e in ids if ids.count(e) > 1})}")

    def internal(ext):
        """The internal index per external bus id, -1 for an unknown one."""
        return np.array([index.get(e, -1) for e in ext.astype(int).tolist()], dtype=int)

    n_branch = len(raw.branch_rows)
    # in input order: entries that are not numbers (say "71") do not sort
    bad = [k for k in outaged_branches
           if isinstance(k, bool) or k not in range(1, n_branch + 1)]
    if bad:
        raise DataError(f"outage ordinals out of range 1..{n_branch}: {bad}")
    live = branch["status"] > 0
    live[[int(k) - 1 for k in outaged_branches]] = False

    # per row, in file order: an unknown bus (any row), then zero reactance,
    # then a nonpositive rating (in-service rows only)
    f, t = internal(branch["fbus"]), internal(branch["tbus"])
    x, rate = branch["x"], branch["rateA"]
    faults = np.column_stack([(f < 0) | (t < 0), live & (x == 0.0), live & (rate <= 0.0)])
    if faults.any():
        i, kind = np.argwhere(faults)[0]
        raise (StructureError(f"branch {i + 1} references unknown bus"),
               DataError(f"branch {i + 1} has zero reactance"),
               DataError(f"branch {i + 1} has nonpositive limit {float(rate[i])}"))[kind]
    keep = np.flatnonzero(live)

    gen_bus = internal(gen["bus"])
    ncost = len(raw.gencost_rows)
    generators = []
    for g in np.flatnonzero(gen["status"] > 0).tolist():
        if gen_bus[g] < 0:
            raise StructureError(
                f"generator {g + 1} references unknown bus {int(gen['bus'][g])}")
        cost = _linear_cost(raw.gencost_rows[g]) if g < ncost else 0.0
        if not np.isfinite(cost):
            raise DataError(f"mpc.gencost row {g + 1}: c1 is {cost}, not a finite number")
        generators.append(Generator(bus=int(gen_bus[g]), p_min=float(gen["Pmin"][g]),
                                    p_max=float(gen["Pmax"][g]), linear_cost=cost))

    # Reference bus: the case's slack-type bus, else lowest-numbered gen bus.
    slack = np.flatnonzero(bus["type"].astype(int) == _REF_BUS_TYPE)
    if slack.size:
        ref = int(slack[0])
    elif not generators:
        raise StructureError("no slack bus and no in-service generator")
    else:
        ref = min((g.bus for g in generators), key=lambda b: bus_ids[b])

    _check_connected(bus_ids.size, f[keep], t[keep])

    return Network(
        base_mva=raw.base_mva,
        bus_ids=bus_ids,
        load_mw=bus["Pd"],
        branch_ordinals=keep + 1,
        from_bus=f[keep],
        to_bus=t[keep],
        reactance=x[keep],
        limits_pu=rate[keep] / raw.base_mva,
        generators=tuple(generators),
        reference_bus=ref,
    )


def _finite_columns(name: str, rows: list[list[float]]) -> dict:
    """The columns of ``mpc.NAME`` the model reads, by name, each an array
    of its own; a non-finite entry in one of them raises, the first one in
    row order named."""
    columns = _COLUMNS[name]
    table = np.array([[row[k] for k in columns.values()] for row in rows],
                     dtype=float).reshape(len(rows), len(columns))
    bad = ~np.isfinite(table)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataError(f"mpc.{name} row {r + 1}: {list(columns)[c]} is {table[r, c]},"
                        " not a finite number")
    return {key: table[:, k].copy() for k, key in enumerate(columns)}


def _check_connected(n_bus: int, from_bus: np.ndarray, to_bus: np.ndarray) -> None:
    if n_bus == 0:
        raise StructureError("case has no buses")
    adj = sparse.coo_matrix(
        (np.ones(from_bus.size), (from_bus, to_bus)), shape=(n_bus, n_bus)
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

