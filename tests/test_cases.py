import re
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import sparse

from gridfdi.cases import (
    DataError,
    IslandError,
    Network,
    ParseError,
    StructureError,
    kept,
    load_case,
    parse_matpower,
    per_network,
    validate_case,
)
from gridfdi.powerflow import compute_ptdf, topology
from gridfdi.sced import base_dispatch

TRIANGLE = """\
function mpc = case3
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t138\t1\t1.06\t0.94;
\t2\t1\t50\t10\t0\t0\t1\t1\t0\t138\t1\t1.06\t0.94;
\t3\t1\t30\t6\t0\t0\t1\t1\t0\t138\t1\t1.06\t0.94;
];
mpc.gen = [
\t1\t80\t0\t100\t-100\t1\t100\t1\t200\t0;
];
mpc.branch = [
\t1\t2\t0.01\t0.1\t0\t100\t0\t0\t0\t0\t1\t-360\t360;
\t2\t3\t0.01\t0.1\t0\t100\t0\t0\t0\t0\t1\t-360\t360;
\t1\t3\t0.01\t0.1\t0\t100\t0\t0\t0\t0\t1\t-360\t360;
];
mpc.gencost = [
\t2\t0\t0\t3\t0\t25\t0;
];
"""


def test_parse_counts_118(case118_path):
    with open(case118_path) as fh:
        raw = parse_matpower(fh.read())
    assert (len(raw.bus_rows), len(raw.branch_rows)) == (118, 186)
    in_service_gens = sum(1 for row in raw.gen_rows if row[7] > 0)
    assert in_service_gens == 19
    total_load = sum(row[2] for row in raw.bus_rows)
    assert abs(total_load - 4242.0) <= 1.0


def test_validate_118(net118):
    assert net118.n_bus == 118
    assert len(net118.in_service_branches) == 186
    assert len(net118.generators) == 19
    loads = net118.load_mw
    assert int((loads > 0).sum()) == 99
    assert abs(loads.sum() - 4242.0) <= 1.0


def test_parse_triangle_counts():
    raw = parse_matpower(TRIANGLE)
    assert (len(raw.bus_rows), len(raw.branch_rows), len(raw.gen_rows)) == (3, 3, 1)
    assert raw.base_mva == 100.0


def test_ragged_row_names_line():
    bad = TRIANGLE.replace(
        "\t2\t3\t0.01\t0.1\t0\t100\t0\t0\t0\t0\t1\t-360\t360;",
        "\t2\t3\t0.01\t0.1\t0\t100\t0\t0\t0\t0\t1\t-360;",
    )
    with pytest.raises(ParseError) as err:
        parse_matpower(bad)
    assert err.value.line is not None
    assert "ragged" in str(err.value)


def test_missing_block():
    text = TRIANGLE.replace("mpc.gen = [", "mpc.generators = [")
    with pytest.raises(StructureError):
        parse_matpower(text)


def test_open_block_swallows_the_next_assignment():
    # without its "];" the gen block runs on into "mpc.branch = [", which is
    # not a numeric row; the unterminated path is the next test's
    text = TRIANGLE[: TRIANGLE.index("mpc.gencost")].replace("];\nmpc.branch", "\nmpc.branch")
    with pytest.raises(ParseError, match="non-numeric entry in mpc.gen") as err:
        parse_matpower(text)
    assert err.value.line == text.splitlines().index("mpc.branch = [") + 1


def _rows_on_one_line(text):
    """The branch block with its first two rows on the opening line and the
    last row ending at the end of its line, without ';'."""
    lines = text.splitlines()
    i = lines.index("mpc.branch = [")
    first, second, last = (line.rstrip(";") for line in lines[i + 1:i + 4])
    return text.replace("\n".join(lines[i:i + 4]),
                        f"mpc.branch = [{first}; {second};\n{last}")


@pytest.mark.parametrize("restate", [
    _rows_on_one_line,
    lambda text: text.replace("mpc.bus = [\n", "mpc.bus = [ % rows ] follow\n"),
    lambda text: text.replace("0.94;\n];", "0.94; % ] is not the end\n];", 1),
    lambda text: text.replace("];\nmpc.gen", "]; mpc.baseMVA = 0; 7 8\nmpc.gen", 1),
], ids=["rows-on-one-line", "bracket-in-comment-opening",
        "bracket-in-comment-row", "text-after-closing-bracket"])
def test_parse_layouts_that_mean_the_same(restate):
    text = restate(TRIANGLE)
    assert text != TRIANGLE
    assert parse_matpower(text) == parse_matpower(TRIANGLE)


@pytest.mark.parametrize("old, new, message", [
    ("mpc.branch = [", "mpc.branch =\n[", "no mpc.branch block"),
    ("mpc.baseMVA = 100;", "mpc.baseMVA = 100;x", "no mpc.baseMVA"),
], ids=["bracket-on-next-line", "scalar-with-trailing-text"])
def test_parse_assignments_that_are_not_read(old, new, message):
    with pytest.raises(StructureError, match=message):
        parse_matpower(TRIANGLE.replace(old, new))


def test_unterminated_block_names_its_first_line():
    text = TRIANGLE[:TRIANGLE.rindex("];")]
    with pytest.raises(ParseError, match="unterminated mpc.gencost") as err:
        parse_matpower(text)
    assert err.value.line == TRIANGLE.splitlines().index("mpc.gencost = [") + 1


def test_bad_base_mva():
    with pytest.raises(DataError):
        parse_matpower(TRIANGLE.replace("mpc.baseMVA = 100;", "mpc.baseMVA = 0;"))


def test_duplicate_bus_ids():
    text = TRIANGLE.replace(
        "\t3\t1\t30\t6\t0\t0\t1\t1\t0\t138\t1\t1.06\t0.94;",
        "\t2\t1\t30\t6\t0\t0\t1\t1\t0\t138\t1\t1.06\t0.94;",
    )
    with pytest.raises(StructureError):
        validate_case(parse_matpower(text))


def test_zero_reactance():
    text = TRIANGLE.replace(
        "\t2\t3\t0.01\t0.1\t0\t100\t0\t0\t0\t0\t1\t-360\t360;",
        "\t2\t3\t0.01\t0\t0\t100\t0\t0\t0\t0\t1\t-360\t360;",
    )
    with pytest.raises(DataError):
        validate_case(parse_matpower(text))


def test_zero_rating():
    text = TRIANGLE.replace(
        "\t2\t3\t0.01\t0.1\t0\t100\t0\t0\t0\t0\t1\t-360\t360;",
        "\t2\t3\t0.01\t0.1\t0\t0\t0\t0\t0\t0\t1\t-360\t360;",
    )
    with pytest.raises(DataError, match="^branch 2 has nonpositive limit 0.0$"):
        validate_case(parse_matpower(text))


def test_generator_on_unknown_bus():
    text = TRIANGLE.replace("\t1\t80\t0\t100", "\t9\t80\t0\t100")
    with pytest.raises(StructureError, match="^generator 1 references unknown bus 9$"):
        validate_case(parse_matpower(text))


def test_outage_keeps_connectivity(case118_path):
    net = load_case(case118_path, (1,))
    assert len(net.in_service_branches) == 185
    assert 1 not in [b.ordinal for b in net.in_service_branches]


def test_outage_island():
    raw = parse_matpower(TRIANGLE)
    # dropping two of three triangle edges isolates a bus
    with pytest.raises(IslandError):
        validate_case(raw, (1, 2))


def test_single_outage_on_triangle_ok():
    raw = parse_matpower(TRIANGLE)
    net = validate_case(raw, (2,))
    assert len(net.in_service_branches) == 2


def test_outage_out_of_range():
    raw = parse_matpower(TRIANGLE)
    for ordinal in (0, 4, 2.5):   # a fractional ordinal names no branch either
        with pytest.raises(DataError, match="out of range 1..3"):
            validate_case(raw, (ordinal,))


@pytest.mark.parametrize("outages", ["71", ("71", 9999), (True,), ([2],)],
                         ids=["string", "string-and-number", "boolean", "list"])
def test_outage_entries_that_are_not_ordinals(outages):
    # named in the error, never a TypeError from sorting or hashing them
    with pytest.raises(DataError, match=re.escape(f"out of range 1..3: {list(outages)}")):
        validate_case(parse_matpower(TRIANGLE), outages)


def test_validate_deterministic(case118_path):
    with open(case118_path) as fh:
        raw = parse_matpower(fh.read())
    a = validate_case(raw, (5,))
    b = validate_case(raw, (5,))
    assert [x.external_id for x in a.buses] == [x.external_id for x in b.buses]
    assert a.in_service_branches == b.in_service_branches
    assert [x.ordinal for x in a.in_service_branches] == [
        k for k in range(1, len(raw.branch_rows) + 1) if k != 5
    ]
    assert a.reference_bus == b.reference_bus


def test_reference_bus_fallback():
    # demote the slack bus to PQ: reference falls back to the gen bus
    text = TRIANGLE.replace(
        "\t1\t3\t0\t0\t0\t0\t1\t1\t0\t138\t1\t1.06\t0.94;",
        "\t1\t1\t0\t0\t0\t0\t1\t1\t0\t138\t1\t1.06\t0.94;",
    )
    net = validate_case(parse_matpower(text))
    assert net.buses[net.reference_bus].external_id == 1


def test_piecewise_gencost_rejected():
    text = TRIANGLE.replace(
        "\t2\t0\t0\t3\t0\t25\t0;",
        "\t1\t0\t0\t3\t0\t25\t0;",
    )
    with pytest.raises(DataError):
        validate_case(parse_matpower(text))


def test_branch_position_and_limits(net3):
    assert net3.branch_position(1) == 0
    assert np.allclose(net3.limits_pu, 1.0)


@pytest.mark.parametrize("ordinal", [True, False, np.True_],
                         ids=["True", "False", "np_True"])
def test_branch_position_refuses_a_bool(net3, ordinal):
    # a bool hashes as 0 or 1, so a lookup would find branch 1 for True
    with pytest.raises(DataError, match=re.escape(f"branch ordinal {ordinal!r} is a bool")):
        net3.branch_position(ordinal)


def test_branch_ordinals_follow_the_in_service_branches(case118_path):
    net = load_case(case118_path, (71,))
    ordinals = net.branch_ordinals
    assert ordinals.tolist() == [b.ordinal for b in net.in_service_branches]
    assert 71 not in ordinals and ordinals.size == 185
    assert not ordinals.flags.writeable
    assert net.branch_ordinals is ordinals


def test_branch_position_out_of_service():
    net = validate_case(parse_matpower(TRIANGLE), (2,))
    with pytest.raises(DataError):
        net.branch_position(2)
    # positions shift past the outaged branch
    assert net.branch_position(3) == 1


def test_branch_position_at_both_ends_and_outaged(case118_path):
    net = load_case(case118_path, (71,))
    branches = net.in_service_branches
    assert net.branch_position(branches[0].ordinal) == 0
    assert net.branch_position(branches[-1].ordinal) == len(branches) - 1
    assert net.branch_position(72) == 70
    for ordinal in (71, 9999):
        with pytest.raises(DataError, match=f"branch {ordinal} is not in service"):
            net.branch_position(ordinal)


def test_out_of_service_rows_leave_no_branch():
    # a status-0 row is checked for its buses only: zero reactance and limit
    # pass, an unknown bus does not
    row = "\t2\t3\t0.01\t0\t0\t0\t0\t0\t0\t0\t0\t-360\t360;"
    text = TRIANGLE.replace("];\nmpc.gencost", row + "\n];\nmpc.gencost")
    net = validate_case(parse_matpower(text))
    assert [b.ordinal for b in net.in_service_branches] == [1, 2, 3]
    unknown = text.replace(row, row.replace("\t2\t3", "\t2\t9", 1))
    with pytest.raises(StructureError, match="branch 4 references unknown bus"):
        validate_case(parse_matpower(unknown))


@pytest.mark.parametrize("outages", [(), (71,)])
def test_network_rebuilt_from_its_public_fields(case118_path, outages):
    # the fields hold every fact: a copy built from them is equal and yields
    # the same operators and dispatch as the loaded network
    net = load_case(case118_path, outages)
    copy = Network(net.base_mva, net.buses, net.in_service_branches,
                   net.generators, net.reference_bus)
    assert copy == net and copy.operators is not net.operators
    a, b = compute_ptdf(copy), compute_ptdf(net)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.critical_mask, b.critical_mask)
    a, b = base_dispatch(copy), base_dispatch(net)
    assert np.array_equal(a.gen_output, b.gen_output)
    assert np.array_equal(a.scheduled_flows, b.scheduled_flows)
    assert a.total_cost == b.total_cost


@dataclass(frozen=True)
class _Nested:
    vector: np.ndarray
    block: sparse.csr_array
    pair: tuple


def test_per_network_builds_once_per_network():
    calls = []

    @per_network("test-counter")
    def counter(net):
        calls.append(net)
        return np.arange(3.0)

    nets = [validate_case(parse_matpower(TRIANGLE)) for _ in range(2)]
    first = counter(nets[0])
    assert counter(nets[0]) is first and nets[0].operators["test-counter"] is first
    assert counter(nets[1]) is not first
    assert [id(n) for n in calls] == [id(n) for n in nets]
    assert not first.flags.writeable


def test_per_network_results_are_read_only_all_the_way_down():
    @per_network("test-nested")
    def nested(net):
        return (np.zeros(2), _Nested(np.ones(2), sparse.csr_array(np.eye(2)),
                                     (np.zeros(1), (np.zeros(1),))))

    bare, inner = nested(validate_case(parse_matpower(TRIANGLE)))
    arrays = [bare, inner.vector, inner.block.data, inner.block.indices,
              inner.block.indptr, inner.pair[0], inner.pair[1][0]]
    assert not [a for a in arrays if a.flags.writeable]
    with pytest.raises(ValueError):
        inner.block.data[0] = 2.0


def test_per_network_operators_are_read_only(net3):
    topo, ptdf = topology(net3), compute_ptdf(net3)
    for arr in (topo.incidence, topo.keep, *topo.factor, ptdf.matrix,
                ptdf.critical_mask, ptdf.critical_sizes, ptdf.eligible,
                net3.load_bus_mask, net3.limits_pu):
        assert not arr.flags.writeable


def test_per_network_stores_nothing_when_the_build_raises():
    calls = []

    @per_network("test-failing")
    def failing(net):
        calls.append(net)
        raise DataError("no operator")

    net = validate_case(parse_matpower(TRIANGLE))
    for _ in range(2):
        with pytest.raises(DataError):
            failing(net)
    assert len(calls) == 2 and "test-failing" not in net.operators


def test_kept_holds_at_most_its_cap_least_recently_used_first():
    net = validate_case(parse_matpower(TRIANGLE))
    calls = []

    def get(key):
        def build():
            calls.append(key)
            return np.full(2, key)
        return kept(net, "test-kept", 3, key, build)

    first = get(1)
    assert get(1) is first and calls == [1]
    assert not first.flags.writeable
    for key in (2, 3, 1, 4):      # 1 used again, so 2 is the least recent
        get(key)
    assert list(net.operators["test-kept"]) == [3, 1, 4]
    assert calls == [1, 2, 3, 4]
    assert get(2)[0] == 2 and calls == [1, 2, 3, 4, 2]
    assert list(net.operators["test-kept"]) == [1, 4, 2]
    # each network keeps its own store
    other = validate_case(parse_matpower(TRIANGLE))
    assert kept(other, "test-kept", 3, 1, lambda: np.zeros(2)) is not first


def test_kept_stores_nothing_when_the_build_raises():
    net = validate_case(parse_matpower(TRIANGLE))
    kept(net, "test-kept", 2, "good", lambda: np.zeros(1))

    def failing():
        raise DataError("no entry")

    for _ in range(2):
        with pytest.raises(DataError):
            kept(net, "test-kept", 2, "bad", failing)
    assert list(net.operators["test-kept"]) == ["good"]
