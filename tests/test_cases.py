import numpy as np
import pytest

from gridfdi.cases import (
    DataError,
    IslandError,
    ParseError,
    StructureError,
    load_case,
    parse_matpower,
    validate_case,
)

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


def test_unterminated_block():
    text = TRIANGLE[: TRIANGLE.index("mpc.gencost")].replace("];\nmpc.branch", "\nmpc.branch")
    with pytest.raises(ParseError):
        parse_matpower(text)


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


def test_outage_keeps_connectivity(case118_path):
    net = load_case(case118_path, (1,))
    assert len(net.in_service_branches) == 185
    assert not net.branches[0].in_service


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
    with pytest.raises(DataError):
        validate_case(raw, (4,))


def test_validate_deterministic(case118_path):
    with open(case118_path) as fh:
        raw = parse_matpower(fh.read())
    a = validate_case(raw, (5,))
    b = validate_case(raw, (5,))
    assert [x.external_id for x in a.buses] == [x.external_id for x in b.buses]
    assert [x.internal_index for x in a.branches] == [
        x.internal_index for x in b.branches
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
    assert np.allclose(net3.limits_pu(), 1.0)


def test_branch_position_out_of_service():
    net = validate_case(parse_matpower(TRIANGLE), (2,))
    with pytest.raises(DataError):
        net.branch_position(2)
    # positions shift past the outaged branch
    assert net.branch_position(3) == 1
