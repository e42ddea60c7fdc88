#!/usr/bin/env python3
"""Regenerate src/gridfdi/data/case118.m.

Bus loads, topology and reactances are the standard public IEEE 118-bus
tables (118 buses, 186 branches, 4,242 MW over 99 load buses).  The public
file ships without thermal ratings and with uniform first-order gencost
terms, so this script synthesizes both:

  * 19 dispatchable units (the buses with nonzero Pg in the public dispatch)
    stay in service; the 35 synchronous condensers are marked status 0.
    Linear costs follow unit size (largest unit cheapest) for a well-defined
    merit order.
  * Thermal limits come from a merit-order dispatch of this package's own
    SCED on a copy of the case rated 9,900 MW per branch.  No such rating
    can bind: every |PTDF| entry is at most 1, so a branch carries at most
    the sum of all |injections|, generation plus load, 2 x 4,242 = 8,484 MW;
    the dispatch is therefore the unconstrained one, and the script stops if
    any branch binds.  Every branch gets headroom over its base flow except
    a small set of deliberately congested corridors (branches 111 and 118
    among them) that are rated just below their unconstrained flow.

Run with --placeholder-limits to emit a file with uniform large ratings
(used only to bootstrap before the package itself is importable).
"""

import argparse
import math
import os
import sys

# --- standard public tables ------------------------------------------------

# bus id, Pd (MW), Qd (MVAr); type is derived (69 slack, gen buses PV)
BUS = [
    (1, 51, 27), (2, 20, 9), (3, 39, 10), (4, 39, 12), (5, 0, 0),
    (6, 52, 22), (7, 19, 2), (8, 28, 0), (9, 0, 0), (10, 0, 0),
    (11, 70, 23), (12, 47, 10), (13, 34, 16), (14, 14, 1), (15, 90, 30),
    (16, 25, 10), (17, 11, 3), (18, 60, 34), (19, 45, 25), (20, 18, 3),
    (21, 14, 8), (22, 10, 5), (23, 7, 3), (24, 13, 0), (25, 0, 0),
    (26, 0, 0), (27, 71, 13), (28, 17, 7), (29, 24, 4), (30, 0, 0),
    (31, 43, 27), (32, 59, 23), (33, 23, 9), (34, 59, 26), (35, 33, 9),
    (36, 31, 17), (37, 0, 0), (38, 0, 0), (39, 27, 11), (40, 66, 23),
    (41, 37, 10), (42, 96, 23), (43, 18, 7), (44, 16, 8), (45, 53, 22),
    (46, 28, 10), (47, 34, 0), (48, 20, 11), (49, 87, 30), (50, 17, 4),
    (51, 17, 8), (52, 18, 5), (53, 23, 11), (54, 113, 32), (55, 63, 22),
    (56, 84, 18), (57, 12, 3), (58, 12, 3), (59, 277, 113), (60, 78, 3),
    (61, 0, 0), (62, 77, 14), (63, 0, 0), (64, 0, 0), (65, 0, 0),
    (66, 39, 18), (67, 28, 7), (68, 0, 0), (69, 0, 0), (70, 66, 20),
    (71, 0, 0), (72, 12, 0), (73, 6, 0), (74, 68, 27), (75, 47, 11),
    (76, 68, 36), (77, 61, 28), (78, 71, 26), (79, 39, 32), (80, 130, 26),
    (81, 0, 0), (82, 54, 27), (83, 20, 10), (84, 11, 7), (85, 24, 15),
    (86, 21, 10), (87, 0, 0), (88, 48, 10), (89, 0, 0), (90, 163, 42),
    (91, 10, 0), (92, 65, 10), (93, 12, 7), (94, 30, 16), (95, 42, 31),
    (96, 38, 15), (97, 15, 9), (98, 34, 8), (99, 42, 0), (100, 37, 18),
    (101, 22, 15), (102, 5, 3), (103, 23, 16), (104, 38, 25), (105, 31, 26),
    (106, 43, 16), (107, 50, 12), (108, 2, 1), (109, 8, 3), (110, 39, 30),
    (111, 0, 0), (112, 68, 13), (113, 6, 0), (114, 8, 3), (115, 22, 7),
    (116, 184, 0), (117, 20, 8), (118, 33, 15),
]

# fbus, tbus, r, x, b  (186 rows; ordinal = 1-based position)
BRANCH = [
    (1, 2, 0.0303, 0.0999, 0.0254), (1, 3, 0.0129, 0.0424, 0.01082),
    (4, 5, 0.00176, 0.00798, 0.0021), (3, 5, 0.0241, 0.108, 0.0284),
    (5, 6, 0.0119, 0.054, 0.01426), (6, 7, 0.00459, 0.0208, 0.0055),
    (8, 9, 0.00244, 0.0305, 1.162), (8, 5, 0.0, 0.0267, 0.0),
    (9, 10, 0.00258, 0.0322, 1.23), (4, 11, 0.0209, 0.0688, 0.01748),
    (5, 11, 0.0203, 0.0682, 0.01738), (11, 12, 0.00595, 0.0196, 0.00502),
    (2, 12, 0.0187, 0.0616, 0.01572), (3, 12, 0.0484, 0.16, 0.0406),
    (7, 12, 0.00862, 0.034, 0.00874), (11, 13, 0.02225, 0.0731, 0.01876),
    (12, 14, 0.0215, 0.0707, 0.01816), (13, 15, 0.0744, 0.2444, 0.06268),
    (14, 15, 0.0595, 0.195, 0.0502), (12, 16, 0.0212, 0.0834, 0.0214),
    (15, 17, 0.0132, 0.0437, 0.0444), (16, 17, 0.0454, 0.1801, 0.0466),
    (17, 18, 0.0123, 0.0505, 0.01298), (18, 19, 0.01119, 0.0493, 0.01142),
    (19, 20, 0.0252, 0.117, 0.0298), (15, 19, 0.012, 0.0394, 0.0101),
    (20, 21, 0.0183, 0.0849, 0.0216), (21, 22, 0.0209, 0.097, 0.0246),
    (22, 23, 0.0342, 0.159, 0.0404), (23, 24, 0.0135, 0.0492, 0.0498),
    (23, 25, 0.0156, 0.08, 0.0864), (26, 25, 0.0, 0.0382, 0.0),
    (25, 27, 0.0318, 0.163, 0.1764), (27, 28, 0.01913, 0.0855, 0.0216),
    (28, 29, 0.0237, 0.0943, 0.0238), (30, 17, 0.0, 0.0388, 0.0),
    (8, 30, 0.00431, 0.0504, 0.514), (26, 30, 0.00799, 0.086, 0.908),
    (17, 31, 0.0474, 0.1563, 0.0399), (29, 31, 0.0108, 0.0331, 0.0083),
    (23, 32, 0.0317, 0.1153, 0.1173), (31, 32, 0.0298, 0.0985, 0.0251),
    (27, 32, 0.0229, 0.0755, 0.01926), (15, 33, 0.038, 0.1244, 0.03194),
    (19, 34, 0.0752, 0.247, 0.0632), (35, 36, 0.00224, 0.0102, 0.00268),
    (35, 37, 0.011, 0.0497, 0.01318), (33, 37, 0.0415, 0.142, 0.0366),
    (34, 36, 0.00871, 0.0268, 0.00568), (34, 37, 0.00256, 0.0094, 0.00984),
    (38, 37, 0.0, 0.0375, 0.0), (37, 39, 0.0321, 0.106, 0.027),
    (37, 40, 0.0593, 0.168, 0.042), (30, 38, 0.00464, 0.054, 0.422),
    (39, 40, 0.0184, 0.0605, 0.01552), (40, 41, 0.0145, 0.0487, 0.01222),
    (40, 42, 0.0555, 0.183, 0.0466), (41, 42, 0.041, 0.135, 0.0344),
    (43, 44, 0.0608, 0.2454, 0.06068), (34, 43, 0.0413, 0.1681, 0.04226),
    (44, 45, 0.0224, 0.0901, 0.0224), (45, 46, 0.04, 0.1356, 0.0332),
    (46, 47, 0.038, 0.127, 0.0316), (46, 48, 0.0601, 0.189, 0.0472),
    (47, 49, 0.0191, 0.0625, 0.01604), (42, 49, 0.0715, 0.323, 0.086),
    (42, 49, 0.0715, 0.323, 0.086), (45, 49, 0.0684, 0.186, 0.0444),
    (48, 49, 0.0179, 0.0505, 0.01258), (49, 50, 0.0267, 0.0752, 0.01874),
    (49, 51, 0.0486, 0.137, 0.0342), (51, 52, 0.0203, 0.0588, 0.01396),
    (52, 53, 0.0405, 0.1635, 0.04058), (53, 54, 0.0263, 0.122, 0.031),
    (49, 54, 0.073, 0.289, 0.0738), (49, 54, 0.0869, 0.291, 0.073),
    (54, 55, 0.0169, 0.0707, 0.0202), (54, 56, 0.00275, 0.00955, 0.00732),
    (55, 56, 0.00488, 0.0151, 0.00374), (56, 57, 0.0343, 0.0966, 0.0242),
    (50, 57, 0.0474, 0.134, 0.0332), (56, 58, 0.0343, 0.0966, 0.0242),
    (51, 58, 0.0255, 0.0719, 0.01788), (54, 59, 0.0503, 0.2293, 0.0598),
    (56, 59, 0.0825, 0.251, 0.0569), (56, 59, 0.0803, 0.239, 0.0536),
    (55, 59, 0.04739, 0.2158, 0.05646), (59, 60, 0.0317, 0.145, 0.0376),
    (59, 61, 0.0328, 0.15, 0.0388), (60, 61, 0.00264, 0.0135, 0.01456),
    (60, 62, 0.0123, 0.0561, 0.01468), (61, 62, 0.00824, 0.0376, 0.0098),
    (63, 59, 0.0, 0.0386, 0.0), (63, 64, 0.00172, 0.02, 0.216),
    (64, 61, 0.0, 0.0268, 0.0), (38, 65, 0.00901, 0.0986, 1.046),
    (64, 65, 0.00269, 0.0302, 0.38), (49, 66, 0.018, 0.0919, 0.0248),
    (49, 66, 0.018, 0.0919, 0.0248), (62, 66, 0.0482, 0.218, 0.0578),
    (62, 67, 0.0258, 0.117, 0.031), (65, 66, 0.0, 0.037, 0.0),
    (66, 67, 0.0224, 0.1015, 0.02682), (65, 68, 0.00138, 0.016, 0.638),
    (47, 69, 0.0844, 0.2778, 0.07092), (49, 69, 0.0985, 0.324, 0.0828),
    (68, 69, 0.0, 0.037, 0.0), (69, 70, 0.03, 0.127, 0.122),
    (24, 70, 0.00221, 0.4115, 0.10198), (70, 71, 0.00882, 0.0355, 0.00878),
    (24, 72, 0.0488, 0.196, 0.0488), (71, 72, 0.0446, 0.18, 0.04444),
    (71, 73, 0.00866, 0.0454, 0.01178), (70, 74, 0.0401, 0.1323, 0.03368),
    (70, 75, 0.0428, 0.141, 0.036), (69, 75, 0.0405, 0.122, 0.124),
    (74, 75, 0.0123, 0.0406, 0.01034), (76, 77, 0.0444, 0.148, 0.0368),
    (69, 77, 0.0309, 0.101, 0.1038), (75, 77, 0.0601, 0.1999, 0.04978),
    (77, 78, 0.00376, 0.0124, 0.01264), (78, 79, 0.00546, 0.0244, 0.00648),
    (77, 80, 0.017, 0.0485, 0.0472), (77, 80, 0.0294, 0.105, 0.0228),
    (79, 80, 0.0156, 0.0704, 0.0187), (68, 81, 0.00175, 0.0202, 0.808),
    (81, 80, 0.0, 0.037, 0.0), (77, 82, 0.0298, 0.0853, 0.08174),
    (82, 83, 0.0112, 0.03665, 0.03796), (83, 84, 0.0625, 0.132, 0.0258),
    (83, 85, 0.043, 0.148, 0.0348), (84, 85, 0.0302, 0.0641, 0.01234),
    (85, 86, 0.035, 0.123, 0.0276), (86, 87, 0.02828, 0.2074, 0.0445),
    (85, 88, 0.02, 0.102, 0.0276), (85, 89, 0.0239, 0.173, 0.047),
    (88, 89, 0.0139, 0.0712, 0.01934), (89, 90, 0.0518, 0.188, 0.0528),
    (89, 90, 0.0238, 0.0997, 0.106), (90, 91, 0.0254, 0.0836, 0.0214),
    (89, 92, 0.0099, 0.0505, 0.0548), (89, 92, 0.0393, 0.1581, 0.0414),
    (91, 92, 0.0387, 0.1272, 0.03268), (92, 93, 0.0258, 0.0848, 0.0218),
    (92, 94, 0.0481, 0.158, 0.0406), (93, 94, 0.0223, 0.0732, 0.01876),
    (94, 95, 0.0132, 0.0434, 0.0111), (80, 96, 0.0356, 0.182, 0.0494),
    (82, 96, 0.0162, 0.053, 0.0544), (94, 96, 0.0269, 0.0869, 0.023),
    (80, 97, 0.0183, 0.0934, 0.0254), (80, 98, 0.0238, 0.108, 0.0286),
    (80, 99, 0.0454, 0.206, 0.0546), (92, 100, 0.0648, 0.295, 0.0472),
    (94, 100, 0.0178, 0.058, 0.0604), (95, 96, 0.0171, 0.0547, 0.01474),
    (96, 97, 0.0173, 0.0885, 0.024), (98, 100, 0.0397, 0.179, 0.0476),
    (99, 100, 0.018, 0.0813, 0.0216), (100, 101, 0.0277, 0.1262, 0.0328),
    (92, 102, 0.0123, 0.0559, 0.01464), (101, 102, 0.0246, 0.112, 0.0294),
    (100, 103, 0.016, 0.0525, 0.0536), (100, 104, 0.0451, 0.204, 0.0541),
    (103, 104, 0.0466, 0.1584, 0.0407), (103, 105, 0.0535, 0.1625, 0.0408),
    (100, 106, 0.0605, 0.229, 0.062), (104, 105, 0.00994, 0.0378, 0.00986),
    (105, 106, 0.014, 0.0547, 0.01434), (105, 107, 0.053, 0.183, 0.0472),
    (105, 108, 0.0261, 0.0703, 0.01844), (106, 107, 0.053, 0.183, 0.0472),
    (108, 109, 0.0105, 0.0288, 0.0076), (103, 110, 0.03906, 0.1813, 0.0461),
    (109, 110, 0.0278, 0.0762, 0.0202), (110, 111, 0.022, 0.0755, 0.02),
    (110, 112, 0.0247, 0.064, 0.062), (17, 113, 0.00913, 0.0301, 0.00768),
    (32, 113, 0.0615, 0.203, 0.0518), (32, 114, 0.0135, 0.0612, 0.01628),
    (27, 115, 0.0164, 0.0741, 0.01972), (114, 115, 0.0023, 0.0104, 0.00276),
    (68, 116, 0.00034, 0.00405, 0.164), (12, 117, 0.0329, 0.14, 0.0358),
    (75, 118, 0.0145, 0.0481, 0.01198), (76, 118, 0.0164, 0.0544, 0.01356),
]

# dispatchable units: bus, Pg (public dispatch, only used to pick the 19), Pmax
UNITS = [
    (10, 450.0, 550.0), (12, 85.0, 185.0), (25, 220.0, 320.0),
    (26, 314.0, 414.0), (31, 7.0, 107.0), (46, 19.0, 119.0),
    (49, 204.0, 304.0), (54, 48.0, 148.0), (59, 155.0, 255.0),
    (61, 160.0, 260.0), (65, 391.0, 491.0), (66, 392.0, 492.0),
    (69, 516.4, 805.2), (80, 477.0, 577.0), (87, 4.0, 104.0),
    (89, 607.0, 707.0), (100, 252.0, 352.0), (103, 40.0, 140.0),
    (111, 36.0, 136.0),
]

# synchronous condensers (status 0): reactive support only in the AC case
CONDENSERS = [
    1, 4, 6, 8, 15, 18, 19, 24, 27, 32, 34, 36, 40, 42, 55, 56, 62,
    70, 72, 73, 74, 76, 77, 85, 90, 91, 92, 99, 104, 105, 107, 110,
    112, 113, 116,
]

SLACK_BUS = 69

# Deliberately congested corridors: ordinal -> fraction of the unconstrained
# merit-order flow used as the rating.  Branches 111 and 118 are the attack
# targets studied by the experiment suite; 118 keeps extra slack because the
# 5%-sigma fluctuation draws need up to ~1.5 MW more transfer there.
CONGESTED = {111: 0.90, 118: 0.97}
CONGESTED_FLOOR_MW = 10.0

HEADROOM = 1.40          # rating multiplier for uncongested branches
FLOOR_MW = 80.0          # minimum rating
ROUND_MW = 1.0

# Cheap northern units keep the 23-24-72 corridor loaded so that branch 111
# carries enough flow to be a meaningful congestion target.
COST_OVERRIDES = {25: 13.0, 26: 14.0}


def merit_costs():
    """$/MWh per unit: largest unit cheapest, deterministic spread."""
    order = sorted(range(len(UNITS)), key=lambda i: -UNITS[i][2])
    costs = [0.0] * len(UNITS)
    for rank, i in enumerate(order):
        costs[i] = 12.0 + 1.5 * rank
    for i, (bus, _, _) in enumerate(UNITS):
        if bus in COST_OVERRIDES:
            costs[i] = COST_OVERRIDES[bus]
    return costs


def case_text(limits_mw):
    gen_buses = {u[0] for u in UNITS}
    lines = [
        "function mpc = case118",
        "% IEEE 118-bus system, 19 dispatchable units, synthesized thermal",
        "% ratings and linear costs (regenerated by scripts/build_case118.py).",
        "mpc.version = '2';",
        "mpc.baseMVA = 100;",
        "",
        "% bus_i type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin",
        "mpc.bus = [",
    ]
    for bus_id, pd, qd in BUS:
        btype = 3 if bus_id == SLACK_BUS else (2 if bus_id in gen_buses else 1)
        lines.append(
            f"\t{bus_id}\t{btype}\t{pd}\t{qd}\t0\t0\t1\t1\t0\t138\t1\t1.06\t0.94;"
        )
    lines.append("];")
    lines.append("")
    lines.append("% bus Pg Qg Qmax Qmin Vg mBase status Pmax Pmin")
    lines.append("mpc.gen = [")
    for bus_id, pg, pmax in UNITS:
        lines.append(
            f"\t{bus_id}\t{pg}\t0\t300\t-300\t1\t100\t1\t{pmax}\t0;"
        )
    for bus_id in CONDENSERS:
        lines.append(f"\t{bus_id}\t0\t0\t300\t-300\t1\t100\t0\t100\t0;")
    lines.append("];")
    lines.append("")
    lines.append("% fbus tbus r x b rateA rateB rateC ratio angle status angmin angmax")
    lines.append("mpc.branch = [")
    for (f, t, r, x, b), rate in zip(BRANCH, limits_mw):
        lines.append(
            f"\t{f}\t{t}\t{r}\t{x}\t{b}\t{rate:g}\t0\t0\t0\t0\t1\t-360\t360;"
        )
    lines.append("];")
    lines.append("")
    lines.append("% model startup shutdown ncost c2 c1 c0")
    lines.append("mpc.gencost = [")
    for cost in merit_costs():
        lines.append(f"\t2\t0\t0\t3\t0\t{cost:g}\t0;")
    for _ in CONDENSERS:
        lines.append("\t2\t0\t0\t3\t0\t0\t0;")
    lines.append("];")
    lines.append("")
    return "\n".join(lines)


def calibrated_limits(tmp_path):
    """Rate every branch from the merit-order dispatch of the
    placeholder-rated case, where no limit binds."""
    from gridfdi.cases import load_case
    from gridfdi.sced import run_sced

    net = load_case(tmp_path)
    dispatch = run_sced(net, net.load_mw)
    if dispatch.binding_branches:
        raise SystemExit("placeholder ratings bind on branches"
                         f" {dispatch.binding_branches}")
    base = abs(dispatch.scheduled_flows) * net.base_mva

    limits = []
    for pos, flow in enumerate(base):
        ordinal = pos + 1
        if ordinal in CONGESTED:
            rate = max(math.floor(CONGESTED[ordinal] * flow), CONGESTED_FLOOR_MW)
        else:
            rate = max(math.ceil(HEADROOM * flow / ROUND_MW) * ROUND_MW, FLOOR_MW)
        limits.append(float(rate))
    return limits


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "src", "gridfdi", "data", "case118.m"))
    ap.add_argument("--placeholder-limits", action="store_true",
                    help="emit uniform 9900 MW ratings (bootstrap only)")
    args = ap.parse_args()

    if args.placeholder_limits:
        limits = [9900.0] * len(BRANCH)
    else:
        import tempfile

        with tempfile.NamedTemporaryFile("w", suffix=".m", delete=False) as fh:
            fh.write(case_text([9900.0] * len(BRANCH)))
            tmp = fh.name
        try:
            limits = calibrated_limits(tmp)
        finally:
            os.unlink(tmp)

    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        fh.write(case_text(limits))
    print(f"wrote {out} ({len(BUS)} buses, {len(BRANCH)} branches)")


if __name__ == "__main__":
    sys.exit(main())
