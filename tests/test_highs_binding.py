"""The private scipy binding to HiGHS that ``gridfdi.lp`` calls.

``scipy.optimize._highspy._core`` is not public API, so a scipy release may
drop or rename a name ``lp`` reads.  This module imports the binding itself,
not through gridfdi (whose import would fail first), so such a release fails
here with every missing name listed.
"""

import importlib

CORE = "scipy.optimize._highspy._core"

# Every name of the binding that lp reads, dotted from the module; the
# attributes of HighsInfo and HighsSolution are those of what getInfo and
# getSolution return.
HIGHS_NAMES = (
    "_Highs.passOptions", "_Highs.passModel", "_Highs.setBasis", "_Highs.getBasis",
    "_Highs.run", "_Highs.getModelStatus", "_Highs.modelStatusToString",
    "_Highs.getInfo", "_Highs.getSolution",
    "HighsOptions.presolve", "HighsOptions.simplex_strategy", "HighsOptions.output_flag",
    "HighsOptions.log_to_console", "HighsOptions.highs_debug_level",
    "HighsBasis.col_status", "HighsBasis.row_status", "HighsBasis.valid",
    "HighsBasisStatus.kBasic", "HighsBasisStatus.kLower", "HighsBasisStatus.kUpper",
    "HighsBasisStatus.__members__", "MatrixFormat.kRowwise", "ObjSense.kMinimize",
    "HighsModelStatus.kOptimal", "HighsModelStatus.kInfeasible",
    "HighsModelStatus.kUnbounded", "HighsStatus.kError",
    "HighsDebugLevel.kHighsDebugLevelNone",
    "simplex_constants.SimplexStrategy.kSimplexStrategyDual",
    "HighsInfo.simplex_iteration_count", "HighsInfo.objective_function_value",
    "HighsSolution.value_valid", "HighsSolution.dual_valid", "HighsSolution.col_value",
    "HighsSolution.row_dual", "HighsSolution.col_dual",
)


def test_scipy_binding_has_every_highs_name_lp_uses():
    core = importlib.import_module(CORE)
    missing = []
    for name in HIGHS_NAMES:
        found = core
        for part in name.split("."):
            found = getattr(found, part, None)
        if found is None:
            missing.append(name)
    assert not missing, f"{CORE} lacks {', '.join(missing)}"
