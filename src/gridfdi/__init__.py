"""Load-redistribution attacks on DC state estimation and their detection.

The toolkit builds worst-case measurement-tampering attacks as linear
programs, runs them through a two-interval operating timeline (dispatch,
load drift, state estimation, re-dispatch) and detects them with a two-stage
alert pipeline driven by branch-flow and load-deviation metrics.
"""

from importlib import resources

from .cases import Network, RawCase, load_case, parse_matpower, validate_case
from .powerflow import DcSolution, Ptdf, compute_ptdf, solve_dc
from .lp import LinearProgram, LpSolution, solve_lp
from .sced import Dispatch, DispatchError, run_sced
from .estimation import MeasurementSet, SeResult, build_measurements, wls_estimate
from .attack import (
    AttackResult,
    AttackSpec,
    apply_attack,
    build_attack_lp,
    check_unobservability,
    solve_attack,
)
from .detect import (
    AlertLevel,
    DetectionReport,
    Snapshot,
    run_two_stage,
    smldi,
)
from .harness import (
    ExperimentReport,
    NetworkCache,
    ScenarioConfig,
    gen_fluctuation,
    outage_robustness_suite,
    study_118_suite,
    run_experiment,
    run_scenario,
    run_timeline,
)

__version__ = "0.1.0"


def bundled_case(name: str = "case118.m") -> str:
    """Filesystem path of a case file shipped with the package."""
    return str(resources.files(__name__) / "data" / name)
