"""pathshift: disparity decomposition via mediator distribution shifts.

One-step corrected, influence-function-based estimation of total,
mediator-attributable, and outcome-attributed disparity components over K
ordered mediator blocks, with self-contained learners (including a convex
super learner and a two-part model for zero-inflated outcomes), an exact
enumeration oracle for validation, and a Monte-Carlo simulation harness.
"""

from .data import AnalysisFrame, DataError, Dataset, GroupSpec, RoleSpec, build_frame, load_csv, one_hot, role_spec_from_config
from .learners import FittedModel, LearnerError, LearnerSpec, SuperLearnerConfig, fit_super_learner, fit_two_part
from .nuisance import EstimandId, NuisanceCache, NuisanceLearners, NuisanceSet, fit_all
from .estimators import GammaEstimate, estimate
from .decomposition import (
    DecompositionConfig,
    DecompositionReport,
    DisparityComponent,
    contrast,
    decompose,
    decompose_natural,
    decompose_sequential,
    to_geometric_scale,
)
from .oracle import DiscreteDgp, MediatorTable, cascade_mc, enumerate_gamma, one_step_population_value
from .simulation import (
    DgpSpec,
    MethodSpec,
    RhoSpec,
    SimReport,
    TruthValue,
    generate,
    run_grid,
    robustness_conditions,
    truth_for,
)

__version__ = "0.1.0"
