"""fsjunta: exact Fourier analysis of Boolean functions, spectral-sampling
oracle simulation, junta testing and learning, and a seeded experiment
harness."""

from .boolfn import (
    N_MAX,
    AcceptInstance,
    BudgetExceededError,
    JuntaSpec,
    RejectInstance,
    TruthTable,
    best_junta_on,
    distance,
    distance_to_best_junta_on,
    distance_to_k_junta,
    influence_direct,
    lift,
    make_junta,
    make_parity,
    mask_from_vars,
    random_junta_spec,
    random_table,
    realize_accept,
    realize_reject,
    sample_accept_instance,
    sample_reject_instance,
    vars_from_mask,
)
from .fourier import (
    Spectrum,
    influence_spectral,
    parseval_check,
    projection_values,
    sign_projection,
    wht,
)
from .learning import (
    Hypothesis,
    LearnerReport,
    find_influential,
    hypothesis_error,
    learn_junta,
)
from .oracles import (
    ExOracle,
    FsOracle,
    FsOracleError,
    derive_seed,
    make_rng,
)
from .stats import chernoff_halfwidth, chi_square_gof
from .testing import (
    TesterVerdict,
    junta_test,
    sample_scenario,
    scenario_distinguisher,
)

__version__ = "0.1.0"
