"""Positive-order basis-function interpolation and smoothing of
scattered data: minimal-seminorm interpolants, the Exact smoother and
the scalable Approximate smoother, plus a study harness for convergence
and density experiments.
"""

from .polyspace import (
    PolyFrame,
    UnisolventFrame,
    enumerate_multi_indices,
    is_unisolvent,
    minimal_unisolvent_subset,
    unisolvency_matrix,
)
from .kernels import (
    KernelSpec,
    OrderPrediction,
    parse_kernel,
    predicted_orders,
    riesz_representer,
    semi_riesz,
)
from .assembly import (
    BlockSystem,
    approx_parts,
    cpd_check,
    exact_system,
    solve_block,
)
from .interpolant import (
    FittedModel,
    eval_model,
    fit_interpolant,
    seminorm_sq,
    seminorm_sq_diff,
)
from .exact_smoother import SmootherDiagnostics, diagnostics, fit_exact, functional_value
from .approx_smoother import (
    GridSpec,
    Region,
    SmootherComparison,
    compare,
    fit_approx,
    fit_parts,
    grid_density,
    make_grid,
    parse_grid,
)
from .study import (
    DensityFit,
    RepresenterData,
    RhoCoupling,
    StudyReport,
    cavity_density,
    convergence_sweep,
    density_law,
    exponential_sizes,
    gen_uniform,
    rho_search,
)
from .io import DataTable, load_model, read_csv, save_model

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
