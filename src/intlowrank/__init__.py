"""Integer low-rank approximation toolkit.

Factorizes an integer matrix A as U V with integer (optionally
box-constrained) factors by block coordinate descent, where every
row/column subproblem is an integer least squares problem solved to
global optimality by lattice reduction plus a depth-first zigzag
(Schnorr-Euchner) enumeration.
"""

from .boxed import (
    BoundTable,
    BoxConstraint,
    boxed_search,
    compute_bound_table,
    in_box_rounding,
    mch_reduce,
    solve_ilsb,
)
from .exceptions import (
    EmptyBoxError,
    MatrixParseError,
    NotOrthonormalError,
    RankDeficientError,
)
from .factorize import (
    FactorizationConfig,
    FactorizationResult,
    bcd_factorize,
    init_most_frequent,
    init_random,
    residual,
    round_project_orthonormal,
    rounded_real_ls,
    update_u,
    update_v,
)
from .ils import (
    ReducedProblem,
    SearchStats,
    integer_gauss_transform,
    lll_reduce,
    plll_reduce,
    se_search,
    solve_ils,
)
from .linalg import householder_qr, householder_qr_min_pivot

__version__ = "0.1.0"

__all__ = [
    "BoundTable",
    "BoxConstraint",
    "EmptyBoxError",
    "FactorizationConfig",
    "FactorizationResult",
    "MatrixParseError",
    "NotOrthonormalError",
    "RankDeficientError",
    "ReducedProblem",
    "SearchStats",
    "bcd_factorize",
    "boxed_search",
    "compute_bound_table",
    "householder_qr",
    "householder_qr_min_pivot",
    "in_box_rounding",
    "init_most_frequent",
    "init_random",
    "integer_gauss_transform",
    "lll_reduce",
    "mch_reduce",
    "plll_reduce",
    "residual",
    "round_project_orthonormal",
    "rounded_real_ls",
    "se_search",
    "solve_ils",
    "solve_ilsb",
    "update_u",
    "update_v",
]
