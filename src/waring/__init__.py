"""Waring ranks and power-sum decompositions of binary and ternary forms.

The library computes exact ranks, border ranks, and open ranks of binary
forms, splits ternary forms of odd degree across systems of annihilating
lines, decomposes every ternary quartic into at most eight fourth powers
avoiding a prescribed closed subset, and wraps each output in a
verifiable JSON certificate.

Float paths go through numpy least squares and SVD, whose last bits follow
the BLAS thread count, so float certificate bytes reproduce only at a fixed
thread count.  The library does not pin it.  The `waring` console command
(`waring_launcher`), `tests/conftest.py` and `perfbench/run.py` pin one
thread through OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS,
set before numpy is imported; the command keeps a value the caller set.
"""

from .apolarity import (
    CatalecticantMatrix,
    apolar_component,
    apolar_initial_degree,
    cat_rank_table,
    catalecticant,
    essential_subspace,
    essential_variables,
    numeric_catalecticant,
    rank_lower_bound,
)
from .avoidance import AvoidanceSet, binary_point_dual
from .binary import (
    border_rank_binary,
    decompose_binary,
    decompose_binary_avoiding,
    decompose_binary_bounded,
    embed_binary,
    form_on_line,
    generic_rank_in_subspace,
    open_rank_binary,
    push_decomposition,
    rank_binary,
)
from .certify import (
    Certificate,
    VERSION,
    from_json,
    rank_bracket,
    replay,
    to_json,
    verify_decomposition,
)
from .decomposition import Decomposition, Term, term_from_vector
from .errors import (
    DegenerateSystemError,
    DimensionMismatch,
    NoSmoothConic,
    ParseFormError,
    PreconditionError,
    RetryExhausted,
    RootFindingError,
    WaringError,
    ZeroFormError,
)
from .forms import (
    Form,
    ProjectivePoint,
    contract,
    evaluate,
    form_to_string,
    parse_form,
    power_of_linear,
    random_form,
    substitute,
)
from .plane import (
    conic_parametrization,
    cross,
    factor_rank_two_quadric,
    plane_basis,
    quadric_rank_exact,
    rational_point_on_conic,
)
from .quartic import (
    quartic_brk3_decompose,
    quartic_decompose_open,
    quartic_predecomp,
    witness_quartic,
)
from .ternary import (
    KernelPair,
    LineSystem,
    SplitProblem,
    annihilating_lines,
    bound_B1,
    decompose_ternary_odd,
    minimize_annihilating,
    reducible_kernel_pair,
    split_on_lines,
)

__version__ = VERSION

__all__ = [
    "AvoidanceSet",
    "CatalecticantMatrix",
    "Certificate",
    "Decomposition",
    "DegenerateSystemError",
    "DimensionMismatch",
    "Form",
    "KernelPair",
    "LineSystem",
    "NoSmoothConic",
    "ParseFormError",
    "PreconditionError",
    "ProjectivePoint",
    "RetryExhausted",
    "RootFindingError",
    "SplitProblem",
    "Term",
    "VERSION",
    "WaringError",
    "ZeroFormError",
    "annihilating_lines",
    "apolar_component",
    "apolar_initial_degree",
    "binary_point_dual",
    "border_rank_binary",
    "bound_B1",
    "cat_rank_table",
    "catalecticant",
    "conic_parametrization",
    "contract",
    "cross",
    "decompose_binary",
    "decompose_binary_avoiding",
    "decompose_binary_bounded",
    "decompose_ternary_odd",
    "embed_binary",
    "essential_subspace",
    "essential_variables",
    "evaluate",
    "factor_rank_two_quadric",
    "form_on_line",
    "form_to_string",
    "from_json",
    "generic_rank_in_subspace",
    "minimize_annihilating",
    "numeric_catalecticant",
    "open_rank_binary",
    "parse_form",
    "plane_basis",
    "power_of_linear",
    "push_decomposition",
    "quadric_rank_exact",
    "quartic_brk3_decompose",
    "quartic_decompose_open",
    "quartic_predecomp",
    "random_form",
    "rank_binary",
    "rank_bracket",
    "rank_lower_bound",
    "rational_point_on_conic",
    "reducible_kernel_pair",
    "replay",
    "split_on_lines",
    "substitute",
    "term_from_vector",
    "to_json",
    "verify_decomposition",
    "witness_quartic",
]
