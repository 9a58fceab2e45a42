"""gcartan: exact graded Cartan matrices of symmetric-group and Iwahori-Hecke
blocks, realized as Shapovalov Gram matrices on the basic representation.

Everything is computed in exact arithmetic over Z[v,v^-1] or Q[v,v^-1]: the
quantized Cartan determinant formulas, the specialization-irreducibility
criteria for the simply-laced affine types, and the conjectured graded
Cartan invariants together with all of their supporting multiset identities.
"""

__version__ = "0.1.0"

from .qlaurent import (  # noqa: F401
    LaurentPoly,
    quantum_int,
    quantum_factorial,
    quantum_binomial,
    cyclotomic,
    kss_bracket,
    su_bracket,
    normalize_unit,
    divide_exact,
    vanishes_at_primitive_root,
)
from .qcartan import (  # noqa: F401
    DynkinDiagram,
    TwistedDiagram,
    parse_diagram,
    type_a,
    quantized_cartan,
    det_quantized,
    exponent_N,
    shapovalov_det_formula,
    irreducible_at,
    twisted_det_formula,
    folding_det_check,
)
from .gram import (  # noqa: F401
    GramMatrix,
    gram_matrix,
    gram_det,
    cartan_graded,
    block_sum,
    schur_in_x,
    schur_orthonormality,
)
from .snf import (  # noqa: F401
    InvariantMultiset,
    snf_int,
    snf_laurent_field,
    try_diagonalize_zlaurent,
    multiset_equal_up_to_units,
)
from .invariants import (  # noqa: F401
    hill_invariant,
    graded_hill,
    kor_invariant,
    graded_kor,
    asy_Q,
    verify_conjcheck,
    verify_tsaigo,
    verify_saigo2,
    verify_bhmulti,
    verify_conjequiv,
    bunkaito_decompose,
    conjecture_report,
)
