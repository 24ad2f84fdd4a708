"""Exact computer algebra for finite-dimensional Hom-Leibniz and
Hom-associative algebras: structure-constant validation, actions and
semi-direct products, the non-abelian tensor product, homology, universal
(twist-)central extensions, and degree-one Hochschild invariants, all over
the rationals or an odd prime field with exact arithmetic throughout.
"""

__version__ = "0.1.0"

from .fields import Field
from .linalg import (
    Matrix,
    QuotientSpace,
    Subspace,
    induced_map,
    quotient,
)
from .algebras import (
    AlgebraHom,
    HomLeibnizAlgebra,
    IdealHandle,
    center,
    commutator,
    derived_subspace,
    direct_sum,
    lieization,
    predicates,
    quotient_algebra,
    subalgebra,
    yau_twist,
)
from .actions import (
    HomAction,
    MutualActions,
    SemidirectProduct,
    bracket_action,
    ideal_pair_actions,
    self_action,
    semidirect,
)
from .tensorprod import (
    TensorProduct,
    build_tensor,
    ideal_sequence_certificate,
    induced_tensor_map,
    outer_action,
    right_exactness_certificate,
)
from .homology import (
    ChainComplex,
    CoRepresentation,
    adjoint_corep,
    coinvariants_dim,
    degree_one_trivial_closed_form,
    trivial_corep,
)
from .extensions import (
    Extension,
    ExtensionKind,
    classify_extension,
    lift_against,
    six_term_check,
    universal_alpha_central_extension,
    universal_central_extension,
)
from .homassoc import (
    HomAssociativeAlgebra,
    alpha_identity_holds,
    cyclic_identity_holds,
    first_homologies,
    hochschild_module,
    milnor_relations,
    sequence_check,
    to_leibniz,
    yau_twist_assoc,
)

__all__ = [name for name in dir() if not name.startswith("_")]
