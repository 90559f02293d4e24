"""Opetopes: shapes of the iterated slice tower, opetopic sets, and the
weak n-category checker.

The package decides, for finite inputs, whether an opetopic set satisfies
the two weak n-category conditions -- every niche has a universal
occupant, and composites of universal cells are universal -- on top of a
small symbolic engine for typed operads, the slice construction, and
opetope enumeration.
"""

from .errors import (
    ArityMismatch,
    BoundExceeded,
    CarrierMismatch,
    CompositeMismatch,
    DegreeMismatch,
    DimensionOverflow,
    DimOutOfRange,
    DocumentError,
    IllTyped,
    InsufficientDimension,
    InvalidSet,
    MalformedConfig,
    NoSuchNode,
    OpetopeError,
    TypeMismatch,
    UnknownCell,
    UnknownFixture,
    UnsupportedOperad,
    ZeroDimensional,
)
from .trees import PasteTree, TreeNode, empty_tree, single_node_tree
from .shapes import (
    ARROW,
    POINT,
    Opetope,
    compose,
    enumerate_opetopes,
    faces,
    from_code,
    from_metatree,
    identity_on,
    metatree_stages,
    permute_inputs,
    render_metatree,
)
from .operads import (
    Algebra,
    AxiomReport,
    OperadLevel,
    TableOperad,
    block_permutation,
    check_algebra_axioms,
    check_operad_axioms,
    compose_perms,
    direct_sum_permutation,
    eval_algebra,
    identity_perm,
    initial_operad,
    slice_operad,
)
from .counting import brute_force_count
from .osets import (
    BoundaryConfig,
    OpetopicSet,
    competitors,
    enumerate_configs,
    make_config,
    occupants,
    outface_extensions,
    validate,
)
from .universality import (
    CheckContext,
    CheckVerdict,
    Verdict,
    check_weak_n_category,
    is_balanced,
    is_universal,
)
from .fixtures import FIXTURES, build_fixture, induced_binary_table, monoid_set

__version__ = "0.1.0"
