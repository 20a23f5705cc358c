"""Left Kan injectivity in finite posets.

Finite posets stand in for the locally thin setting: hom-sets are
ordered pointwise, 2-cells are inequalities, and left Kan extensions
are least extensions.  The package decides weak and strong injectivity
against classes of maps, builds the order-theoretic colimits with
checkable universal properties, runs the free-algebra reflection chain,
and verifies the structural closure laws on small corpora.
"""

from .catalog import (
    MapClass,
    all_posets,
    antichain,
    bottom_map,
    chain,
    class_bottom,
    class_bottom_join,
    class_join,
    diamond,
    empty,
    join_map,
    point,
    product,
    standard_classes,
    vee,
)
from .cache import clear_caches
from .chain import (
    ChainState,
    KZReport,
    ReflectionResult,
    extend_along_unit,
    init_chain,
    kz_laws,
    reflect,
    step_even,
    step_odd,
)
from .colimits import (
    ColimitResult,
    UniversalityReport,
    chain_colimit,
    cocomma,
    coequifier,
    coequinserter,
    coinserter,
    coproduct,
    glue,
    pushout,
    record_colimits,
    verify_universal,
    wide_pushout,
)
from .config import DEFAULT_SIZE_CAP, size_cap
from .errors import (
    CycleDetected,
    DomainMismatch,
    DuplicateLabel,
    InvalidTwoCell,
    KanInjError,
    NotComposable,
    NotConverged,
    NotInjectiveContext,
    NotInjectiveTarget,
    NotLari,
    NotMonotone,
    NotParallel,
    PostconditionFailed,
    QuotientViolation,
    SizeCapExceeded,
    UnknownLabel,
)
from .hom import KanResult, hom_poset, is_dense, left_kan
from .injectivity import (
    InjectivityReport,
    cone_class,
    is_injective,
    is_injective_map,
    is_weakly_injective,
    mapping_cone,
    preserves_kan,
    strong_objects,
    verdict,
)
from .poset import (
    AdjointFlags,
    MonotoneMap,
    Poset,
    TwoCell,
    build_poset,
    classify_adjoint,
    enumerate_monotone,
    left_adjoint,
    right_adjoint,
    two_cell_exists,
)
from .saturation import (
    SaturationWitness,
    closure_check,
    closure_failures,
    sat_compose,
    sat_iso,
    sat_lari,
    sat_pushout,
    sat_reflection,
    sat_wide_pushout,
)
from .serialize import (
    class_from_json,
    class_to_json,
    dumps,
    map_from_json,
    map_to_json,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
)
from .verify import SUITES, Check, SuiteReport, run_suite, witness_menu

# importing .chain above rebinds the package attribute to the submodule;
# restore the catalog constructor under the public name
from .catalog import chain

__version__ = "0.1.0"
