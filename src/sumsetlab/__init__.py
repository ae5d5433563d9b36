"""sumsetlab: a desk-scale laboratory for exact sumset statistics.

Exact representation functions and moment energies over finite subsets of
the rationals, popular/rich subset constructions with explicit constants,
point-line/curve incidence counting, and a registry-driven verification
harness that asserts every exact inequality and measures the implied
constant of every asymptotic one.
"""

from .errors import (
    BudgetExceededError,
    DivisionDomainError,
    DomainError,
    ExactnessError,
    InfeasibleSpecError,
    InvalidScaleError,
    SumsetLabError,
    UnknownCheckError,
)
from .sets import (
    FamilySpec,
    FiniteSet,
    as_rational,
    gen_family,
    intersect_dilate,
    is_convex,
    make_set,
    read_set_file,
    transform,
    write_set_file,
)
from .energy import (
    PAIR_OPS,
    EnergyValue,
    RepFn,
    dump_repfn_csv,
    energy,
    load_repfn_csv,
    pair_membership,
    pair_set,
    pair_set_size,
    projection_count,
    rep_fn,
)
from .constructions import (
    DyadicClass,
    RefinementTrace,
    ambient_log,
    count_popular_difference_triples,
    count_popular_sum_triples,
    dominant_dyadic_class,
    popular_difference_mass,
    popular_differences,
    popular_sums,
    refine_rich_core,
    rich_difference_elements,
    rich_sum_elements,
)
from .incidence import (
    CurveTranslate,
    Line,
    count_incidences_curve,
    count_incidences_grid,
    count_incidences_lines,
    integer_line_family,
    read_lines_csv,
    st_ratio,
    write_lines_csv,
)
from .verifier import (
    CheckResult,
    ScanRow,
    SearchResult,
    check_ids,
    run_check,
    run_scan,
    search_extremal,
)

__version__ = "0.1.0"
