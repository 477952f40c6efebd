"""incilab: exact point-line incidence experiments in rational 3-space."""

from .algebra import (
    NEG_INF,
    DirectionalSystem,
    TriPoly,
    UniPoly,
    common_factor,
    coprimality_certificate,
    count_real_roots,
    directional_system,
    divides_by_plane,
    is_cone_with_apex,
    line_in_zero_set,
    mv_gcd,
    plane_poly,
    primitive_normalize,
    restrict_to_line,
    sign_gap_samples,
    sturm_chain,
)
from .bounds import (
    BoundParams,
    DegreePlan,
    MidrangeError,
    OutOfRangeError,
    alpha_recurrence_large,
    alpha_recurrence_small,
    alpha_sequence,
    amn_coefficient,
    degree_plan,
    gk_bound,
    midrange_bound,
    st2d_bound,
    trivial_bound,
)
from .configs import (
    ConfigParseError,
    GeneratorSpec,
    concurrent,
    coplanar_pack,
    elekes2d,
    generate,
    grid3d,
    load_config,
    random_config,
    ruled_surface,
    save_config,
)
from .geom import (
    Rational3Point,
    RationalLine,
    RationalPlane,
    canonical_line,
    plane_through_lines,
    point_on_line,
    primitive_int_vector,
)
from .incidence import (
    Configuration,
    DegeneracyError,
    IncidenceTally,
    InvalidConfigurationError,
    Quadric,
    assign_to_components,
    count_incidences,
    max_coplanar_lines,
    regulus_through,
    richness_histogram,
)
from .partition import (
    PartitionBudgetError,
    PartitionPoly,
    build_partition,
    cell_occupancy,
    classes_crossed,
    classify_lines,
    classify_points,
    degree_budget,
    level_degree_cap,
)
from .pipeline import (
    IncidenceReport,
    PipelineError,
    StageReport,
    WindowError,
    full_report,
    run_stage1,
    run_stage2,
    write_csv,
    write_report_json,
)

__version__ = "0.1.0"
