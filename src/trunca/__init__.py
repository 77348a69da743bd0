"""Right-truncated copulas.

Conditioning a random vector with copula C on ``U <= t`` yields a new copula
C_t.  This package computes C_t exactly for Archimedean, outer-power and
nested-Archimedean models (tilted-generator closed forms) and for bivariate
Marshall-Olkin models (exact section inverses), and numerically for any other
model; it samples C_t through frailty constructions or a generic rejection
oracle, and exposes tail-dependence and Kendall-distribution
analytics plus a CLI over JSON model specs.
"""

from .generators import (
    AMHGenerator,
    ClaytonGenerator,
    FrankGenerator,
    Generator,
    GumbelGenerator,
    IndependenceGenerator,
    JoeGenerator,
    OuterPowerGenerator,
    TiltedGenerator,
    generator,
    log1mexp,
)
from .copulas import (
    ArchimedeanCopula,
    ComonotoneCopula,
    GeneralTruncation,
    IndependenceCopula,
    MarshallOlkinCopula,
    ModelTruncation,
    MOTruncation,
    NestedArchimedeanCopula,
    SurvivalCopula,
    TruncatedCopula,
    TruncationPoint,
    box_mass,
    ev_scaling_check,
    survival,
    truncate_general,
    truncated_cdf,
)
from .frailty import (
    rng_stream,
    sample_frailty,
    sample_sibuya,
    sample_stable,
    sample_tilted_sibuya,
    sample_tilted_stable,
)
from .sampling import (
    SampleMatrix,
    SamplingError,
    empirical_copula_distance,
    oracle_sample,
    pseudo_observations,
    sample_archimedean,
    sample_model,
    sample_truncated,
    transform_margins,
    write_csv,
    write_meta,
)
from .analytics import (
    TailDepReport,
    empirical_kendall_tau,
    empirical_tail_dep,
    kendall_dist_truncated,
    model_tail_dep,
    tail_dep_exchangeable_equal_t,
    tail_dep_tilted,
)
from .modelspec import (SCHEMA, generator_from_dict, generator_to_dict, load_model, model_from_dict,
                        model_to_dict, save_model)

__version__ = "0.1.0"
