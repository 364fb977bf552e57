"""Exact Hurwitz class number tables, Ramanujan-type congruence search and
certification, and holomorphic-projection coefficient combinatorics."""

from .arith import (
    Factorization,
    FundamentalDecomposition,
    factorize,
    fundamental_decomposition,
    is_fundamental,
    kronecker,
    p_part,
    sigma1,
    sqrt_mod,
    unit_count,
)
from .congruence import (
    ArithmeticProgression,
    CongruenceCertificate,
    HolomorphicClass,
    classify_progression,
    ord_bound_report,
    search,
    square_class_check,
    square_class_witness,
    verify_congruence,
)
from .dichotomy import (
    DichotomyCase,
    DichotomyReport,
    check_assumptions,
    classify,
    enumerate_representations,
    hecke_condition,
)
from .holproj import (
    DistinguishedPrimes,
    QSubsetDecomposition,
    SubprogressionWitness,
    exact_projection_coefficient,
    find_distinguished_primes,
    nonhol_coefficient,
    proj_theta_product,
    q_subset_decomposition,
    subprogression_conditions,
    subprogression_construct,
)
from .hurwitz import (
    HurwitzTable,
    HurwitzValue,
    build_table,
    class_number,
    hurwitz,
    hurwitz_via_formula,
    read_table_csv,
    write_table_csv,
)
from .qseries import (
    QSeries,
    eisenstein_hol,
    theta_series,
    u_operator,
    u_theta_decomposition,
)

__version__ = "0.1.0"
