"""Numerical laboratory for minimizing weighted gcd sums and multiplicative
energy, with applications to short character sums, theta non-vanishing
counts, and low moments of character sums."""

from .arith import FactorSieve, build_sieve, is_prime
from .energy import (
    EnergyReport,
    asym_energy,
    energy_histogram,
    energy_level_exact,
    energy_parametrized,
    energy_quadruple,
    energy_ratio,
    h_count,
    minimize_energy_over_levels,
    multiplication_table_count,
    set_energy,
)
from .characters import (
    BurgessReport,
    Character,
    CharacterTable,
    build_table,
    burgess_envelope,
    burgess_max_n,
    burgess_scan,
    char_sum,
    congruence_count,
    lattice_count,
    weighted_congruence_count,
    weil_moment_check,
)
from .errors import (
    ConvergenceError,
    DomainError,
    GcdLabError,
    InvalidArgumentError,
    ResourceLimitError,
    SolverError,
)
from .exponents import (
    VariationalConstants,
    delta_constants,
    energy_upper_exponent,
    gcd_upper_exponent,
    lambda_half,
    lambda_one_two,
    lambda_two_one,
    lower_bound_level,
    rate_function,
    solve_kappa_star_gcd,
    solve_kappa_two,
)
from .gcdsums import (
    GcdSumReport,
    Kernel,
    crossed_energy,
    exact_minimize,
    gcd_quadratic_form,
    kernel_matrix,
    minimize_over_levels,
    normalized_ratio,
    set_gcd_sum,
    t0_max_profile,
)
from .small_moments import (
    HolderChainReport,
    HolderExponents,
    char_moment,
    char_moment_closed_form,
    holder_chain_check,
    mollified_fourth,
)
from .theta import theta as theta_value
from .theta import (
    LowerBoundReport,
    MomentReport,
    ThetaValue,
    even_characters,
    lower_bound_report,
    moment_report,
    mollifier,
    nonvanishing_count,
    orthogonality_sum,
)
from .weights import (
    WeightVector,
    all_ones,
    indicator,
    kappa_to_k,
    omega_level_weights,
    omega_tail_weights,
)

__version__ = "0.1.0"
