"""Library reports are plain values: the same inputs give equal reports."""

import pytest

from gcdlab.characters import burgess_scan
from gcdlab.energy import energy_ratio
from gcdlab.gcdsums import Kernel, normalized_ratio
from gcdlab.small_moments import holder_chain_check
from gcdlab.theta import moment_report
from gcdlab.weights import all_ones

REPORTS = {
    "energy_ratio": lambda sieve: energy_ratio(all_ones(40)),
    "normalized_ratio": lambda sieve: normalized_ratio(all_ones(40), Kernel.T1, sieve, "grouped"),
    "burgess_scan": lambda sieve: burgess_scan(1009, 40, 2, sieve, t0max=2.5, offsets=16),
    "moment_report": lambda sieve: moment_report(331, 1.0, all_ones(10)),
    # a sieve makes lower_bound a number, not NaN (NaN != NaN)
    "holder_chain_check": lambda sieve: holder_chain_check(499, 15, 1.5, all_ones(15), sieve),
}


@pytest.mark.parametrize("name", list(REPORTS))
def test_identical_calls_give_equal_reports(name, sieve_small):
    first, second = (REPORTS[name](sieve_small) for _ in range(2))
    assert first == second
