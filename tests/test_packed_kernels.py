"""The packed integer lap^k pullback against its tuple-key, rational form.

metric._laplacian_functional computes on packed exponent keys
(jets._Packing) and integer numerators over Lg^k.  Its tables are compared
with tests/dense_oracles.py::fraction_laplacian_functional on fresh metrics
(empty caches), on every catalog label, on cp:n=10 at k=4, and on a .pot
potential whose g_inv has non-unit denominators, so Lg > 1.  The inverse and
log1p kernels are compared with their oracles in test_graded_inverse.py and
test_jets.py.
"""

from dataclasses import replace
from math import lcm

import pytest

from kahlerlap.dsl import elaborate, parse_potential_file
from kahlerlap.metric import _laplacian_functional, metric_from_potential

from dense_oracles import fraction_laplacian_functional
from test_acceptance import ALL_LABELS

LABELS = ALL_LABELS + ["product(cp:n=1;cp:n=1)", "dual(grassmannian:k=2,N=4)"]
POT_WITH_DENOMINATORS = """dim 2
2*modsq(z(1)) + 3*modsq(z(2)) + 1/2*modsq(z(1))*modsq(z(2))
  + log(1 + 1/3*modsq(z(1))*modsq(z(1) + z(2)))
"""


def fresh(m):
    """The same metric with empty lap^k and pullback caches."""
    return replace(m, _functionals={}, _ginv_index=None, _einstein=None)


def assert_tables_match(m, ks):
    m = fresh(m)
    for k in ks:
        assert _laplacian_functional(m, k) == fraction_laplacian_functional(m, k)


@pytest.mark.parametrize("label", LABELS)
def test_catalog_tables_match_fraction_pullback(spaces, label):
    assert_tables_match(spaces(label, 8).metric, (1, 2, 3))


def test_cp10_k4_matches_fraction_pullback(spaces):
    assert_tables_match(spaces("cp:n=10", 8).metric, (4,))


def test_pot_with_denominators_matches_fraction_pullback():
    n, node = parse_potential_file(POT_WITH_DENOMINATORS)
    m = metric_from_potential(elaborate(node, n, 8))
    denominators = [
        c.denominator for row in m.g_inv.entries for e in row for c in e.coeffs.values()
    ]
    assert lcm(*denominators) > 1
    assert_tables_match(m, (1, 2, 3))
