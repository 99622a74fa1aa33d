"""Property tests of the generator's certified eigenbasis.

Hamiltonians are drawn at random, from degenerate special cases (sz, sz^2,
0, identity) and as pure fields, for every 2s from 0 to 8 and at 2s = 10.
H = sz is also checked at 2s = 10 and 12.  For each one the eigenbasis certificate must lie within the bound
derived in ``build_generator``, a numerical eigendecomposition of M must
reproduce the Bohr frequencies, and exact propagation must compose:
P(t1 + t2) = exp(t2 M) exp(t1 M) P0.

The self-check records of the quorum and the generator are checked too,
for every 2s from 0 to 10: unique names, finite bounds, every residual
within its bound, and each named residual attribute read from its record.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evspin import (
    IllConditionedQuorumWarning,
    Spin,
    bohr_spectrum,
    build_generator,
    build_quorum,
    default_config,
    propagate_exact,
    random_density_matrix,
    random_hermitian,
    rho_to_pvec,
    spin_operators,
)
from evspin.dynamics import _lexsorted

KINDS = ("random", "sz", "sz2", "zero", "identity", "field")
EPS = np.finfo(float).eps

times = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def hamiltonian(two_s, kind, seed, strength, field):
    ops = spin_operators(Spin(two_s))
    sz = np.asarray(ops.sz)
    if kind == "random":
        return strength * random_hermitian(two_s + 1, np.random.default_rng(seed))
    if kind == "sz":
        return sz
    if kind == "sz2":
        return strength * sz @ sz
    if kind == "zero":
        return np.zeros((two_s + 1, two_s + 1))
    if kind == "identity":
        return strength * np.eye(two_s + 1)
    return sum(b * np.asarray(op) for b, op in zip(field, (ops.sx, ops.sy, sz)))


def check_properties(q, h, seed, t1, t2):
    gen = build_generator(h, q)

    residual = float(np.max(np.abs(gen.matrix @ gen.eigenvectors
                                   - gen.eigenvectors * gen.eigenvalues)))
    assert residual == gen.bohr_deviation
    bound = (2 * q.size * q.dim * EPS * float(np.max(np.abs(gen.h_eigenvalues)))
             * float(np.max(np.abs(q.duals))))
    assert gen.bohr_deviation <= bound

    computed = _lexsorted(np.linalg.eigvals(gen.matrix))
    assert np.max(np.abs(computed - bohr_spectrum(gen.h_eigenvalues))) < 1e-8

    p0 = rho_to_pvec(random_density_matrix(q.dim, np.random.default_rng(seed)), q)
    direct = propagate_exact(gen, p0, t1 + t2)
    composed = propagate_exact(gen, propagate_exact(gen, p0, t1), t2)
    assert np.max(np.abs(direct.values - composed.values)) < 1e-9


@settings(max_examples=80, deadline=None)
@given(two_s=st.integers(min_value=0, max_value=8), kind=st.sampled_from(KINDS),
       seed=seeds, strength=st.floats(min_value=0.1, max_value=2.0),
       field=st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 3),
       t1=times, t2=times)
def test_eigenbasis_properties(quorum_for, two_s, kind, seed, strength, field, t1, t2):
    h = hamiltonian(two_s, kind, seed, strength, field)
    check_properties(quorum_for(two_s), h, seed, t1, t2)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=seeds, strength=st.floats(min_value=0.1, max_value=2.0),
       field=st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 3),
       t1=times, t2=times)
def test_eigenbasis_properties_spin_five(quorum_for, kind, seed, strength, field, t1, t2):
    h = hamiltonian(10, kind, seed, strength, field)
    check_properties(quorum_for(10), h, seed, t1, t2)


def test_sz_at_spin_five(quorum_for):
    check_properties(quorum_for(10), hamiltonian(10, "sz", 0, 1.0, None), 0, 0.7, 1.9)


def test_sz_at_spin_six():
    # Outside the supported s <= 5, but with kappa(G) = 1.6e9 the duals must
    # still pass the 1e-9 duality check: their error scales as sqrt(kappa(G)).
    with pytest.warns(IllConditionedQuorumWarning):
        q = build_quorum(default_config(Spin(12)))
    check_properties(q, hamiltonian(12, "sz", 0, 1.0, None), 0, 0.7, 1.9)


QUORUM_RESIDUALS = {"condition_number": "condition_number",
                    "duality_residual": "duality_residual",
                    "identity_residual": "identity_expansion_residual"}
GENERATOR_RESIDUALS = {name: name for name in ("imag_residue", "cross_check_deviation",
                                               "conservation_residual", "bohr_deviation")}


@pytest.mark.parametrize("two_s", range(11))
@settings(max_examples=6, deadline=None)
@given(kind=st.sampled_from(("random", "sz")), seed=seeds)
def test_check_records(quorum_for, two_s, kind, seed):
    q = quorum_for(two_s)
    gen = build_generator(hamiltonian(two_s, kind, seed, 1.0, None), q)
    for owner, attributes in ((q, QUORUM_RESIDUALS), (gen, GENERATOR_RESIDUALS)):
        records = {check.name: check for check in owner.checks}
        assert len(records) == len(owner.checks)
        for check in owner.checks:
            assert math.isfinite(check.bound)
            assert check.residual <= check.bound, check
        for attribute, name in attributes.items():
            assert getattr(owner, attribute).hex() == records[name].residual.hex()
