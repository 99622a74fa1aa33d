"""Independent reference for checking `evspin evolve` output.

Nothing here imports evspin.  Spin matrices come from the ladder formulas,
coherent states from exp(-i phi Sz) exp(-i theta Sy)|s,s> with
scipy.linalg.expm, and rho(t) from expm(-iHt) (autonomous) or from
scipy.integrate.solve_ivp with DOP853 (driven).  The direction layout is
the default one documented in evspin.quorum: cos(theta_k) running linearly
from +0.94 to -0.94, cone k twisted by k*pi/(2s+1), n = cone*(2s+1) +
azimuth.

`self_test()` checks the reference against closed forms: spin-1/2 Larmor
precession (static and with a modulated field), the Bohr frequencies of
sz, and the coherent-state overlap formula.
"""

import math

import numpy as np
import scipy.integrate
import scipy.linalg


def spin_matrices(two_s):
    """(sx, sy, sz) in the basis mu = s, s-1, ..., -s."""
    s = two_s / 2.0
    m = s - np.arange(two_s + 1)
    raising = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), k=1).astype(complex)
    lowering = raising.conj().T
    return ((raising + lowering) / 2.0, (raising - lowering) / 2.0j,
            np.diag(m).astype(complex))


def default_directions(two_s):
    """(theta, phi) of the default quorum, cone-major."""
    d = two_s + 1
    if d == 1:
        cones = [math.pi / 2]
    else:
        cones = [math.acos(0.94 * (1 - 2 * k / (d - 1))) for k in range(d)]
    return [(theta, (k * math.pi / d + 2 * math.pi * j / d) % (2 * math.pi))
            for k, theta in enumerate(cones) for j in range(d)]


def coherent_states(two_s, directions):
    """(N, d) array; row n is exp(-i phi Sz) exp(-i theta Sy)|s,s>."""
    _, sy, sz = spin_matrices(two_s)
    top = np.zeros(two_s + 1, dtype=complex)
    top[0] = 1.0
    return np.array([scipy.linalg.expm(-1j * phi * sz) @ scipy.linalg.expm(-1j * theta * sy) @ top
                     for theta, phi in directions])


class Quorum:
    """Coherent states of the default layout, the Gram matrix and e."""

    def __init__(self, two_s):
        self.two_s = two_s
        self.dim = two_s + 1
        self.states = coherent_states(two_s, default_directions(two_s))
        gram = np.abs(self.states.conj() @ self.states.T) ** 2
        eigs = np.linalg.eigvalsh(gram)
        self.gram_condition = float(eigs[-1] / eigs[0])
        # sum_n e_n Q_n = identity  <=>  G e = (1, ..., 1): e . P = Tr rho.
        self.e = np.linalg.solve(gram, np.ones(len(gram)))

    def probabilities(self, rho):
        """P_n = <n|rho|n> for one (d, d) matrix or a stack (k, d, d)."""
        psi = self.states
        return np.einsum("ni,...ij,nj->...n", psi.conj(), rho, psi).real


def hamiltonian(two_s, linear, quadratic=None):
    """sum_i linear[i] s_i + sum_ij quadratic[i][j] (s_i s_j + s_j s_i) / 2."""
    ops = spin_matrices(two_s)
    h = sum(b * op for b, op in zip(linear, ops))
    if quadratic is not None:
        for i in range(3):
            for j in range(3):
                h = h + quadratic[i][j] * (ops[i] @ ops[j] + ops[j] @ ops[i]) / 2.0
    return h


def evolve_autonomous(h, rho0, times):
    """Stack of rho(t) = U rho0 U^dagger with U = expm(-iHt)."""
    out = []
    for t in times:
        u = scipy.linalg.expm(-1j * h * t)
        out.append(u @ rho0 @ u.conj().T)
    return np.array(out)


def evolve_driven(h0, h1, envelope, rho0, times, rtol=1e-12, atol=1e-14):
    """Stack of rho(t) for H(t) = h0 + envelope(t) h1, integrated with DOP853."""
    d = len(h0)

    def rhs(t, y):
        rho = y.reshape(d, d)
        h = h0 + envelope(t) * h1
        return (-1j * (h @ rho - rho @ h)).reshape(-1)

    times = np.asarray(times, dtype=float)
    sol = scipy.integrate.solve_ivp(rhs, (0.0, float(times[-1])), rho0.reshape(-1).astype(complex),
                                    method="DOP853", t_eval=times, rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T.reshape(len(times), d, d)


def cosine_envelope(amplitude, frequency, phase):
    return lambda t: amplitude * math.cos(frequency * t + phase)


def bohr_frequencies(h):
    """Multiset {i (eps_j - eps_k)} of the independently diagonalised H."""
    eps = np.linalg.eigvalsh(h)
    return 1j * (eps[:, None] - eps[None, :]).reshape(-1)


def _expect(ok, what):
    if not ok:
        raise AssertionError(f"reference self-test failed: {what}")


def self_test():
    """Check the reference against closed forms; raises AssertionError."""
    # Spin-1/2 Larmor precession under H = w sz from the +x coherent state:
    # <sigma>(t) = (cos Phi, sin Phi, 0), so P_n = (1 + sin th_n cos(ph_n - Phi)) / 2
    # with Phi(t) = w t, or w t + (a / nu) sin(nu t) for H = (w + a cos nu t) sz.
    q = Quorum(1)
    _, _, sz = spin_matrices(1)
    plus_x = coherent_states(1, [(math.pi / 2, 0.0)])[0]
    rho0 = np.outer(plus_x, plus_x.conj())
    theta = np.array([th for th, _ in default_directions(1)])
    phi = np.array([ph for _, ph in default_directions(1)])
    times = np.linspace(0.0, 7.0, 15)
    w, a, nu = 1.3, 0.7, 2.1

    def closed(big_phi):
        return (1 + np.sin(theta)[None, :] * np.cos(phi[None, :] - big_phi[:, None])) / 2

    static = q.probabilities(evolve_autonomous(w * sz, rho0, times))
    _expect(np.max(np.abs(static - closed(w * times))) < 1e-12, "Larmor precession")
    driven = q.probabilities(evolve_driven(w * sz, sz, cosine_envelope(a, nu, 0.0), rho0, times))
    _expect(np.max(np.abs(driven - closed(w * times + a / nu * np.sin(nu * times)))) < 1e-10,
            "modulated Larmor precession")
    _expect(np.max(np.abs(static @ q.e - 1.0)) < 1e-12, "e . P = Tr rho")

    for two_s in (1, 4, 8):
        sx, sy, sz = spin_matrices(two_s)
        _expect(np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-12, "[sx, sy] = i sz")
        mu = two_s / 2.0 - np.arange(two_s + 1)
        expected = np.sort((mu[:, None] - mu[None, :]).reshape(-1))
        got = bohr_frequencies(sz)
        _expect(np.max(np.abs(got.real)) == 0.0, "Bohr frequencies of sz are imaginary")
        _expect(np.max(np.abs(np.sort(got.imag) - expected)) < 1e-12, "Bohr frequencies of sz")
        # |<n|n'>|^2 = ((1 + cos Theta) / 2)^(2s), Theta the angle between n and n'.
        dirs = default_directions(two_s)[:5]
        psi = coherent_states(two_s, dirs)
        unit = np.array([[math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]
                         for t, p in dirs])
        overlap = np.abs(psi.conj() @ psi.T) ** 2
        _expect(np.max(np.abs(overlap - ((1 + unit @ unit.T) / 2) ** two_s)) < 1e-12,
                "coherent-state overlap")


if __name__ == "__main__":
    self_test()
    print("reference self-test passed")
