"""Build measurement quorums and inspect their geometry and conditioning.

A spin-s state is fixed by (2s+1)^2 numbers.  This demo builds the default
direction sets that deliver those numbers as probabilities, prints the
cone/azimuth layout, and shows the two quantities that decide whether the
set is usable in practice: the smallest Gram eigenvalue (informational
completeness) and the condition number (noise amplification).
"""

import numpy as np

from evspin import (
    Spin,
    build_quorum,
    default_config,
    quorum_from_document,
    quorum_to_document,
)

print("=" * 70)
print("Direction layout for s = 1 (three cones, three azimuths each)")
print("=" * 70)
quorum = build_quorum(default_config(Spin(2)))
print(f"{'n':>3} {'cone':>4} {'azimuth':>7} {'theta':>8} {'phi':>8}")
for n, direction in enumerate(quorum.directions):
    cone, azimuth = divmod(n, quorum.dim)
    print(f"{n:>3} {cone:>4} {azimuth:>7} {direction.theta:>8.4f} {direction.phi:>8.4f}")

print()
print("Gram matrix (pairwise overlap probabilities |<n|n'>|^2):")
with np.printoptions(precision=3, suppress=True):
    print(quorum.gram)

print()
print("=" * 70)
print("Conditioning across spin values")
print("=" * 70)
print(f"{'s':>5} {'points':>7} {'min eig':>10} {'condition':>11} "
      f"{'duality':>10} {'identity':>10}")
for two_s in range(0, 11):
    q = build_quorum(default_config(Spin(two_s)))
    print(f"{two_s / 2:>5.1f} {q.size:>7} {q.min_gram_eigenvalue:>10.2e} "
          f"{q.condition_number:>11.2e} "
          f"{q.duality_residual:>10.1e} {q.identity_residual:>10.1e}")

print()
print("Duality holds by construction: (2s+1)^-1 Tr[Q_n dual_m] = delta_nm.")
print("The identity expansion sum_n Tr[dual_n] Q_n = (2s+1) * 1 underlies the")
print("conservation law used by the dynamics demos.")

print()
print("=" * 70)
print("Export / import round trip")
print("=" * 70)
document = quorum_to_document(quorum)
print("document head:", document[:120].replace("\n", " "), "...")
rebuilt = quorum_from_document(document)
print("rebuilt matches:", np.allclose(rebuilt.gram, quorum.gram))
print("(projectors and duals are recomputed on import, never deserialized,")
print(" so duality is guaranteed by construction rather than trusted)")
