"""Above-threshold bounds for spectral estimators, as random-matrix theory gives them.

Above the spectral threshold a correct estimator carries no information, but
at size p its statistics are not small constants over p:

* Overlap.  For a sub-critical rank-one spike (Baik-Ben Arous-Peche 2005,
  Knowles-Yin 2013) p cos^2 -> chi^2_1 / (1 - d)^2, where d < 1 is the spike
  strength relative to its critical value (d = sqrt(rho_v^2 / Delta) for
  PCA).  The constant is tens to hundreds near threshold, and inside the
  critical window |1 - d| <~ p^{-1/3} it grows further.  So the bound is the
  critical-window scale p^{-1/3} on the mean of overlap^2 over a few noise
  draws: overlap^2 is O(1/p) above threshold and Theta(1) below it.
* Top eigenvalue.  With no outlier, lambda_1 sits at the bulk edge lambda_max
  on the Tracy-Widom scale sigma_TW = (pi A)^{-2/3} N^{-2/3}, where
  nu(x) ~ A sqrt(lambda_max - x) near the edge of the limiting law of the N
  non-trivial eigenvalues (for the GOE, A = 1/pi gives sigma_TW = N^{-2/3}).
  For beta = 1, P(TW_1 > 4) = 2.2e-4 (mean -1.21, sd 1.27; values from the
  Fredholm determinant of Ferrari-Spohn), so "no outlier" reads
  lambda_1 <= lambda_max + TW_TAIL sigma_TW.
"""

import math

from spikedgen import rmt
from spikedgen.cli import splitmix64
from spikedgen.priors import Wigner

N_NOISE_DRAWS = 8
TW_TAIL = 4.0


def noise_seeds(seed: int) -> list[int]:
    """The given noise seed followed by N_NOISE_DRAWS - 1 seeds derived from it."""
    return [seed] + [splitmix64(seed, j) for j in range(1, N_NOISE_DRAWS)]


def overlap_bound(p: int) -> float:
    """Critical-window scale p^{-1/3} for the noise-averaged squared overlap."""
    return p ** (-1.0 / 3.0)


def tw_edge(alpha: float, delta: float, k: int) -> tuple[float, float]:
    """(lambda_max, sigma_TW) of the linear-Wigner LAMP bulk with k non-zero eigenvalues.

    A is the analytic square-root edge coefficient `EdgeResult.edge_coefficient`.
    """
    edge = rmt.solve_s_edge(rmt.base_law(Wigner(), delta), alpha)
    return edge.lambda_max, (math.pi * edge.edge_coefficient) ** (-2.0 / 3.0) * k ** (-2.0 / 3.0)
