"""Reference code for the spectral tests.

complete_homogeneous is the complete homogeneous symmetric polynomial
h_l that g_n^(l) carries over each chain of denominators; spectral.g_value
distributes the same derivative slots over matrix-vector passes, and the
brute-force chain sums of the tests compare against this direct form.
"""

from typing import Sequence


def complete_homogeneous(l: int, xs: Sequence[float]) -> float:
    """Complete homogeneous symmetric polynomial h_l(X_1..X_m).

    Sum of products over all multisets of size l drawn from xs; h_0 = 1.
    Uses the prefix recurrence
    h_l(X_1..X_m) = h_l(X_1..X_{m-1}) + X_m h_{l-1}(X_1..X_m).
    """
    if l < 0:
        raise ValueError(f"complete_homogeneous requires l >= 0, got {l}")
    # table over degrees 0..l, extended one variable at a time
    table = [1.0] + [0.0] * l
    for x in xs:
        for j in range(1, l + 1):
            table[j] += x * table[j - 1]
    return table[l]
