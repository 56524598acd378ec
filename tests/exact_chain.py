"""Closed forms of the Gaussian-trial harmonic walk, for coverage tests.

With the trial exp(-alpha x^2 / 2) in V = x^2 / 2 the walker steps
x' = phi x + sqrt(eps) z, phi = 1 - eps alpha, an AR(1) chain at the
walk's own finite eps.  Its local energy W = alpha/2 + (1 - alpha^2) x^2/2
is a quadratic form of a Gaussian, so the stationary variance, the mean
of W, its autocovariance and the second-order correction the estimators
target at that eps all have closed forms.
"""


def variance(alpha: float, eps: float) -> float:
    """Stationary <x^2> = 1 / (alpha (2 - eps alpha))."""
    return 1.0 / (alpha * (2.0 - eps * alpha))


def mean_w(alpha: float, eps: float) -> float:
    """<W> = alpha/2 + (1 - alpha^2) sigma^2 / 2."""
    return 0.5 * alpha + 0.5 * (1.0 - alpha**2) * variance(alpha, eps)


def autocovariance(alpha: float, eps: float, k: int) -> float:
    """c(k) = ((1 - alpha^2)^2 sigma^4 / 2) phi^(2k) of W at lag k steps."""
    phi = 1.0 - eps * alpha
    return 0.5 * (1.0 - alpha**2) ** 2 * variance(alpha, eps) ** 2 * phi ** (2 * k)


def epsilon_2(alpha: float, eps: float) -> float:
    """-eps (c(0)/2 + sum_{k>=1} c(k)) = -(1 - alpha^2)^2 (1 + phi^2) / (4 alpha^3 (2 - eps alpha)^3)."""
    phi = 1.0 - eps * alpha
    return -((1.0 - alpha**2) ** 2) * (1.0 + phi**2) / (4.0 * alpha**3 * (2.0 - eps * alpha) ** 3)
