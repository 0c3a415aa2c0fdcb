"""The paper's primary contribution: (α, ε)-ER-EE privacy and mechanisms.

- :mod:`repro.core.params` — privacy parameters and feasibility rules
  (including the Table 2 minimum-ε computation);
- :mod:`repro.core.neighbors` — strong/weak α-neighbor relations
  (Definitions 7.1 and 7.3) and the induced database metric (Sec 7.2);
- :mod:`repro.core.log_laplace` — Algorithm 1 (Log-Laplace mechanism);
- :mod:`repro.core.smooth_sensitivity` — the extended smooth-sensitivity
  framework (Definitions 8.1–8.3, Theorem 8.4, Lemmas 8.5–8.6, 9.1);
- :mod:`repro.core.smooth_gamma` — Algorithm 2 (Smooth Gamma);
- :mod:`repro.core.smooth_laplace` — Algorithm 3 (Smooth Laplace, (α,ε,δ));
- :mod:`repro.core.composition` — Theorems 7.3–7.5 budget rules,
  including the d·ε cost of worker-attribute marginals under weak privacy;
- :mod:`repro.core.release` — end-to-end marginal release;
- :mod:`repro.core.definitions` — Table 1 (definitions × requirements).
"""

from repro.core.composition import (
    EREEAccountant,
    marginal_budget,
    worker_domain_size,
)
from repro.core.definitions import PRIVACY_DEFINITIONS, PrivacyDefinition
from repro.core.log_laplace import LogLaplace
from repro.core.neighbors import (
    alpha_step_distance,
    is_strong_alpha_neighbor,
    is_weak_alpha_neighbor,
)
from repro.core.params import EREEParams, max_alpha, min_epsilon
from repro.core.publication import (
    Product,
    PublicationResult,
    PublicationSuite,
    qwi_style_suite,
)
from repro.core.release import (
    MarginalRelease,
    ReleaseStatistics,
    compute_release_statistics,
    release_from_statistics,
    release_marginal,
    release_marginal_stack,
)
from repro.core.smooth_gamma import SmoothGamma
from repro.core.smooth_laplace import SmoothLaplace
from repro.core.smooth_sensitivity import (
    GammaAdmissible,
    LaplaceAdmissible,
    sample_gamma4,
    smooth_sensitivity_of_counts,
)

__all__ = [
    "EREEParams",
    "min_epsilon",
    "max_alpha",
    "is_strong_alpha_neighbor",
    "is_weak_alpha_neighbor",
    "alpha_step_distance",
    "LogLaplace",
    "SmoothGamma",
    "SmoothLaplace",
    "GammaAdmissible",
    "LaplaceAdmissible",
    "sample_gamma4",
    "smooth_sensitivity_of_counts",
    "EREEAccountant",
    "marginal_budget",
    "worker_domain_size",
    "MarginalRelease",
    "ReleaseStatistics",
    "compute_release_statistics",
    "release_from_statistics",
    "release_marginal",
    "release_marginal_stack",
    "Product",
    "PublicationSuite",
    "PublicationResult",
    "qwi_style_suite",
    "PRIVACY_DEFINITIONS",
    "PrivacyDefinition",
]
