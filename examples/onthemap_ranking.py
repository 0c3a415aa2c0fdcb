"""Area Comparison ranking: the OnTheMap scenario (Sec 3.2, Figure 2).

The OnTheMap web tool ranks areas (places, within a state) by job count.
This example publishes place-by-sector-by-ownership employment through
the release facade, ranks the cells, and reports how well each private
ranking agrees with the SDL ranking (Spearman's rank correlation) —
overall and for the large-population places a site-selection analyst
would actually compare.  The 10 trials per point are one batched request
each; infeasible (mechanism, eps) pairs are reported as gaps, as in the
paper.

Run:  python examples/onthemap_ranking.py
"""

import numpy as np

from repro.api import ReleaseRequest, ReleaseSession
from repro.engine.evaluate import mechanism_is_feasible
from repro.metrics import STRATUM_LABELS, spearman_correlation

ATTRS = ("place", "naics", "ownership")
TRIALS = 10


def main():
    session = ReleaseSession.from_synthetic(target_jobs=120_000, seed=5)

    rows = []
    for epsilon in (0.5, 1.0, 2.0, 4.0):
        for mechanism in ("log-laplace", "smooth-laplace"):
            request = ReleaseRequest(
                attrs=ATTRS,
                mechanism=mechanism,
                alpha=0.1,
                epsilon=epsilon,
                delta=0.05,
                n_trials=TRIALS,
                seed=1000,
            )
            if not mechanism_is_feasible(mechanism, request.params):
                rows.append([mechanism, epsilon, "-", "-"])
                continue
            result = session.run(request)
            mask = result.mask
            sdl_counts = result.sdl_noisy[mask]
            big = result.strata[mask] == 3
            overall, big_places = [], []
            for noisy in result.trials():
                overall.append(spearman_correlation(noisy[mask], sdl_counts))
                big_places.append(
                    spearman_correlation(noisy[mask][big], sdl_counts[big])
                )
            rows.append(
                [
                    mechanism,
                    epsilon,
                    float(np.mean(overall)),
                    float(np.mean(big_places)),
                ]
            )

    from repro.util import format_table

    print(
        format_table(
            headers=[
                "mechanism",
                "epsilon",
                "Spearman (all places)",
                f"Spearman ({STRATUM_LABELS[3]})",
            ],
            rows=rows,
            title="OnTheMap-style Area Comparison ranking vs the SDL ranking",
        )
    )
    print()
    print(session.ledger.summary())
    print()
    print(
        "Rankings are already near-perfect for eps >= 1-2 (and essentially\n"
        "exact among large places) — a business choosing where to open an\n"
        "establishment gets the same ordered list under provable privacy."
    )


if __name__ == "__main__":
    main()
