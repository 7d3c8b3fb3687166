"""Cheap-first portfolio vs decider-only termination analysis on the corpus.

For every TGD set of the generator corpus (linear / guarded / sticky /
weakly-acyclic families, the X10 profile), this workload runs both:

* the **portfolio** cascade
  (:class:`repro.termination.portfolio.TerminationPortfolio`): whole-set
  certificates → c-stratification → hierarchical layers → decider
  fallthrough; and
* the **decider-only** baseline
  (:class:`repro.termination.analyzer.TerminationAnalyzer.analyze`),
  which classifies and launches the automata procedures directly.

Recorded per set: which cascade stage settled it, both verdicts, and
best-of-``repeats`` timings.  The report section aggregates the three
acceptance floors:

* **agreement** — the portfolio never contradicts the deciders (its cheap
  stages only answer a sound ``ALL_TERMINATING`` or fall through, so any
  contradiction is a soundness bug — gated as an equivalence failure);
* **settled fraction** — at least ``PORTFOLIO_SETTLED_FLOOR`` of the
  corpus settles without launching an automata decider;
* **settled speedup** — on the settled subset, the cascade is strictly
  faster than decider-only (summed wall time ratio above
  ``PORTFOLIO_SPEEDUP_FLOOR``).

Run standalone (``python benchmarks/bench_portfolio.py``) for a table, or
let ``benchmarks/harness.py`` fold the section into ``BENCH_chase.json``
(gated by ``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

if __package__ in (None, ""):  # allow direct imports when run by pytest/harness
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.termination.analyzer import TerminationAnalyzer
from repro.termination.portfolio import TerminationPortfolio, settled_cheaply
from repro.tgds.generators import GeneratorProfile, corpus

#: Acceptance floor: fraction of corpus TGD sets the cascade must settle
#: without launching an automata decider.
PORTFOLIO_SETTLED_FLOOR = 0.5

#: Acceptance floor: summed decider-only seconds over summed portfolio
#: seconds on the settled subset ("strictly faster than decider-only").
PORTFOLIO_SPEEDUP_FLOOR = 1.0

#: The X10 corpus profile (matches tests/chase/test_seminaive.py): dense
#: existentials, mixing genuinely diverging sets with terminating ones.
PROFILE = GeneratorProfile(
    num_predicates=2, max_arity=2, num_tgds=3, existential_probability=0.8
)

FAMILIES = ("linear", "guarded", "sticky", "weakly-acyclic")


def portfolio_corpus(
    per_family: int, base_seed: int = 0
) -> List[Tuple[str, list]]:
    """``(family, tgds)`` pairs: ``per_family`` generated sets per family."""
    sets: List[Tuple[str, list]] = []
    for family in FAMILIES:
        for tgds in corpus(family, per_family, base_seed=base_seed, profile=PROFILE):
            sets.append((family, tgds))
    return sets


def _best_of(fn, repeats: int) -> Tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _stage_of(verdict) -> str:
    """The histogram bucket of a verdict's deciding stage."""
    if verdict.method.startswith("portfolio-"):
        return verdict.method[len("portfolio-"):].split(":")[0]
    return "decider"


def measure_portfolio(per_family: int, repeats: int) -> dict:
    """The ``portfolio`` report section of ``BENCH_chase.json``."""
    sets = portfolio_corpus(per_family)
    portfolio = TerminationPortfolio()
    analyzer = TerminationAnalyzer()
    rows: List[dict] = []
    stage_counts: Dict[str, int] = {}
    agreement = True
    settled_portfolio_seconds = 0.0
    settled_decider_seconds = 0.0
    settled = 0
    for index, (family, tgds) in enumerate(sets):
        portfolio_seconds, pv = _best_of(lambda: portfolio.analyze(tgds), repeats)
        decider_seconds, dv = _best_of(lambda: analyzer.analyze(tgds), repeats)
        contradicts = (pv.is_terminating and dv.is_nonterminating) or (
            pv.is_nonterminating and dv.is_terminating
        )
        agreement = agreement and not contradicts
        cheap = settled_cheaply(pv)
        if cheap:
            settled += 1
            settled_portfolio_seconds += portfolio_seconds
            settled_decider_seconds += decider_seconds
        stage = _stage_of(pv)
        stage_counts[stage] = stage_counts.get(stage, 0) + 1
        rows.append(
            {
                "set": index,
                "family": family,
                "tgds": len(tgds),
                "portfolio_status": pv.status,
                "portfolio_method": pv.method,
                "decider_status": dv.status,
                "decider_method": dv.method,
                "stage": stage,
                "settled_cheaply": cheap,
                "agrees": not contradicts,
                "portfolio_seconds": round(portfolio_seconds, 6),
                "decider_seconds": round(decider_seconds, 6),
            }
        )
    total = len(sets)
    settled_fraction = settled / total if total else 0.0
    settled_speedup = (
        round(settled_decider_seconds / settled_portfolio_seconds, 2)
        if settled_portfolio_seconds > 0
        else 0.0
    )
    return {
        "workload": "portfolio_cascade",
        "per_family": per_family,
        "repeats": repeats,
        "total": total,
        "settled": settled,
        "settled_fraction": round(settled_fraction, 4),
        "settled_floor": PORTFOLIO_SETTLED_FLOOR,
        "agreement": agreement,
        "stage_counts": stage_counts,
        "settled_portfolio_seconds": round(settled_portfolio_seconds, 6),
        "settled_decider_seconds": round(settled_decider_seconds, 6),
        "settled_speedup": settled_speedup,
        "speedup_floor": PORTFOLIO_SPEEDUP_FLOOR,
        "sets": rows,
    }


def main() -> int:
    section = measure_portfolio(per_family=6, repeats=3)
    print(f"{'set':>4} {'family':<16} {'stage':<18} {'portfolio':<20} "
          f"{'decider':<20} {'pf s':>9} {'dec s':>9}")
    for row in section["sets"]:
        print(
            f"{row['set']:>4} {row['family']:<16} {row['stage']:<18} "
            f"{row['portfolio_status']:<20} {row['decider_status']:<20} "
            f"{row['portfolio_seconds']:>9.4f} {row['decider_seconds']:>9.4f}"
        )
    print(
        f"settled {section['settled']}/{section['total']} "
        f"({section['settled_fraction']:.0%}, floor "
        f"{section['settled_floor']:.0%}), agreement={section['agreement']}, "
        f"settled-subset speedup {section['settled_speedup']}x "
        f"(floor {section['speedup_floor']}x), stages={section['stage_counts']}"
    )
    ok = (
        section["agreement"]
        and section["settled_fraction"] >= PORTFOLIO_SETTLED_FLOOR
        and section["settled_speedup"] > PORTFOLIO_SPEEDUP_FLOOR
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
