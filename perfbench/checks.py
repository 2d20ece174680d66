"""Reference checks for benchmark outputs.

Every function takes a report (the JSON a ``uvlab run`` command prints, or
the dict a direct experiment returns) plus what the reference needs, and
returns ``None`` when the output is correct or a one-line description of
the first miss.  References are closed forms, the bundled manifest, or
bounds that follow from the protocol; none of them is read back from the
output under test.
"""

from __future__ import annotations

import math

TOL = 1e-12
HOEFFDING_CONFIDENCE = 0.99


def near_total_qma2(n: int, violations: int) -> float:
    """Two-proof acceptance of the near-coloring cheat: 1 - 2b / (3 * 4^n)."""
    return 1.0 - 2.0 * violations / (3.0 * 4.0 ** n)


def near_consistency_bell(n: int, k: int) -> float:
    """k-proof consistency acceptance of the one-violation near-coloring
    cheat: accept unless both endpoints of the bad edge are observed."""
    return 2.0 * (1.0 - 2.0 ** -n) ** k - (1.0 - 2.0 ** (1 - n)) ** k


def hoeffding_halfwidth(samples: int, confidence: float = HOEFFDING_CONFIDENCE) -> float:
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))


def close(what: str, got: float, want: float, tol: float = TOL) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{what} = {got!r}, expected {want!r} within {tol:g}"


def _first(*problems) -> str | None:
    return next((p for p in problems if p), None)


def qma2_honest(rep: dict) -> str | None:
    return close("p_total", rep["p_total"], 1.0)


def qma2_near(rep: dict, n: int, violations: int) -> str | None:
    declared = rep.get("declared_violations")
    return _first(
        None if declared == violations
        else f"declared_violations = {declared}, oracle says {violations}",
        close("p_total", rep["p_total"], near_total_qma2(n, violations)))


def qma2_near_mc(rep: dict, n: int, violations: int) -> str | None:
    hw = hoeffding_halfwidth(rep["samples"])
    return _first(qma2_near(rep, n, violations),
                  close("sampled_acceptance", rep["sampled_acceptance"],
                         near_total_qma2(n, violations), hw))


def bell_honest(rep: dict) -> str | None:
    floor = 1.0 - 2.0 ** (-rep["k"] / 40.0)
    return _first(
        close("p_cons", rep["p_cons"], 1.0),
        None if rep["p_total"] >= floor
        else f"p_total = {rep['p_total']!r} below completeness floor {floor!r}")


def bell_near_exact(rep: dict, n: int) -> str | None:
    return close("p_cons", rep["p_cons"], near_consistency_bell(n, rep["k"]))


def bell_near_mc(rep: dict, n: int) -> str | None:
    # ci_halfwidth is reported on p_total = (p_cons + p_unif) / 2
    return close("p_cons", rep["p_cons"], near_consistency_bell(n, rep["k"]),
                  2.0 * rep["ci_halfwidth"])


def not_above(what: str, got: float, bound: float, tol: float = TOL) -> str | None:
    if got <= bound + tol:
        return None
    return f"{what} = {got!r} exceeds {bound!r} by more than {tol:g}"


def bell_random_mc(rep: dict, upper: float) -> str | None:
    """MC consistency against an exact upper bound: the acceptance of the
    first few of the same proofs, which can only drop as proofs are added."""
    return not_above("p_cons", rep["p_cons"], upper, 2.0 * rep["ci_halfwidth"])


def oracle(rep: dict, colorable: bool) -> str | None:
    if rep["colorable"] == colorable:
        return None
    return f"colorable = {rep['colorable']}, manifest says {colorable}"


def seesaw(out: dict, n: int, violations: int) -> str | None:
    lam = out["lambda_max"]
    best = max(out["values"])
    floor = near_total_qma2(n, violations)
    return _first(
        close("lambda_max", lam, 1.0, 1e-9),
        not_above("seesaw best", best, lam, 1e-9),
        None if best >= floor - TOL
        else f"seesaw best = {best!r} below the near-coloring value {floor!r}")
