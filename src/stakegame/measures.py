"""Decentralization indices, token-value evaluation, and model validators.

The default measure is the tau-decentralization index: the minimum number of
parties that together hold strictly more than a tau fraction of the total
stake (tau = 1/2 is the Nakamoto index).  Arbitrary custom measures are
accepted only by the axiom checker, so that its violation reporting can be
exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .core import ONE, AffineValue, Instance, ScalarLike, TableValue, ValueFunction, scalar

# A measure maps a stake multiset (tuple of Fractions) to a positive integer.
Measure = Callable[[Tuple[Fraction, ...]], int]


def tau_decentralization_index(stakes: Iterable[ScalarLike], tau: ScalarLike) -> int:
    """Minimum number of parties controlling strictly more than a tau fraction.

    Permutation- and scale-invariant; a singleton always yields 1.  Raises if
    every stake is zero (the fraction is undefined) or tau is outside (0, 1).
    """
    tau = scalar(tau)
    if not 0 < tau < 1:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    values = sorted(
        (s if isinstance(s, Fraction) else scalar(s) for s in stakes), reverse=True
    )
    if not values:
        raise ValueError("empty stake multiset")
    if any(s < 0 for s in values):
        raise ValueError("negative stake")
    total = sum(values)
    if total == 0:
        raise ValueError("all stakes are zero; fraction of total is undefined")
    threshold = tau * total
    running = Fraction(0)
    for k, s in enumerate(values, start=1):
        running += s
        if running > threshold:
            return k
    raise AssertionError("unreachable: full sum exceeds any tau < 1 fraction")


def max_attainable_index(n: int, tau: ScalarLike) -> int:
    """Largest tau-index reachable with n positive stakes (equal stakes attain it)."""
    tau = scalar(tau)
    if n < 1:
        raise ValueError("need at least one player")
    # smallest k with k/n > tau
    k = int(tau * n) + 1
    return min(n, k)


def tau_index_measure(tau: ScalarLike) -> Measure:
    """The tau-index as a measure function usable by the axiom checker."""
    tau = scalar(tau)
    return lambda stakes: tau_decentralization_index(stakes, tau)


@dataclass
class AxiomReport:
    """Exhaustive-check result for the two decentralization-measure conditions."""

    checked: int = 0
    singleton_violations: List[str] = field(default_factory=list)
    removal_violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.singleton_violations or self.removal_violations)

    @property
    def violations(self) -> List[str]:
        return self.singleton_violations + self.removal_violations


def check_decentralization_axioms(
    measure: Measure,
    n_max: int,
    stake_grid: Sequence[ScalarLike],
) -> AxiomReport:
    """Enumerate every stake multiset with entries from the grid, size <= n_max.

    Condition 1: a singleton must attain the minimum value of the measure over
    the whole enumeration.  Condition 2: whenever removing a maximum-stake
    player does not raise the measure, removing any other player must not
    raise it either.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    grid = sorted({scalar(s) for s in stake_grid})
    if not grid:
        raise ValueError("empty stake grid")
    report = AxiomReport()

    def evaluate(multiset: Tuple[Fraction, ...]) -> Optional[int]:
        try:
            return measure(multiset)
        except ValueError:
            return None  # e.g. all-zero submultisets; nothing to check

    all_values = []
    singleton_values = []
    for size in range(1, n_max + 1):
        for multiset in combinations_with_replacement(grid, size):
            d = evaluate(multiset)
            if d is None:
                continue
            report.checked += 1
            all_values.append((multiset, d))
            if size == 1:
                singleton_values.append((multiset, d))
                continue
            top = multiset[-1]  # combinations are sorted ascending
            without_top = evaluate(multiset[:-1])
            if without_top is None or d < without_top:
                continue
            for idx in range(size - 1):
                if multiset[idx] == top:
                    continue
                reduced = multiset[:idx] + multiset[idx + 1 :]
                d_reduced = evaluate(reduced)
                if d_reduced is not None and d < d_reduced:
                    report.removal_violations.append(
                        f"d{multiset} = {d} >= d(minus max) = {without_top} "
                        f"but d(minus {multiset[idx]}) = {d_reduced}"
                    )
    # default: no multiset could be evaluated (e.g. an all-zero grid)
    minimum = min((d for _, d in all_values), default=None)
    for multiset, d in singleton_values:
        if d > minimum:
            report.singleton_violations.append(
                f"singleton {multiset} has value {d} > enumeration minimum {minimum}"
            )
    return report


def token_value(d: int, vf: ValueFunction) -> Fraction:
    """Evaluate the value function at decentralization level d (>= 1)."""
    if d < 1:
        raise ValueError(f"decentralization level must be >= 1, got {d}")
    return vf(d)


@dataclass
class AlignmentReport:
    """Pairs of attainable value levels failing (or only weakly meeting) alignment.

    Each entry is ``(v1, v2, required_stake)``: alignment of the pair needs
    every stake to exceed ``required_stake = v1 * budget / (v2 - v1)``.
    """

    pairs_checked: int = 0
    violations: List[Tuple[Fraction, Fraction, Fraction]] = field(default_factory=list)
    boundary: List[Tuple[Fraction, Fraction, Fraction]] = field(default_factory=list)

    @property
    def aligned(self) -> bool:
        return not self.violations


def check_alignment(instance: Instance, stake_lower_bound: ScalarLike) -> AlignmentReport:
    """Sufficient-condition check that a value drop outweighs one round's budget.

    For every pair v1 < v2 of value levels attainable on this instance
    (decentralization 1 .. the maximum the tau-index can reach with n
    players), verifies ``v1 * (sigma + budget) < v2 * sigma`` for all
    sigma >= the lower bound.  Equality at the bound is reported as a
    boundary case rather than a violation.
    """
    bound = scalar(stake_lower_bound)
    if bound <= 0:
        raise ValueError("stake lower bound must be positive")
    report = AlignmentReport()
    d_max = max_attainable_index(instance.n, instance.tau_threshold)
    levels = sorted({token_value(d, instance.value_function) for d in range(1, d_max + 1)})
    for i, v1 in enumerate(levels):
        for v2 in levels[i + 1 :]:
            report.pairs_checked += 1
            required = v1 * instance.budget / (v2 - v1)
            if bound > required:
                continue
            if bound == required:
                report.boundary.append((v1, v2, required))
            else:
                report.violations.append((v1, v2, required))
    return report


@dataclass
class ValidationReport:
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_instance(instance: Instance) -> ValidationReport:
    """Check an instance against the model's structural requirements.

    Errors: types below 1, non-positive initial stakes, negative costs,
    non-positive budget, a non-monotone value function, or a value table
    that does not cover every reachable decentralization level.  Warnings:
    value/budget alignment violations and boundary equalities at the
    smallest initial stake (the framework's guarantees assume alignment).
    """
    report = ValidationReport()
    ids = [p.id for p in instance.players]
    if not ids:
        report.errors.append("instance has no players")
        return report
    if len(set(ids)) != len(ids):
        report.errors.append("player ids are not unique")
    stake_map = instance.stakes()
    for p in instance.players:
        if p.type_ < 1:
            report.errors.append(f"player {p.id}: type {p.type_} is below 1")
        if p.cost < 0:
            report.errors.append(f"player {p.id}: negative cost {p.cost}")
        if p.id not in stake_map:
            report.errors.append(f"player {p.id}: no initial stake")
        elif stake_map[p.id] <= 0:
            report.errors.append(f"player {p.id}: initial stake {stake_map[p.id]} is not positive")
    if instance.budget <= 0:
        report.errors.append(f"budget {instance.budget} is not positive")
    if not 0 < instance.tau_threshold < 1:
        report.errors.append(f"tau threshold {instance.tau_threshold} is not in (0, 1)")

    vf = instance.value_function
    if isinstance(vf, AffineValue) and vf.slope < 0:
        report.errors.append("affine value function has negative slope")
    elif isinstance(vf, TableValue):
        levels = [level for level, _ in vf.table]
        for d in range(1, instance.n + 1):
            if d not in levels:
                report.errors.append(f"value table misses decentralization level {d}")
        values = [value for _, value in vf.table]
        if any(a > b for a, b in zip(values, values[1:])):
            report.errors.append("value table is not non-decreasing")

    if report.errors:
        return report

    positive = [s for s in stake_map.values() if s > 0]
    bound = min(positive) if positive else ONE
    alignment = check_alignment(instance, bound)
    for v1, v2, needed in alignment.violations:
        report.warnings.append(
            f"value/budget misaligned for values {v1} < {v2}: requires stake > {needed}"
        )
    for v1, v2, needed in alignment.boundary:
        report.warnings.append(
            f"value/budget alignment only weak for values {v1} < {v2} at stake {needed}"
        )
    return report
