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
from math import lcm
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .core import ZERO, Instance, ScalarLike, ValueFunction, scalar

# A measure maps a stake multiset (tuple of Fractions) to a positive integer.
Measure = Callable[[Tuple[Fraction, ...]], int]


def tau_decentralization_index(stakes: Iterable[ScalarLike], tau: ScalarLike) -> int:
    """Minimum number of parties controlling strictly more than a tau fraction.

    Permutation- and scale-invariant; a singleton always yields 1.  Raises if
    every stake is zero (the fraction is undefined) or tau is outside (0, 1).

    Decided on integers: the stakes are scaled by the lcm of their
    denominators, and with tau = p/q the index is the first k whose sum of
    the k largest scaled stakes has ``q * running > p * total``.
    """
    tau = scalar(tau)
    if not 0 < tau < 1:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    values = [s if isinstance(s, Fraction) else scalar(s) for s in stakes]
    if not values:
        raise ValueError("empty stake multiset")
    den = lcm(*[s.denominator for s in values])
    scaled = sorted((s.numerator * (den // s.denominator) for s in values), reverse=True)
    if scaled[-1] < 0:
        raise ValueError("negative stake")
    total = sum(scaled)
    if total == 0:
        raise ValueError("all stakes are zero; fraction of total is undefined")
    threshold = tau.numerator * total
    q = tau.denominator
    running = 0
    for k, s in enumerate(scaled, start=1):
        running += s
        if q * running > threshold:
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

    The measure is called exactly once per multiset, in enumeration order:
    sizes ascending, and within a size ``combinations_with_replacement``
    order over the sorted grid.  A ``ValueError`` from it leaves that
    multiset out of both conditions (it is not counted in ``checked``).
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    grid = sorted({scalar(s) for s in stake_grid})
    if not grid:
        raise ValueError("empty stake grid")
    report = AxiomReport()
    # each multiset's measure, or None where the measure raises ValueError
    # (e.g. an all-zero submultiset: nothing to check); sizes ascend and each
    # multiset is sorted, so every submultiset read below is already here
    values: Dict[Tuple[Fraction, ...], Optional[int]] = {}
    for size in range(1, n_max + 1):
        for multiset in combinations_with_replacement(grid, size):
            try:
                d = values[multiset] = measure(multiset)
            except ValueError:
                values[multiset] = None
                continue
            report.checked += 1
            if size == 1:
                continue
            top = multiset[-1]  # combinations are sorted ascending
            without_top = values[multiset[:-1]]
            if without_top is None or d < without_top:
                continue
            for idx in range(size - 1):
                if multiset[idx] == top:
                    continue
                d_reduced = values[multiset[:idx] + multiset[idx + 1 :]]
                if d_reduced is not None and d < d_reduced:
                    report.removal_violations.append(
                        f"d({', '.join(map(str, multiset))}) = {d} "
                        f">= d(minus max) = {without_top} "
                        f"but d(minus {multiset[idx]}) = {d_reduced}"
                    )
    # default: no multiset could be evaluated (e.g. an all-zero grid)
    minimum = min((d for d in values.values() if d is not None), default=None)
    for s in grid:
        d = values[(s,)]
        if d is not None and d > minimum:
            report.singleton_violations.append(
                f"singleton ({s}) has value {d} > enumeration minimum {minimum}"
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

    Errors: initial stakes that do not name exactly the players (the rule
    of :meth:`Instance.check_profile`), types below 1, non-positive initial
    stakes, negative costs, non-positive budget, or a value function that is
    not defined, non-negative and non-decreasing at every decentralization
    level 1..n.  That rule reads the values alone, whatever the function's
    kind: a value table must cover those levels, and its entries outside
    them are not read.  Warnings: value/budget alignment violations and
    boundary equalities at the smallest initial stake (the framework's
    guarantees assume alignment).
    """
    report = ValidationReport()
    if not instance.players:
        report.errors.append("instance has no players")
        return report
    stake_map = instance.stakes()
    try:
        instance.check_profile(stake_map, "initial stake profile")
    except ValueError as exc:
        report.errors.append(str(exc))
    for p in instance.players:
        if p.type_ < 1:
            report.errors.append(f"player {p.id}: type {p.type_} is below 1")
        if p.cost < 0:
            report.errors.append(f"player {p.id}: negative cost {p.cost}")
        if p.id in stake_map and stake_map[p.id] <= 0:
            report.errors.append(f"player {p.id}: initial stake {stake_map[p.id]} is not positive")
    if instance.budget <= 0:
        report.errors.append(f"budget {instance.budget} is not positive")
    if not 0 < instance.tau_threshold < 1:
        report.errors.append(f"tau threshold {instance.tau_threshold} is not in (0, 1)")

    # (value, level) pairs in level order
    values = []
    for d in range(1, instance.n + 1):
        try:
            values.append((token_value(d, instance.value_function), d))
        except ValueError:  # a value table has no entry for d
            report.errors.append(f"value table misses decentralization level {d}")
    if any(a > b for (a, _), (b, _) in zip(values, values[1:])):
        report.errors.append(f"value function is not non-decreasing over levels 1..{instance.n}")
    lowest, level = min(values, default=(ZERO, None))
    if lowest < 0:
        report.errors.append(f"value function is negative at level {level}")

    if report.errors:
        return report

    # every initial stake now belongs to a player and is positive
    alignment = check_alignment(instance, min(stake_map.values()))
    for v1, v2, needed in alignment.violations:
        report.warnings.append(
            f"value/budget misaligned for values {v1} < {v2}: requires stake > {needed}"
        )
    for v1, v2, needed in alignment.boundary:
        report.warnings.append(
            f"value/budget alignment only weak for values {v1} < {v2} at stake {needed}"
        )
    return report
