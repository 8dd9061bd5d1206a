"""Stage-game equilibrium machinery.

Implements, with exact arithmetic throughout:

* harmfulness of a stake profile for a player within a participation set;
* the recovery-winner labeling procedure and the myopic suffix equilibrium;
* the lookahead suffix equilibrium with per-player recovery plans (bounded
  by a horizon cap, failing loudly when the cap is hit);
* per-player participation thresholds along a realized trajectory;
* a brute-force oracle that enumerates arbitrary participant subsets.

Ties in the participate-vs-abstain comparison are broken in favor of
participation by default (uniqueness of the suffix equilibrium depends on
it); pass ``tie_participate=False`` for the strict variant that demands a
positive gain to participate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .core import ZERO, Instance, PlayerId, StakeProfile, rank, scalar
from .measures import tau_decentralization_index, token_value
from .policies import FixedWinner, MuEll, Policy, expected_budget, expected_rewards

PAR = "par"


class RankedProfile:
    """One stake profile's ranking, with every ranking suffix evaluated in O(n).

    Suffix ``r`` (1-based) is the participation set of the players at rank
    ``r`` or below; suffix ``n + 1`` is the empty set, which gets the minimum
    level d = 1 by convention.  Indexed by r, the kernel holds each suffix's
    stake ``total``, tau-index ``d``, token value ``v`` and top-type player
    ``top`` (ties to the smallest id; ``None`` for the empty set).  Entry 0
    of each list is unused.

    The solvers rest on one identity: the top-ranked player of suffix r is
    the one who leaves it, so her abstain set is suffix r + 1.  Both sides of
    her participate-vs-abstain comparison are read from adjacent entries.

    With prefix sums P over the ranking, the d-prefix of suffix r ends at the
    first e with P[e] > tau * P[n] + (1 - tau) * P[r - 1].  That bound only
    falls as the suffix grows upward, so the end never moves right and one
    pointer serves every suffix.  All arithmetic is exact.
    """

    __slots__ = ("instance", "stakes", "ranking", "total", "d", "v", "top")

    def __init__(self, stakes: StakeProfile, instance: Instance):
        tau = instance.tau_threshold
        if not 0 < tau < 1:
            raise ValueError(f"tau must lie in (0, 1), got {tau}")
        ranking = rank(stakes)
        n = len(ranking)
        prefix = [ZERO]
        for pid in ranking:
            s = stakes[pid]
            prefix.append(prefix[-1] + (s if isinstance(s, Fraction) else scalar(s)))
        smallest = prefix[n] - prefix[n - 1]
        if smallest < 0:
            raise ValueError("negative stake")
        if smallest == 0:
            # the last suffix holds only the smallest stake
            raise ValueError("all stakes are zero; fraction of total is undefined")

        types = instance.types()
        vf = instance.value_function
        level_value: Dict[int, Fraction] = {1: token_value(1, vf)}
        total: List[Fraction] = [ZERO] * (n + 2)
        d = [1] * (n + 2)
        v = [level_value[1]] * (n + 2)
        top: List[Optional[PlayerId]] = [None] * (n + 2)
        end = n
        best: Optional[PlayerId] = None
        for r in range(n, 0, -1):
            above = prefix[r - 1]
            total[r] = prefix[n] - above
            bar = tau * total[r] + above
            while end > r and prefix[end - 1] > bar:
                end -= 1
            d[r] = level = end - r + 1
            if level not in level_value:
                level_value[level] = token_value(level, vf)
            v[r] = level_value[level]
            pid = ranking[r - 1]
            if best is None or types[pid] > types[best] or (
                types[pid] == types[best] and pid < best
            ):
                best = pid
            top[r] = best

        self.instance = instance
        self.stakes = stakes
        self.ranking = ranking
        self.total = total
        self.d = d
        self.v = v
        self.top = top

    def suffix(self, r: int) -> frozenset:
        """The participant set of suffix r (r = n + 1 gives the empty set)."""
        return frozenset(self.ranking[r - 1 :])

    def worth(self, policy: Policy, r: int) -> Fraction:
        """Stake plus expected reward of suffix r's leader, priced at v[r]; no cost."""
        i = self.ranking[r - 1]
        reward = policy.member_budget(
            self.instance, self.stakes, i, self.ranking[r - 1 :], self.top[r]
        )
        return (self.stakes[i] + reward) * self.v[r]


def stage_value(instance: Instance, stakes: StakeProfile, participants: frozenset):
    """(d, v) evaluated over the participants' stakes only.

    The empty set is given the minimum level d = 1 by convention; it is
    reachable only through the brute-force oracle's abstention checks.
    """
    if participants:
        d = tau_decentralization_index(
            [stakes[pid] for pid in participants], instance.tau_threshold
        )
    else:
        d = 1
    return d, token_value(d, instance.value_function)


def stage_utility(
    instance: Instance,
    stakes: StakeProfile,
    policy: Policy,
    i: PlayerId,
    participants: frozenset,
) -> Fraction:
    """Myopic stage utility of player i when the participant set is given.

    Participants value their stake plus expected reward at the token value of
    the set, minus their cost; abstainers value their stake at the value the
    set realizes without them.
    """
    _, v = stage_value(instance, stakes, participants)
    return _priced_utility(instance, stakes, policy, i, participants, v)


def _priced_utility(
    instance: Instance,
    stakes: StakeProfile,
    policy: Policy,
    i: PlayerId,
    participants: frozenset,
    v: Fraction,
) -> Fraction:
    """:func:`stage_utility` with the set's token value ``v`` already known."""
    if i in participants:
        reward = expected_budget(policy, instance, stakes, i, participants)
        return (stakes[i] + reward) * v - instance.player(i).cost
    return stakes[i] * v


@dataclass(frozen=True)
class HarmfulnessVerdict:
    player: PlayerId
    participants: frozenset
    utility_participate: Fraction
    utility_abstain: Fraction
    harmful: bool


def is_harmful(
    i: PlayerId,
    participants: frozenset,
    stakes: StakeProfile,
    instance: Instance,
    policy: Policy,
    tie_participate: bool = True,
) -> HarmfulnessVerdict:
    """Whether the profile is harmful for i in the given set (i must belong)."""
    if i not in participants:
        raise ValueError(f"player {i} is not in the participation set")
    up = stage_utility(instance, stakes, policy, i, participants)
    ua = stage_utility(instance, stakes, policy, i, participants - {i})
    harmful = up < ua if tie_participate else up <= ua
    return HarmfulnessVerdict(i, participants, up, ua, harmful)


@dataclass(frozen=True)
class RecoveryWinnerLabel:
    rank: int


Label = RecoveryWinnerLabel | str  # not typing.Union: see core.ValueFunction


def _labels(profile: RankedProfile, policy: Policy, tie_participate: bool) -> Dict[int, Label]:
    """Recovery-winner labels keyed by rank; exactly the harmful ranks get one.

    The candidate for a harmful rank r is the first later rank that is
    non-harmful or labeled ``PAR``.  Scanning upward from the last rank, that
    is the candidate seen most recently, so the pass is O(n).
    """
    stakes = profile.stakes
    v = profile.v
    labels: Dict[int, Label] = {}
    candidate: Optional[int] = None
    for r in range(len(profile.ranking), 0, -1):
        pid = profile.ranking[r - 1]
        worth = profile.worth(policy, r)
        participate = worth - profile.instance.player(pid).cost
        abstain = stakes[pid] * v[r + 1]
        if participate > abstain or (tie_participate and participate == abstain):
            candidate = r
            continue
        label: Label = PAR
        if candidate is not None and worth < v[candidate] * stakes[pid]:
            label = RecoveryWinnerLabel(candidate)
        else:
            # Abstaining does not pay, or (possible for rank n under the
            # strict tie rule) no candidate lies below: participate anyway.
            candidate = r
        labels[r] = label
    return labels


def recovery_winner_labels(
    stakes: StakeProfile,
    instance: Instance,
    policy: Policy,
    tie_participate: bool = True,
) -> Dict[PlayerId, Label]:
    """Label every player for whom her suffix is harmful.

    Scanning ranks from smallest stake upward, a harmful player gets the
    first later rank r that is itself non-harmful (or labeled ``PAR``) as her
    recovery winner, provided abstaining in favor of the suffix at r beats
    participating; otherwise she is labeled ``PAR`` and participates anyway.
    Runs in O(n) with exactly one harmfulness evaluation per rank.
    """
    profile = RankedProfile(stakes, instance)
    labels = _labels(profile, policy, tie_participate)
    return {profile.ranking[r - 1]: label for r, label in labels.items()}


def myopic_equilibrium(
    stakes: StakeProfile,
    instance: Instance,
    policy: Policy,
    tie_participate: bool = True,
) -> frozenset:
    """The unique stage equilibrium for myopic players: a suffix of the ranking.

    Scanning ranks from the largest stake downward, returns the suffix of the
    first rank that is either non-harmful there or harmful without a recovery
    winner.
    """
    profile = RankedProfile(stakes, instance)
    labels = _labels(profile, policy, tie_participate)
    for r in range(1, len(profile.ranking) + 1):
        label = labels.get(r)
        if label is None or label == PAR:
            return profile.suffix(r)
    raise AssertionError("unreachable: the last rank is never harmful")


@dataclass(frozen=True)
class RecoveryPlan:
    """Planned future stage equilibria for an abstainer, ending at re-entry.

    Each step is ``(offset, participants, expected_stakes)``; the owner
    belongs only to the final step's participant set, whose token value
    prices her stake (``terminal_value``).
    """

    owner: PlayerId
    steps: Tuple[Tuple[int, frozenset, Tuple[Tuple[PlayerId, Fraction], ...]], ...]
    terminal_value: Fraction

    @property
    def length(self) -> int:
        return len(self.steps)


class LookaheadHorizonError(RuntimeError):
    """A recovery plan stayed open past the horizon cap.

    Distinguishes "no plan found within the cap" from the model's "no plan
    exists" (which would value abstention at minus infinity): the solver
    refuses to guess and reports the player instead.
    """

    def __init__(self, player: PlayerId, stakes: StakeProfile, cap: int):
        self.player = player
        self.stakes = dict(stakes)
        self.cap = cap
        super().__init__(
            f"recovery plan for player {player} still open after {cap} rounds "
            f"from profile {dict(stakes)}"
        )


class LookaheadSolver:
    """Suffix equilibrium for players that plan abstention through recovery.

    Participation is judged myopically; abstention is valued by the recovery
    plan: follow the single-shot (myopic) stage equilibria of the expected
    future profiles until the player re-enters, then price her stake at that
    round's token value.  Stake expectations advance by the policy's expected
    rewards.  The plan search is bounded by the horizon cap and fails loudly
    when the cap is hit.
    """

    def __init__(
        self,
        instance: Instance,
        policy: Policy,
        horizon_cap: int = 50,
        tie_participate: bool = True,
    ):
        if horizon_cap < 1:
            raise ValueError("horizon cap must be at least 1")
        self.instance = instance
        self.policy = policy
        self.horizon_cap = horizon_cap
        self.tie_participate = tie_participate

    def solve(self, stakes: StakeProfile) -> frozenset:
        """Equilibrium participant set at the given profile: a ranking suffix.

        Scanning from the smallest stake upward, the last rank found
        non-harmful in its own suffix wins; the smallest stake is non-harmful
        in all but contrived fixed-winner setups, so a suffix always exists.
        Every rank's recovery plan is walked, so a plan that overruns the cap
        fails loudly even where a higher rank decides the outcome.

        The walks share their steps: within this call, each expected stake
        profile a walk reaches is solved once (and priced once, if some
        owner re-enters there), however many ranks' walks pass through it.
        Nothing is kept between calls.
        """
        return self._solve(stakes, {})

    def solve_with_plans(
        self, stakes: StakeProfile
    ) -> Tuple[frozenset, Dict[PlayerId, RecoveryPlan]]:
        """Equilibrium set plus the recovery plan of every excluded player.

        The plans share walk steps with the solve, as in :meth:`solve`.
        """
        walked: Dict[tuple, list] = {}
        participants = self._solve(stakes, walked)
        plans: Dict[PlayerId, RecoveryPlan] = {}
        for pid in stakes:
            if pid not in participants:
                plans[pid] = self._recovery(pid, participants, stakes, walked)
        return participants, plans

    def abstention_value(
        self, i: PlayerId, without_i: frozenset, stakes: StakeProfile
    ) -> Fraction:
        """Value of abstaining when the round's other participants are given."""
        return self._recovery(i, without_i, stakes, {}).terminal_value

    def _solve(self, stakes: StakeProfile, walked: Dict[tuple, list]) -> frozenset:
        """:meth:`solve`, with the walks' steps shared through ``walked``."""
        profile = RankedProfile(stakes, self.instance)
        n = len(profile.ranking)
        chosen = n
        for r in range(n, 0, -1):
            if not self._harmful(profile, r, walked):
                chosen = r
        return profile.suffix(chosen)

    def _harmful(self, profile: RankedProfile, r: int, walked: Dict[tuple, list]) -> bool:
        """Whether suffix r is harmful for its leader, who would leave suffix r + 1."""
        i = profile.ranking[r - 1]
        participate = profile.worth(self.policy, r) - self.instance.player(i).cost
        abstain = self._recovery(
            i, profile.suffix(r + 1), profile.stakes, walked
        ).terminal_value
        if self.tie_participate:
            return participate < abstain
        return participate <= abstain

    def _recovery(
        self,
        i: PlayerId,
        participants_now: frozenset,
        stakes: StakeProfile,
        walked: Dict[tuple, list],
    ) -> RecoveryPlan:
        """Follow future myopic equilibria until i re-enters.

        The first advance uses the hypothesized current-round set; later ones
        use each future round's own equilibrium.  The walk advances offset by
        offset for its owner.  ``walked`` holds the steps of one solve call,
        keyed by expected stake profile: the profile's myopic equilibrium and,
        once some owner has re-entered there, its token value.  Both depend on
        the profile alone, so a profile that several walks reach is solved
        and priced once, and every plan is the one a walk of its own finds.
        """
        current = dict(stakes)
        participants = participants_now
        steps: List[Tuple[int, frozenset, Tuple[Tuple[PlayerId, Fraction], ...]]] = []
        for offset in range(1, self.horizon_cap + 1):
            rewards = expected_rewards(self.policy, self.instance, current, participants)
            current = {pid: s + rewards[pid] if rewards[pid] else s for pid, s in current.items()}
            key = tuple(sorted(current.items()))
            # one lookup per step: hashing the key hashes every stake
            step = walked.setdefault(key, [None, None])
            if step[0] is None:
                step[0] = myopic_equilibrium(
                    current, self.instance, self.policy, self.tie_participate
                )
            future = step[0]
            steps.append((offset, future, key))
            if i in future:
                if step[1] is None:
                    step[1] = stage_value(self.instance, current, future)[1]
                return RecoveryPlan(
                    owner=i, steps=tuple(steps), terminal_value=current[i] * step[1]
                )
            participants = future
        raise LookaheadHorizonError(i, stakes, self.horizon_cap)


@dataclass(frozen=True)
class Threshold:
    """Per-player minimum system value over rounds harmful to that player.

    ``None`` stands for "never harmful on the observed trajectory" (plus
    infinity); the instance threshold is the minimum of the finite entries.
    """

    per_player: Tuple[Tuple[PlayerId, Optional[Fraction]], ...]

    @property
    def theta(self) -> Optional[Fraction]:
        finite = [v for _, v in self.per_player if v is not None]
        return min(finite) if finite else None

    def of(self, pid: PlayerId) -> Optional[Fraction]:
        return dict(self.per_player)[pid]


def threshold(trace) -> Threshold:
    """Collect harmful-round values over the rounds a trace recorded.

    Each recorded round, each player is tested (myopically) for harmfulness
    in her own suffix of that round's ranking; the value recorded is the
    token value of the full stake profile at that round.  The trajectory is
    the trace's own, whatever behavior and mode produced it.  Simulating
    rounds are judged under their resolved fixed winner and skipped when it
    is unknown.  Players never harmful get the plus-infinity sentinel.
    """
    instance = trace.instance
    mins: Dict[PlayerId, Optional[Fraction]] = {pid: None for pid in instance.stakes()}
    for record in trace.records:
        stage = trace.policy
        if isinstance(stage, MuEll):
            if record.winner is None:
                continue
            stage = FixedWinner(record.winner)
        profile = RankedProfile(dict(record.stakes_before), instance)
        v_full = profile.v[1]
        for r in _labels(profile, stage, tie_participate=True):
            pid = profile.ranking[r - 1]
            best = mins[pid]
            if best is None or v_full < best:
                mins[pid] = v_full
    return Threshold(per_player=tuple(sorted(mins.items())))


def brute_force_equilibrium(
    stakes: StakeProfile,
    instance: Instance,
    policy: Policy,
    behavior: str = "myopic",
    tie_participate: bool = True,
    horizon_cap: int = 50,
) -> List[frozenset]:
    """Enumerate all participant subsets and return every stage equilibrium.

    A subset is an equilibrium when no member strictly gains by leaving and
    no outsider strictly gains by joining (ties favor participation, so an
    indifferent outsider joins).  For lookahead behavior, abstention on both
    sides is priced by the recovery-plan value.  Exponential; limited to 12
    players.  May evaluate the empty participation set (d = 1 convention).

    Each distinct subset's token value is computed once per call, with
    :func:`stage_value` over that subset's stakes, and reused by every member
    and outsider check that meets the subset.  The suffix kernel
    (:class:`RankedProfile`) is not used: the oracle is the independent
    reference the kernel-based solvers are checked against.
    """
    ids = sorted(stakes)
    if len(ids) > 12:
        raise ValueError(f"brute force limited to 12 players, got {len(ids)}")
    if behavior not in ("myopic", "lookahead"):
        raise ValueError(f"unknown behavior {behavior!r}")
    solver = (
        LookaheadSolver(instance, policy, horizon_cap, tie_participate)
        if behavior == "lookahead"
        else None
    )
    values: Dict[frozenset, Fraction] = {}

    def utility(i: PlayerId, subset: frozenset) -> Fraction:
        v = values.get(subset)
        if v is None:
            v = values[subset] = stage_value(instance, stakes, subset)[1]
        return _priced_utility(instance, stakes, policy, i, subset, v)

    def abstain_value(i: PlayerId, others: frozenset) -> Fraction:
        if solver is None:
            return utility(i, others)
        return solver.abstention_value(i, others, stakes)

    equilibria: List[frozenset] = []
    for size in range(0, len(ids) + 1):
        for combo in combinations(ids, size):
            subset = frozenset(combo)
            ok = True
            for i in subset:
                up = utility(i, subset)
                ua = abstain_value(i, subset - {i})
                if (up < ua) if tie_participate else (up <= ua):
                    ok = False
                    break
            if not ok:
                continue
            for i in ids:
                if i in subset:
                    continue
                joined = subset | {i}
                up = utility(i, joined)
                ua = abstain_value(i, subset)
                stays_out = (up < ua) if tie_participate else (up <= ua)
                if not stays_out:
                    ok = False
                    break
            if ok:
                equilibria.append(subset)
    return equilibria
