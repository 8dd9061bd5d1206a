"""Stage-game equilibrium machinery.

Implements, with exact arithmetic throughout:

* harmfulness of a stake profile for a player within a participation set;
* the recovery-winner labeling procedure and the myopic suffix equilibrium;
* the lookahead suffix equilibrium with per-player recovery plans (bounded
  by a horizon cap, failing loudly when the cap is hit);
* per-player participation thresholds along a realized trajectory;
* a brute-force oracle that enumerates arbitrary participant subsets.

There is one tie rule: a player indifferent between participating and
abstaining participates.  The uniqueness of the suffix equilibrium depends
on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Dict, Iterator, List, Optional, Tuple

from .core import Instance, PlayerId, StakeProfile, rank
from .measures import tau_decentralization_index, token_value
from .policies import FixedWinner, MuEll, Policy, expected_budget

PAR = "par"

# Default bound on a recovery plan's length, shared by every entry point
# that takes a horizon cap.
DEFAULT_HORIZON_CAP = 50


class RankedProfile:
    """One stake profile's ranking, with every ranking suffix evaluated in O(n).

    Suffix ``r`` (1-based) is the participation set of the players at rank
    ``r`` or below; suffix ``n + 1`` is the empty set, which gets the minimum
    level d = 1 by convention.  Indexed by r, the kernel holds each suffix's
    tau-index ``d`` and token value ``v``; entry 0 of each list is unused.
    Building it reads only the stakes, tau and the value function.  Stakes
    must be ints or ``Fraction``s (anything else raises ``TypeError``).

    The solvers rest on one identity: the top-ranked player of suffix r is
    the one who leaves it, so her abstain set is suffix r + 1.  Both sides of
    her participate-vs-abstain comparison are read from adjacent entries.

    The kernel works on integers: every stake is scaled by the common
    denominator ``scale`` of the profile (the lcm of the stakes'
    denominators), and ``prefix`` (P below) holds the prefix sums of the
    scaled stakes over the ranking.  With tau = p/q, the d-prefix of suffix
    r ends at the first e with
    ``q * P[e] > p * (P[n] - P[r - 1]) + q * P[r - 1]``: the test
    stake > tau * total + above, multiplied through by q and by the
    (positive) common denominator.  That bound only falls as the suffix
    grows upward, so the end never moves right and one pointer serves every
    suffix.  The token values are scaled the same way: ``v_scaled[r]`` is
    ``v[r] * v_scale``, with ``v_scale`` the lcm of their denominators.
    :meth:`leaders` prices every suffix leader on these integers.  All
    arithmetic is exact.
    """

    __slots__ = (
        "instance", "stakes", "ranking", "d", "v", "scale", "prefix", "v_scaled", "v_scale",
    )

    def __init__(self, stakes: StakeProfile, instance: Instance):
        tau = instance.tau_threshold
        if not 0 < tau < 1:
            raise ValueError(f"tau must lie in (0, 1), got {tau}")
        try:
            den = lcm(*[s.denominator for s in stakes.values()])
        except AttributeError:
            raise TypeError("stakes must be int or Fraction") from None
        scaled = {pid: s.numerator * (den // s.denominator) for pid, s in stakes.items()}
        # the scaling keeps every order, so this is rank(stakes)
        ranking = rank(scaled)
        n = len(ranking)
        prefix = [0]
        for pid in ranking:
            prefix.append(prefix[-1] + scaled[pid])
        smallest = scaled[ranking[-1]]
        if smallest < 0:
            raise ValueError("negative stake")
        if smallest == 0:
            # the last suffix holds only the smallest stake
            raise ValueError("all stakes are zero; fraction of total is undefined")

        vf = instance.value_function
        level_value: Dict[int, Fraction] = {1: token_value(1, vf)}
        d = [1] * (n + 2)
        p, q = tau.numerator, tau.denominator
        full = prefix[n]
        end = n
        for r in range(n, 0, -1):
            above = prefix[r - 1]
            bar = p * (full - above) + q * above
            while end > r and q * prefix[end - 1] > bar:
                end -= 1
            d[r] = level = end - r + 1
            if level not in level_value:
                level_value[level] = token_value(level, vf)
        v_scale = lcm(*[x.denominator for x in level_value.values()])
        level_scaled = {
            level: x.numerator * (v_scale // x.denominator) for level, x in level_value.items()
        }

        self.instance = instance
        self.stakes = stakes
        self.ranking = ranking
        self.d = d
        self.v = [level_value[level] for level in d]
        self.scale = den
        self.prefix = prefix
        self.v_scaled = [level_scaled[level] for level in d]
        self.v_scale = v_scale

    def suffix(self, r: int) -> frozenset:
        """The participant set of suffix r (r = n + 1 gives the empty set)."""
        return frozenset(self.ranking[r - 1 :])

    def leaders(self, policy: Policy) -> Iterator[Tuple[int, int, int, int, int]]:
        """Price every suffix leader on integers, from rank n up to rank 1.

        Yields ``(r, worth, net, stake, unit)`` for the leader i of suffix r:
        over the common denominator ``unit``, ``worth`` is her cost-free
        worth (stake + B) * v[r], ``net`` that worth minus her cost (what
        participating gives her), and ``stake * v_scaled[k]`` her stake priced
        at v[k].  B comes from one ``leader_budgets`` pass of the policy;
        the budget's and the cost's denominators enter ``unit``.
        """
        budgets = policy.leader_budgets(self.instance, self.stakes, self.ranking)
        player, scale, prefix = self.instance.player, self.scale, self.prefix
        v_scaled, v_scale = self.v_scaled, self.v_scale
        for r in range(len(self.ranking), 0, -1):
            b_num, b_den = budgets[r].as_integer_ratio()
            c_num, c_den = player(self.ranking[r - 1]).cost.as_integer_ratio()
            stake = (prefix[r] - prefix[r - 1]) * b_den * c_den
            worth = (stake + b_num * scale * c_den) * v_scaled[r]
            net = worth - c_num * scale * b_den * v_scale
            yield r, worth, net, stake, scale * b_den * c_den * v_scale


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
) -> HarmfulnessVerdict:
    """Whether the profile is harmful for i in the given set (i must belong)."""
    if i not in participants:
        raise ValueError(f"player {i} is not in the participation set")
    up = stage_utility(instance, stakes, policy, i, participants)
    ua = stage_utility(instance, stakes, policy, i, participants - {i})
    return HarmfulnessVerdict(i, participants, up, ua, up < ua)


@dataclass(frozen=True)
class RecoveryWinnerLabel:
    rank: int


Label = RecoveryWinnerLabel | str  # not typing.Union: see core.ValueFunction


def _labels(profile: RankedProfile, policy: Policy) -> Tuple[Dict[int, Label], int]:
    """Recovery-winner labels keyed by rank, and the myopic equilibrium's rank.

    Exactly the harmful ranks get a label: those whose leader's net worth
    (stake + B) * v[r] - cost falls below her stake priced at v[r + 1].  The
    candidate for a harmful rank r is the first later rank that is
    non-harmful or labeled ``PAR``; r is labeled with it when her cost-free
    worth (stake + B) * v[r] falls below v[candidate] * stake, and ``PAR``
    otherwise.  Scanning upward from the last rank, the candidate is the one
    seen most recently, so the pass is O(n), and it is decided on the
    kernel's integers (:meth:`RankedProfile.leaders`).  The last candidate
    seen is the top rank that is non-harmful or labeled ``PAR``: the myopic
    equilibrium's rank.
    """
    v_scaled = profile.v_scaled
    labels: Dict[int, Label] = {}
    candidate: Optional[int] = None
    for r, worth, net, stake, _ in profile.leaders(policy):
        if net >= stake * v_scaled[r + 1]:
            candidate = r
            continue
        label: Label = PAR
        if candidate is not None and worth < stake * v_scaled[candidate]:
            label = RecoveryWinnerLabel(candidate)
        else:
            # Abstaining does not pay, or no candidate lies below (only rank
            # n, when a positive cost exceeds its priced reward): participate
            # anyway.
            candidate = r
        labels[r] = label
    return labels, candidate


def recovery_winner_labels(
    stakes: StakeProfile,
    instance: Instance,
    policy: Policy,
) -> Dict[PlayerId, Label]:
    """Label every player for whom her suffix is harmful.

    A player is harmful in her suffix when her stake plus expected reward,
    priced at the suffix's token value, minus her cost is below her stake
    priced at the value of the suffix without her.  Scanning ranks from
    smallest stake upward, a harmful player gets as her recovery winner the
    first later rank r that is itself non-harmful (or labeled ``PAR``),
    provided her stake priced at the value of suffix r exceeds her cost-free
    priced stake plus reward; otherwise she is labeled ``PAR`` and
    participates anyway.  Runs in O(n) with exactly one harmfulness decision
    per rank.
    """
    profile = RankedProfile(stakes, instance)
    labels, _ = _labels(profile, policy)
    return {profile.ranking[r - 1]: label for r, label in labels.items()}


def myopic_equilibrium(
    stakes: StakeProfile,
    instance: Instance,
    policy: Policy,
) -> frozenset:
    """The unique stage equilibrium for myopic players: a suffix of the ranking.

    Scanning ranks from the largest stake downward, returns the suffix of the
    first rank that is either non-harmful there or harmful without a recovery
    winner.
    """
    profile = RankedProfile(stakes, instance)
    return profile.suffix(_myopic(profile, policy))


def _myopic(profile: RankedProfile, policy: Policy) -> int:
    """The myopic equilibrium's rank: its set is ``profile.suffix(r)``, priced at v[r]."""
    return _labels(profile, policy)[1]


def _priced_myopic(
    stakes: StakeProfile, instance: Instance, policy: Policy
) -> Tuple[frozenset, Fraction]:
    """The myopic equilibrium and its token value, from one kernel pass."""
    profile = RankedProfile(stakes, instance)
    r = _myopic(profile, policy)
    return profile.suffix(r), profile.v[r]


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
        horizon_cap: int = DEFAULT_HORIZON_CAP,
    ):
        if horizon_cap < 1:
            raise ValueError("horizon cap must be at least 1")
        self.instance = instance
        self.policy = policy
        self.horizon_cap = horizon_cap

    def solve(self, stakes: StakeProfile) -> frozenset:
        """Equilibrium participant set at the given profile: a ranking suffix.

        Scanning from the smallest stake upward, the last rank found
        non-harmful in its own suffix wins; the smallest stake is non-harmful
        in all but contrived fixed-winner setups, so a suffix always exists.
        Every rank's recovery plan is walked, so a plan that overruns the cap
        fails loudly even where a higher rank decides the outcome.

        The walks share their steps: within this call, each expected stake
        profile a walk reaches gets one kernel pass (:class:`RankedProfile`),
        which gives both its myopic equilibrium and that set's token value,
        however many ranks' walks pass through it.  Nothing is kept between
        calls.
        """
        profile, r = self._solve(stakes, {})
        return profile.suffix(r)

    def solve_with_plans(
        self, stakes: StakeProfile
    ) -> Tuple[frozenset, Dict[PlayerId, RecoveryPlan]]:
        """Equilibrium set plus the recovery plan of every excluded player.

        The plans share walk steps with the solve, as in :meth:`solve`.
        """
        walked: Dict[tuple, tuple] = {}
        profile, r = self._solve(stakes, walked)
        participants = profile.suffix(r)
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

    def _solve(
        self, stakes: StakeProfile, walked: Dict[tuple, tuple]
    ) -> Tuple[RankedProfile, int]:
        """The profile's kernel and the equilibrium's rank r.

        The set is ``profile.suffix(r)``, with index d[r] and token value
        v[r].  Each rank's leader is harmful when her net worth from
        :meth:`RankedProfile.leaders` is below her plan's terminal value for
        leaving to suffix r + 1, decided on integers.  The walks share their
        steps through ``walked``.
        """
        profile = RankedProfile(stakes, self.instance)
        chosen = len(profile.ranking)
        for r, _, net, _, unit in profile.leaders(self.policy):
            abstain = self._recovery(
                profile.ranking[r - 1], profile.suffix(r + 1), profile.stakes, walked
            ).terminal_value
            if net * abstain.denominator >= abstain.numerator * unit:
                chosen = r
        return profile, chosen

    def _recovery(
        self,
        i: PlayerId,
        participants_now: frozenset,
        stakes: StakeProfile,
        walked: Dict[tuple, tuple],
    ) -> RecoveryPlan:
        """Follow future myopic equilibria until i re-enters.

        The first advance uses the hypothesized current-round set; later ones
        use each future round's own equilibrium.  A step adds only the rewards
        the policy pays to a copy of the expected stakes.  The walk advances
        offset by offset for its owner.  ``walked`` holds the steps of one
        solve call, keyed by expected stake profile: the profile's myopic
        equilibrium and that set's token value, both from one kernel pass, and
        the profile as sorted ``(pid, stake)`` pairs.  All three depend on the
        profile alone, so a profile that several walks reach is solved and
        priced once, and every plan is the one a walk of its own finds.  The
        key is each stake's numerator and denominator in the profile's order,
        which every walk of one solve shares: ints hash faster than ``Fraction``.
        """
        current = dict(stakes)
        participants = participants_now
        steps: List[Tuple[int, frozenset, Tuple[Tuple[PlayerId, Fraction], ...]]] = []
        for offset in range(1, self.horizon_cap + 1):
            if participants:
                dist = self.policy.distribution(self.instance, current, participants)
                current = dict(current)
                for pid, reward in self.policy.payout(self.instance, participants, dist).items():
                    current[pid] += reward
            key = tuple([s.as_integer_ratio() for s in current.values()])
            step = walked.get(key)
            if step is None:
                step = walked[key] = (
                    *_priced_myopic(current, self.instance, self.policy),
                    tuple(sorted(current.items())),
                )
            future, value, profile = step
            steps.append((offset, future, profile))
            if i in future:
                return RecoveryPlan(owner=i, steps=tuple(steps), terminal_value=current[i] * value)
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
    rounds are judged under the fixed winner each round recorded.  Players
    never harmful get the plus-infinity sentinel.
    """
    instance = trace.instance
    mins: Dict[PlayerId, Optional[Fraction]] = {pid: None for pid in instance.stakes()}
    for record in trace.records:
        stage = trace.policy
        if isinstance(stage, MuEll):
            stage = FixedWinner(record.winner)
        profile = RankedProfile(dict(record.stakes_before), instance)
        v_full = profile.v[1]
        for r in _labels(profile, stage)[0]:
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
    horizon_cap: int = DEFAULT_HORIZON_CAP,
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
    solver = LookaheadSolver(instance, policy, horizon_cap) if behavior == "lookahead" else None
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
                if utility(i, subset) < abstain_value(i, subset - {i}):
                    ok = False
                    break
            if not ok:
                continue
            for i in ids:
                if i in subset:
                    continue
                if utility(i, subset | {i}) >= abstain_value(i, subset):
                    ok = False
                    break
            if ok:
                equilibria.append(subset)
    return equilibria
