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

The public solvers raise ValueError unless the stake profile stakes exactly
the instance's players (:meth:`Instance.check_profile`); the engine and the
sybil searches, which build their own profiles, call the private unchecked
workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Callable, Dict, List, Optional, Tuple

from .core import Instance, PlayerId, ScaledProfile, StakeProfile, rank, scaled_profile
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
    Building it reads only the stakes, tau and the value function.

    The solvers rest on one identity: the top-ranked player of suffix r is
    the one who leaves it, so her abstain set is suffix r + 1.  Both sides of
    her participate-vs-abstain comparison are read from adjacent entries.

    The kernel works on integers, and takes its stakes in one form: a
    :class:`~stakegame.core.ScaledProfile`, the stakes as ints over one
    common denominator ``stakes.den``.  A ``Fraction`` profile gets that form from
    :func:`~stakegame.core.scaled_profile` (ints or ``Fraction``s only;
    anything else raises ``TypeError``); a recovery walk hands over its own
    state as it is.  ``prefix`` (P below) holds the prefix sums of the scaled
    stakes over the ranking.  With tau = p/q, the d-prefix of suffix
    r ends at the first e with
    ``q * P[e] > p * (P[n] - P[r - 1]) + q * P[r - 1]``: the test
    stake > tau * total + above, multiplied through by q and by the
    (positive) common denominator.  That bound only falls as the suffix
    grows upward, so the end never moves right and one pointer serves every
    suffix.  The token values are scaled the same way: ``v_scaled[r]`` is
    ``v[r] * v_scale``, with ``v_scale`` the lcm of their denominators.
    :meth:`leaders` prices suffix leaders on these integers.  All
    arithmetic is exact.
    """

    __slots__ = (
        "instance", "stakes", "ranking", "d", "v", "prefix", "v_scaled", "v_scale",
    )

    def __init__(self, stakes: ScaledProfile, instance: Instance):
        tau = instance.tau_threshold
        if not 0 < tau < 1:
            raise ValueError(f"tau must lie in (0, 1), got {tau}")
        scaled = stakes.nums
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
            if prefix[n] == 0:
                raise ValueError("all stakes are zero; fraction of total is undefined")
            # the last suffix holds only the smallest stake: its index is undefined
            raise ValueError(
                f"player {ranking[-1]} has zero stake; the suffix kernel needs every stake "
                "to be positive"
            )

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
        self.prefix = prefix
        self.v_scaled = [level_scaled[level] for level in d]
        self.v_scale = v_scale

    def suffix(self, r: int) -> frozenset:
        """The participant set of suffix r (r = n + 1 gives the empty set)."""
        return frozenset(self.ranking[r - 1 :])

    def leaders(self, policy: Policy) -> Callable[[int], Tuple[int, int, int, int]]:
        """Price suffix leaders on integers, one rank at a time, in any order.

        Runs the policy's one ``leader_budgets`` pass and returns ``price``:
        ``price(r)`` gives ``(worth, net, stake, unit)`` for the leader i of
        suffix r.  Over the common denominator ``unit``, ``worth`` is her
        cost-free worth (stake + B) * v[r], ``net`` that worth minus her
        cost (what participating gives her), and ``stake * v_scaled[k]`` her
        stake priced at v[k].  B is the integer pair ``(b_num, b_den)`` the
        pass hands over, taken as is: no ``Fraction`` is built and no gcd
        taken.  ``b_den`` and the cost's denominator enter ``unit``.  Each
        caller prices only the ranks it reads, in its own order: the
        labeling every rank from n up, the lookahead solve from rank 1 down
        to the decisive rank.
        """
        budgets = policy.leader_budgets(self.instance, self.stakes, self.ranking)
        player, ranking, scale = self.instance.player, self.ranking, self.stakes.den
        prefix, v_scaled, v_scale = self.prefix, self.v_scaled, self.v_scale

        def price(r: int) -> Tuple[int, int, int, int]:
            b_num, b_den = budgets[r]
            c_num, c_den = player(ranking[r - 1]).cost.as_integer_ratio()
            stake = (prefix[r] - prefix[r - 1]) * b_den * c_den
            worth = (stake + b_num * scale * c_den) * v_scaled[r]
            net = worth - c_num * scale * b_den * v_scale
            return worth, net, stake, scale * b_den * c_den * v_scale

        return price


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
    v_scaled, price = profile.v_scaled, profile.leaders(policy)
    labels: Dict[int, Label] = {}
    candidate: Optional[int] = None
    for r in range(len(profile.ranking), 0, -1):
        worth, net, stake, _ = price(r)
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
    instance.check_profile(stakes)
    profile = RankedProfile(scaled_profile(stakes), instance)
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
    instance.check_profile(stakes)
    profile = RankedProfile(scaled_profile(stakes), instance)
    return profile.suffix(_labels(profile, policy)[1])


def _priced_myopic(
    stakes: ScaledProfile, instance: Instance, policy: Policy
) -> Tuple[frozenset, Fraction]:
    """The myopic equilibrium and its token value, from one kernel pass."""
    profile = RankedProfile(stakes, instance)
    r = _labels(profile, policy)[1]
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
    when a plan the solve walks hits the cap.
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

        Scanning from the largest stake downward, the first rank found
        non-harmful in its own suffix wins, and the scan stops there; with
        none, the set is the last rank's suffix.  Only the ranks scanned,
        from rank 1 down to the decisive one, have their recovery plans
        walked.  A walked plan that overruns the cap fails loudly, naming
        the first such rank's player counted from the top; a plan below the
        decisive rank is never walked, so it cannot fail the solve.

        The walks share their steps: within this call, each expected stake
        profile a walk reaches gets one kernel pass (:class:`RankedProfile`),
        which gives both its myopic equilibrium and that set's token value,
        however many ranks' walks pass through it.  The walks step on
        integers and build no plan: each rank is decided on the walk's
        integer terminal value.  Nothing is kept between calls.
        """
        self.instance.check_profile(stakes)
        profile, r = self._solve(stakes, {})
        return profile.suffix(r)

    def solve_with_plans(
        self, stakes: StakeProfile
    ) -> Tuple[frozenset, Dict[PlayerId, RecoveryPlan]]:
        """Equilibrium set plus the recovery plan of every excluded player.

        The plans share walk steps with the solve, as in :meth:`solve`.  Only the
        excluded players' walks become plans (:class:`RecoveryPlan`), and
        only here are their expected stakes and terminal values built as
        ``Fraction`` values, from the walks' integers.
        """
        self.instance.check_profile(stakes)
        walked: Dict[tuple, tuple] = {}
        profile, r = self._solve(stakes, walked)
        participants, start = profile.suffix(r), profile.stakes
        plans: Dict[PlayerId, RecoveryPlan] = {}
        for pid in stakes:
            if pid not in participants:
                num, den, steps = self._recovery(pid, participants, start, walked)
                plans[pid] = RecoveryPlan(
                    owner=pid,
                    steps=tuple(
                        (offset, future, tuple(sorted(
                            (i, Fraction(s, key[0])) for i, s in zip(start.nums, key[1:])
                        )))
                        for offset, (future, key) in enumerate(steps, start=1)
                    ),
                    terminal_value=Fraction(num, den),
                )
        return participants, plans

    def abstention_value(
        self, i: PlayerId, without_i: frozenset, stakes: StakeProfile
    ) -> Fraction:
        """Value for player i of abstaining when the round's other participants are ``without_i``.

        Raises ValueError unless the profile stakes exactly the instance's
        players, i is one of them, and ``without_i`` names only players other
        than i.
        """
        self.instance.check_profile(stakes)
        if i not in stakes:
            raise ValueError(f"no player with id {i}")
        unknown = set(without_i) - stakes.keys()
        if unknown:
            raise ValueError(f"participant set names unknown players {sorted(unknown)}")
        if i in without_i:
            raise ValueError(f"player {i} is in the participant set it abstains from")
        num, den, _ = self._recovery(i, without_i, scaled_profile(stakes), {})
        return Fraction(num, den)

    def _solve(
        self, stakes: StakeProfile, walked: Dict[tuple, tuple]
    ) -> Tuple[RankedProfile, int]:
        """The profile's kernel and the equilibrium's rank r.

        The set is ``profile.suffix(r)``, with index d[r] and token value
        v[r].  From rank 1 down, each leader is priced and her walk to suffix
        r + 1 run; r is the first rank whose leader is non-harmful, her net
        worth ``net / unit`` from :meth:`RankedProfile.leaders` at least her
        walk's terminal value ``num / den``, decided on integers.  With no
        such rank, r is n.  The walks start from the kernel's own scaled
        stakes and share their steps through ``walked``.
        """
        profile = RankedProfile(scaled_profile(stakes), self.instance)
        price, ranking, start = profile.leaders(self.policy), profile.ranking, profile.stakes
        for r in range(1, len(ranking) + 1):
            _, net, _, unit = price(r)
            num, den, _ = self._recovery(ranking[r - 1], profile.suffix(r + 1), start, walked)
            if net * den >= num * unit:
                return profile, r
        return profile, len(ranking)

    def _recovery(
        self,
        i: PlayerId,
        participants_now: frozenset,
        stakes: ScaledProfile,
        walked: Dict[tuple, tuple],
    ) -> Tuple[int, int, List[Tuple[frozenset, tuple]]]:
        """Follow future myopic equilibria from ``stakes`` until i re-enters.

        Returns i's terminal value, her stake priced at the re-entry round's
        token value, as an integer pair ``(num, den)`` with den > 0, and the
        walk's steps: one ``(participants, key)`` per offset from 1.  The
        first advance uses the hypothesized current-round set; later ones use
        each future round's own equilibrium.

        A walk keeps its expected stakes as ints over one common denominator
        (a :class:`~stakegame.core.ScaledProfile`), starting from the
        kernel's own.  Each step (:meth:`_advance`) leaves them in lowest
        terms, so ``key = (den, *nums)``, the nums in the start profile's id
        order, names the profile canonically: two walks of one call reach the
        same key exactly when they reach the same profile.  ``walked`` holds
        the steps of one solve call by key: the profile's myopic equilibrium
        and that set's token value, both from one kernel pass, which takes
        the walk's ints as they are.  Both depend on the profile alone, so a
        profile that several walks reach is solved and priced once, and every
        walk is the one it would find on its own.  No ``Fraction`` stake is
        built; :meth:`solve_with_plans` builds them for the plans it returns.
        """
        current, participants = stakes, participants_now
        steps: List[Tuple[frozenset, tuple]] = []
        for _ in range(self.horizon_cap):
            if participants:
                current = self._advance(current, participants)
            key = (current.den, *current.nums.values())
            step = walked.get(key)
            if step is None:
                step = walked[key] = _priced_myopic(current, self.instance, self.policy)
            future, value = step
            steps.append((future, key))
            if i in future:
                return current.nums[i] * value.numerator, current.den * value.denominator, steps
            participants = future
        raise LookaheadHorizonError(i, stakes, self.horizon_cap)

    def _advance(self, current: ScaledProfile, participants: frozenset) -> ScaledProfile:
        """The expected stakes after a round in which ``participants`` play.

        The policy's ``rewards`` rule reads the walk's ints and pays each
        paid participant an int over one denominator.  One rescale puts the
        stakes and the rewards over the lcm of the two denominators, so the
        stakes' denominator grows by at most the factor the rewards need, and
        one gcd brings the sum back to lowest terms.  No ``Fraction`` is
        built.
        """
        paid, paid_den = self.policy.rewards(self.instance, current, participants)
        den, nums = current.den, current.nums
        shared = gcd(den, paid_den)
        grow, lift = paid_den // shared, den // shared
        den *= grow
        # a copy: other walks of the call share the start and every earlier step
        nums = dict(nums) if grow == 1 else {pid: s * grow for pid, s in nums.items()}
        for pid, reward in paid.items():
            nums[pid] += reward * lift
        common = gcd(den, *nums.values())
        if common > 1:
            den //= common
            nums = {pid: s // common for pid, s in nums.items()}
        return ScaledProfile(nums, den)


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
        profile = RankedProfile(scaled_profile(dict(record.stakes_before)), instance)
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

    A subset T is an equilibrium when every member stays in T and no
    outsider i stays in T + {i}.  Player i stays in a set when her utility
    there is at least her abstention value at the set without her: the one
    tie rule, so an indifferent member stays and an indifferent outsider
    joins.  For lookahead behavior, abstention on both sides is priced by
    the recovery-plan value.  Exponential; limited to 12 players.  May
    evaluate the empty participation set (d = 1 convention).

    Each distinct subset's token value is computed once per call, with
    :func:`stage_value` over that subset's stakes, and reused by every member
    and outsider check that meets the subset.  Myopic mode does not use the
    suffix kernel (:class:`RankedProfile`): there the oracle is the
    independent reference the kernel-based solvers are checked against.  A
    lookahead abstention is priced by the solver's own recovery walk, which
    does use the kernel, and all walks of one call share one memo of walked
    profiles, as the walks of one :meth:`LookaheadSolver.solve` do.  That
    walk's independent check is the unshared reference walk in the tests.
    """
    instance.check_profile(stakes)
    ids = sorted(stakes)
    if len(ids) > 12:
        raise ValueError(f"brute force limited to 12 players, got {len(ids)}")
    if behavior not in ("myopic", "lookahead"):
        raise ValueError(f"unknown behavior {behavior!r}")
    solver = LookaheadSolver(instance, policy, horizon_cap) if behavior == "lookahead" else None
    start = scaled_profile(stakes)
    values: Dict[frozenset, Fraction] = {}
    walked: Dict[tuple, tuple] = {}

    def utility(i: PlayerId, subset: frozenset) -> Fraction:
        v = values.get(subset)
        if v is None:
            v = values[subset] = stage_value(instance, stakes, subset)[1]
        return _priced_utility(instance, stakes, policy, i, subset, v)

    def stays(i: PlayerId, subset: frozenset) -> bool:
        """Whether i, a member of ``subset``, does at least as well there as by abstaining."""
        up = utility(i, subset)
        if solver is None:
            return up >= utility(i, subset - {i})
        num, den, _ = solver._recovery(i, subset - {i}, start, walked)
        return up >= Fraction(num, den)

    return [
        subset
        for size in range(len(ids) + 1)
        for subset in map(frozenset, combinations(ids, size))
        if all(stays(i, subset) for i in subset)
        and not any(stays(i, subset | {i}) for i in ids if i not in subset)
    ]
