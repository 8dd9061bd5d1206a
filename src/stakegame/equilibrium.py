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
from functools import cache
from itertools import combinations
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
    tau-index ``d`` and scaled token value ``v_scaled`` (below); entry 0 of
    each list is unused.  Building it reads only the stakes, tau and the
    value function, through the instance's token-value table.

    The solvers rest on one identity: the top-ranked player of suffix r is
    the one who leaves it, so her abstain set is suffix r + 1.  Both sides of
    her participate-vs-abstain comparison are read from adjacent entries.

    The kernel works on integers, and takes its stakes in one form: a
    :class:`~stakegame.core.ScaledProfile`, the stakes as ints over one
    common denominator, kept as ``self.stakes``.  The constructor takes a
    stake map or that form and passes it through
    :func:`~stakegame.core.scaled_profile`, which converts a map (ints or
    ``Fraction``s only; anything else raises ``TypeError``) and hands a
    recovery walk's state over as it is.  With P the prefix sums of the
    scaled stakes over the ranking and tau = p/q, the d-prefix of suffix r
    ends at the first e with
    ``q * P[e] > p * (P[n] - P[r - 1]) + q * P[r - 1]``: the test
    stake > tau * total + above, multiplied through by q and by the
    (positive) common denominator.  That bound only falls as the suffix
    grows upward, so the end never moves right and one pointer serves every
    suffix.  The token values are scaled too: ``v_scaled[r]`` is v(d[r])
    times ``v_scale``, both from :meth:`Instance.token_values
    <stakegame.core.Instance.token_values>` on the pass's levels, which
    says how the instance's table is filled; every comparison the solvers
    make is linear in ``v_scale``.  The ``Fraction`` v[r] is
    ``v_scaled[r] / v_scale``, built only where a value is read out.
    :meth:`leaders` prices suffix leaders on these integers, each with the
    policy's own ``rewards`` on her suffix.  All arithmetic is exact.
    """

    __slots__ = ("instance", "stakes", "ranking", "d", "v_scaled", "v_scale")

    def __init__(self, stakes: StakeProfile | ScaledProfile, instance: Instance):
        tau = instance.tau_threshold
        if not 0 < tau < 1:
            raise ValueError(f"tau must lie in (0, 1), got {tau}")
        stakes = scaled_profile(stakes)
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

        d = [1] * (n + 2)
        p, q = tau.numerator, tau.denominator
        full = prefix[n]
        end = n
        for r in range(n, 0, -1):
            above = prefix[r - 1]
            bar = p * (full - above) + q * above
            while end > r and q * prefix[end - 1] > bar:
                end -= 1
            d[r] = end - r + 1

        self.instance = instance
        self.stakes = stakes
        self.ranking = ranking
        self.d = d
        self.v_scaled, self.v_scale = instance.token_values(d)

    def suffix(self, r: int) -> frozenset:
        """The participant set of suffix r (r = n + 1 gives the empty set)."""
        return frozenset(self.ranking[r - 1 :])

    def leaders(self, policy: Policy) -> Callable[[int], Tuple[int, int, int, int]]:
        """Price suffix leaders on integers, one rank at a time, in any order.

        Returns ``price``: ``price(r)`` gives ``(worth, net, stake, unit)``
        for the leader i of suffix r.  Her expected reward B is her entry of
        the round's own rule, the policy's ``rewards`` on suffix r, as the
        integer pair ``(b_num, b_den)``, with ``b_num`` 0 when the rule
        leaves her out.  Over the common denominator ``unit``, ``worth`` is
        her cost-free worth (stake + B) * v[r], ``net`` that worth minus her
        cost (what participating gives her), and ``stake * v_scaled[k]`` her
        stake priced at v[k].  The pair is taken as is: no ``Fraction`` is
        built and no gcd taken, and ``b_den`` and the cost's denominator
        enter ``unit``; every comparison the solvers make is scale-free in
        it.  A rank costs one ``rewards`` call on its suffix, so each caller
        prices only the ranks it reads, in its own order: the myopic rank
        and the lookahead solve from rank 1 down to the decisive rank, and
        the full labeling every rank from n up.
        """
        instance, stakes, ranking = self.instance, self.stakes, self.ranking
        player, rewards, scaled, scale = instance.player, policy.rewards, stakes.nums, stakes.den
        v_scaled, v_scale = self.v_scaled, self.v_scale

        def price(r: int) -> Tuple[int, int, int, int]:
            leader = ranking[r - 1]
            nums, b_den = rewards(instance, stakes, ranking[r - 1 :])
            b_num = nums.get(leader, 0)
            c_num, c_den = player(leader).cost.as_integer_ratio()
            stake = scaled[leader] * b_den * c_den
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


def _labels(
    profile: RankedProfile, policy: Policy, from_top: bool = False
) -> Tuple[Dict[PlayerId, Label], int]:
    """Recovery-winner labels keyed by player id, and the myopic equilibrium's rank.

    The labels' keys are the labeled ranks' leaders; the rank returned, and
    the rank a :class:`RecoveryWinnerLabel` names, stay ranks.  This is the
    one place a rank becomes an id for the labels.

    Exactly the harmful ranks get a label: those whose leader's net worth
    (stake + B) * v[r] - cost falls below her stake priced at v[r + 1].  The
    candidate for a harmful rank r is the first later rank that is
    non-harmful or labeled ``PAR``; r is labeled with it when her cost-free
    worth (stake + B) * v[r] falls below v[candidate] * stake, and ``PAR``
    otherwise.  Scanning upward from the last rank, the candidate is the one
    seen most recently, and it is decided on the kernel's integers
    (:meth:`RankedProfile.leaders`).  The last candidate seen is the top
    rank that is non-harmful or labeled ``PAR``: the myopic equilibrium's
    rank.

    A non-harmful rank sets the candidate without reading the one the ranks
    below it left, so the ranks below the first non-harmful rank k from the
    top cannot change the rank.  ``from_top`` prices ranks 1, 2, ... down to
    k only, then runs the same upward scan from k, over the prices it holds:
    the labels of ranks 1..k - 1 and the rank, with no rank priced twice.
    Without it the scan starts at rank n and labels every rank: the full
    pass that :func:`recovery_winner_labels` and :func:`threshold` read.
    With no non-harmful rank, the two starts coincide.  ``from_top`` has one
    caller, :func:`_priced_myopic`.
    """
    ranking, v_scaled, price = profile.ranking, profile.v_scaled, profile.leaders(policy)
    priced: Dict[int, Tuple[int, int, int, int]] = {}
    start = len(ranking)
    if from_top:
        for r in range(1, start + 1):
            _, net, stake, _ = priced[r] = price(r)
            if net >= stake * v_scaled[r + 1]:
                start = r
                break
    labels: Dict[PlayerId, Label] = {}
    candidate: Optional[int] = None
    for r in range(start, 0, -1):
        worth, net, stake, _ = priced.get(r) or price(r)
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
        labels[ranking[r - 1]] = label
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
    participates anyway.  Prices each rank once, with one ``rewards`` call
    on its suffix, and makes one harmfulness decision per rank.
    """
    instance.check_profile(stakes)
    return _labels(RankedProfile(stakes, instance), policy)[0]


def myopic_equilibrium(
    stakes: StakeProfile,
    instance: Instance,
    policy: Policy,
) -> frozenset:
    """The unique stage equilibrium for myopic players: a suffix of the ranking.

    Scanning ranks from the largest stake downward, returns the suffix of the
    first rank that is either non-harmful there or harmful without a recovery
    winner.  Only ranks 1..k are priced, k the first non-harmful rank from
    the top (all n when there is none): the ranks below k cannot change the
    answer (:func:`_labels`).
    """
    instance.check_profile(stakes)
    profile, r = _priced_myopic(stakes, instance, policy)
    return profile.suffix(r)


def _priced_myopic(
    stakes: StakeProfile | ScaledProfile, instance: Instance, policy: Policy
) -> Tuple[RankedProfile, int]:
    """The myopic stage solve: one kernel pass and the equilibrium's rank r.

    The one owner of the myopic rank rule: the set is ``profile.suffix(r)``,
    with index d[r] and token value ``v_scaled[r] / v_scale``, the pair
    :meth:`LookaheadSolver._solve` returns for planning players.  Its
    callers read that pair: :func:`myopic_equilibrium` (after its profile
    check), the walk memo of :meth:`LookaheadSolver._recovery`, the
    engine's myopic rounds (``Runner._solve``) and the sybil search's split
    utility (``sybil._equilibrium_utility``).  The rank is found from the
    top: a recovery walk's step is most often decided at rank 1, after one
    ``rewards`` call.
    """
    profile = RankedProfile(stakes, instance)
    return profile, _labels(profile, policy, from_top=True)[1]


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
        self, stakes: StakeProfile | ScaledProfile, walked: Dict[tuple, tuple]
    ) -> Tuple[RankedProfile, int]:
        """The profile's kernel and the equilibrium's rank r.

        The set is ``profile.suffix(r)``, with index d[r] and token value
        v[r].  From rank 1 down, each leader is priced and her walk to suffix
        r + 1 run; r is the first rank whose leader is non-harmful, her net
        worth ``net / unit`` from :meth:`RankedProfile.leaders` at least her
        walk's terminal value ``num / den``, decided on integers.  With no
        such rank, r is n.  The stakes are a map or a scaled profile (the
        engine's, which the kernel takes as it is).  The walks start from the
        kernel's own scaled stakes and share their steps through ``walked``.
        """
        profile = RankedProfile(stakes, self.instance)
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
        kernel's own.  Each step adds the policy's integer ``rewards`` for
        the round's participants by :meth:`ScaledProfile.plus
        <stakegame.core.ScaledProfile.plus>`, which leaves them in lowest
        terms, so ``key = (den, *nums)``, the nums in the start profile's id
        order, names the profile canonically: two walks of one call reach the
        same key exactly when they reach the same profile.  ``walked`` holds
        the steps of one solve call by key: the profile's myopic equilibrium
        and that set's token value as the pair ``(v_scaled[r], v_scale)``,
        both read from the ``(profile, r)`` of one :func:`_priced_myopic`
        call, whose kernel pass takes the walk's ints as they are.
        The set and the value depend on the profile alone (the pair's scale
        is the value table's at the time), so a profile that several walks
        reach is solved and priced once, and every walk is the one it would
        find on its own.  The terminal value is ``nums[i] * v_scaled[r]``
        over ``den * v_scale``, not in lowest terms.  No ``Fraction`` stake
        or value is built, but for the start a
        :class:`LookaheadHorizonError` names; :meth:`solve_with_plans` and
        :meth:`abstention_value` build them for what they return.
        """
        current, participants = stakes, participants_now
        steps: List[Tuple[frozenset, tuple]] = []
        for _ in range(self.horizon_cap):
            if participants:
                current = current.plus(*self.policy.rewards(self.instance, current, participants))
            key = (current.den, *current.nums.values())
            step = walked.get(key)
            if step is None:
                profile, r = _priced_myopic(current, self.instance, self.policy)
                step = walked[key] = (profile.suffix(r), profile.v_scaled[r], profile.v_scale)
            future, v_num, v_den = step
            steps.append((future, key))
            if i in future:
                return current.nums[i] * v_num, current.den * v_den, steps
            participants = future
        raise LookaheadHorizonError(
            i, {pid: Fraction(s, stakes.den) for pid, s in stakes.nums.items()}, self.horizon_cap
        )


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
        try:
            return dict(self.per_player)[pid]
        except KeyError:
            raise KeyError(f"no player with id {pid}") from None


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
        stage = FixedWinner(record.winner) if isinstance(trace.policy, MuEll) else trace.policy
        profile = RankedProfile(dict(record.stakes_before), instance)
        v_full = Fraction(profile.v_scaled[1], profile.v_scale)
        for pid in _labels(profile, stage)[0]:
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

    One call computes each subset's token value once, with
    :func:`stage_value` over that subset's stakes, and decides each
    ``(player, set)`` once: a set's member check and the outsider check of
    the set without that player share the decision.  Both are
    ``functools.cache`` memos of the call, which keep no decision that
    raises; the subsets are visited in size order, members before
    outsiders, each check stopping at its first answer, so the memos change
    no result and no :class:`LookaheadHorizonError`.  Myopic mode does not
    use the suffix kernel (:class:`RankedProfile`): there the oracle is the
    independent reference the kernel-based solvers are checked against.  A
    lookahead abstention is priced by the solver's own recovery walk, which
    does use the kernel, and all walks of one call share one memo of walked
    profiles, as the walks of one :meth:`LookaheadSolver.solve` do.  That
    walk's independent check is the unshared reference walk in the tests.
    The horizon cap is checked in both modes, by the solver's constructor.
    """
    instance.check_profile(stakes)
    ids = sorted(stakes)
    if len(ids) > 12:
        raise ValueError(f"brute force limited to 12 players, got {len(ids)}")
    if behavior not in ("myopic", "lookahead"):
        raise ValueError(f"unknown behavior {behavior!r}")
    solver = LookaheadSolver(instance, policy, horizon_cap)
    start = scaled_profile(stakes)
    walked: Dict[tuple, tuple] = {}

    @cache
    def value(subset: frozenset) -> Fraction:
        return stage_value(instance, stakes, subset)[1]

    @cache
    def stays(i: PlayerId, subset: frozenset) -> bool:
        """Whether i, a member of ``subset``, does at least as well there as by abstaining."""
        up = _priced_utility(instance, stakes, policy, i, subset, value(subset))
        without_i = subset - {i}
        if behavior == "myopic":
            return up >= _priced_utility(instance, stakes, policy, i, without_i, value(without_i))
        num, den, _ = solver._recovery(i, without_i, start, walked)
        return up >= Fraction(num, den)

    return [
        subset
        for size in range(len(ids) + 1)
        for subset in map(frozenset, combinations(ids, size))
        if all(stays(i, subset) for i in subset)
        and not any(stays(i, subset | {i}) for i in ids if i not in subset)
    ]
