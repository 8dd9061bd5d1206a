"""Explore the capability/stake interpolation lottery.

A round's winner is drawn with probability proportional to a virtual stake
alpha * capability + (1 - alpha) * stake.  The expected selection
probabilities are exactly invariant over time, so the round-one shares are
also the long-run shares.  Yet for any alpha below 1 a rich-enough incumbent
with the worst capability outgrows the most capable player; this script
sweeps the incumbent's stake advantage to show the gap closing only in the
limit.
"""

from fractions import Fraction

from stakegame import (
    VirtualStakeState,
    check_invariance,
    incumbent_gap_state,
    sampled_win_frequencies,
    selection_probabilities,
)


def main():
    state = VirtualStakeState.build(Fraction(1, 2), {1: 2, 2: 1}, {1: 1, 2: 1})
    w = selection_probabilities(state)
    shares_str = {pid: str(share) for pid, share in w.items()}
    print(f"alpha = 1/2, capabilities (2, 1), unit stakes: shares {shares_str}")
    print(f"exact invariance over 200 expected rounds: {check_invariance(state, 200).ok}")

    freq = sampled_win_frequencies(
        VirtualStakeState.build(Fraction(1, 2), {1: 2, 2: 1}, {1: 300000, 2: 200000}),
        50000,
        seed=7,
    )
    print(f"sampled win frequencies over 50000 rounds: "
          f"{{1: {float(freq[1]):.4f}, 2: {float(freq[2]):.4f}}}")

    print("\nincumbent with worst capability (1) versus best capability (3), alpha = 1/2:")
    print(f"{'stake bonus M':>13}  {'best-type share':>16}  {'incumbent share':>16}")
    for m in (10, 100, 1000, 10000):
        shares = selection_probabilities(incumbent_gap_state(Fraction(1, 2), {1: 3, 2: 1}, m))
        print(f"{m:>13}  {str(shares[1]):>16}  {str(shares[2]):>16}")
    print("the incumbent wins more often at every M; only M -> infinity closes the gap")


if __name__ == "__main__":
    main()
