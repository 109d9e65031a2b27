"""Unobservable MDPs: discounted values of blind action sequences.

With no observations, a plan is just a fixed action string, and its value is
the expected discounted reward.  The sup over all infinite strings is exactly
a weighted-automaton seminorm, so the certified interval machinery brackets
it; whether that sup exceeds a threshold is famously undecidable, which is
why brackets are the honest answer.
"""

import numpy as np

from wfametrics import (
    Umdp,
    umdp_sup_value_interval,
    umdp_to_wfa,
    umdp_value_truncated,
    evaluate,
)

# two actions: "stay" mixes slowly, "jump" rushes toward the rewarding state
u = Umdp(
    actions=("jump", "stay"),
    alpha=[1.0, 0.0],
    beta=[0.0, 2.0],
    trans={
        "stay": np.array([[0.9, 0.1], [0.2, 0.8]]),
        "jump": np.array([[0.1, 0.9], [0.0, 1.0]]),
    },
    gamma=0.8,
)

print("value of repeating each action, horizon 20:")
for act in u.actions:
    val = umdp_value_truncated(u, (act,) * 20, 20)
    print(f"  {act:>4}^20 -> {val:.6f}")

mixed = ("jump",) + ("stay",) * 19
print(f"  jump then stay -> {umdp_value_truncated(u, mixed, 20):.6f}")

# the reduction to a weighted automaton reproduces values exactly
a = umdp_to_wfa(u)
word = ("jump", "stay", "stay", "jump")
lhs = umdp_value_truncated(u, word, 4)
rhs = sum(
    u.gamma**t * abs(evaluate_prefix)
    for t, evaluate_prefix in enumerate(
        [evaluate(a, word[:t]) for t in range(4)]
    )
)
print("\nUMDP value vs automaton sum on", word, ":", round(lhs, 12), round(rhs, 12))

# certified bracket of the sup value over all strategies
iv = umdp_sup_value_interval(u, eps=1e-4)
print("\nsup value bracket:", (round(iv.lower, 6), round(iv.upper, 6)))
print("best action prefix found:", " ".join(iv.witness_prefix[:8]), "...")
# the lower end is a lasso (a prefix, then a short action loop forever)
# written out until its dropped tail is worth at most eps / 100, so the
# witness is longer than the search went deep
print(f"witness length {len(iv.witness_prefix)}, search depth {iv.depth_explored}")

# single-action chains have a closed form to compare against
single = Umdp(actions=("stay",), alpha=u.alpha, beta=u.beta,
              trans={"stay": u.trans["stay"]}, gamma=u.gamma)
iv = umdp_sup_value_interval(single, eps=1e-8)
resolvent = float(single.alpha @ np.linalg.solve(
    np.eye(2) - single.gamma * single.trans["stay"], single.beta))
print("\nsingle action: bracket", (round(iv.lower, 9), round(iv.upper, 9)),
      " resolvent", round(resolvent, 9))
