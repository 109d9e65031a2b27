"""Certified behavioural distance between weighted automata.

The discounted bisimulation distance sums, along the worst infinite symbol
sequence, the discounted absolute differences of the two functions.  Exact
values are uncomputable in general, so everything here is an interval
guaranteed to contain the truth.  On one-letter automata the distance has a
closed form, which makes a nice end-to-end check.
"""

import numpy as np

from wfametrics import (
    Wfa,
    admissible_gamma_bound,
    compute_tail_params,
    difference,
    distance,
    distance_upper_bound,
    parameter_continuity_experiment,
    seminorm_interval,
)

def growth(tau):
    return Wfa(alphabet=("a",), alpha=[1.0], beta=[1.0], trans={"a": [[tau]]})

gamma = 0.5

print("one-letter pairs: interval vs closed form 1/(1-g*tau_i) - 1/(1-g)")
for i in (1, 2, 3):
    tau_i = 1 + 2.0**-i
    iv = distance(growth(1.0), growth(tau_i), gamma, eps=1e-6)
    closed = 1 / (1 - gamma * tau_i) - 1 / (1 - gamma)
    print(f"  i={i}: [{iv.lower:.8f}, {iv.upper:.8f}]  closed form {closed:.8f}"
          f"  ({iv.nodes_expanded} nodes)")

# the discount must keep gamma * growth-rate below 1
a = growth(1.5)
print("\nadmissible discounts for tau=1.5: gamma <", admissible_gamma_bound(a))
params = compute_tail_params(difference(a, growth(1.0)), gamma)
print("tail certificate: theta =", params.theta, " block length =", params.block_len)

# equivalent automata collapse instantly: the kernel projection sees that the
# difference automaton's initial vector is entirely redundant
iv = distance(a, a, gamma)
print("\nd(A, A) =", (iv.lower, iv.upper), "after", iv.nodes_expanded, "expansions")

# the closed-form parameter bound always dominates the true distance
b = growth(1.25)
bound = distance_upper_bound(a, b, gamma)
iv = distance(a, b, gamma, eps=1e-8)
print("\nparameter bound", round(bound, 6), ">= certified upper", round(iv.upper, 6))

# a budget cut returns a wider but still valid interval
rng = np.random.default_rng(1)
tr = {s: rng.standard_normal((3, 3)) for s in ("a", "b")}
top = max(np.linalg.norm(m, 2) for m in tr.values())
tr = {s: 0.95 * m / top for s, m in tr.items()}
big = Wfa(alphabet=("a", "b"), alpha=rng.standard_normal(3),
          beta=rng.standard_normal(3), trans=tr)
v = rng.standard_normal(3)
for budget in (20, 200, 2000, 20000):
    iv = seminorm_interval(big, v, gamma=0.9, eps=1e-9, budget=budget)
    print(f"  budget {budget:>6}: [{iv.lower:.6f}, {iv.upper:.6f}]"
          f" converged={iv.converged}")

# parameter continuity: smaller perturbations, smaller distances
base = Wfa(alphabet=("a", "b"), alpha=[1.0, 0.0], beta=[0.5, -0.5],
           trans={s: 0.4 * np.eye(2) + 0.2 * m for s, m in
                  zip(("a", "b"), (np.eye(2)[::-1], np.eye(2)))})
print("\nperturbation sweep (scale, lower, upper, parameter bound):")
for row in parameter_continuity_experiment(base, [1e-1, 1e-2, 1e-3], gamma=0.4, seed=0):
    print("  ", tuple(round(x, 8) for x in row))
