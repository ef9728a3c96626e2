"""The period-state DP as it was before it walked only budget-saturated
extensions, kept as the reference `exact.brute_force_optimum` is checked
against: it values every reachable state, saturated or not, and returns the
lexicographically first optimal schedule.
"""

import numpy as np

from evcover import exact
from evcover.covering import evaluate
from evcover.exact import EnumerationCapExceeded, _instance_extensions
from evcover.instance import SolutionX


def reference_reachable_states(instance):
    """Per period, every reachable level vector, in the order first reached
    from the previous period's states; refused past exact.MAX_STATES."""
    layer = [_initial_state(instance)]
    layers, room = [], exact.MAX_STATES
    for t_idx in range(instance.horizon):
        reached = {}
        for base in layer:
            for state in _instance_extensions(instance, base, t_idx):
                reached[state] = None
                if len(reached) > room:
                    raise EnumerationCapExceeded(exact.MAX_STATES,
                                                 f"reachable states by period {t_idx + 1}")
        layer = list(reached)
        room -= len(layer)
        layers.append(layer)
    return layers


def _initial_state(instance):
    return tuple(int(v) for v in instance.initial_levels)


def reference_optimum(instance, coverage):
    """(SolutionX, f_star) of the lexicographically first optimal schedule,
    by a backward pass over every reachable state."""
    layers = reference_reachable_states(instance)
    T = len(layers)
    best_child = [None] * T
    v_next = None
    for t in range(T, 0, -1):
        states = layers[t - 1]
        v = [coverage.value_of_words(coverage.held_words(s, t, t), t, t) for s in states]
        if v_next is not None:
            v = [a + b for a, b in zip(v, v_next)]
        index = {s: i for i, s in enumerate(states)}
        parents = layers[t - 2] if t > 1 else [_initial_state(instance)]
        v_next, choice = [], []
        for base in parents:
            kids = [index[e] for e in _instance_extensions(instance, base, t - 1)]
            vals = [v[k] for k in kids]
            best = max(vals)
            v_next.append(best)
            choice.append(kids[vals.index(best)])
        best_child[t - 1] = np.array(choice, dtype=np.int64)

    levels = np.zeros((instance.n_stations, T), dtype=int)
    i = 0
    for t_idx in range(T):
        i = int(best_child[t_idx][i])
        levels[:, t_idx] = layers[t_idx][i]
    max_k = int(instance.max_outlets.max()) if instance.n_stations else 0
    x = SolutionX.from_levels(levels, max_k)
    return x, float(evaluate(instance, coverage, x))
