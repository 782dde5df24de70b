"""Fold a cProfile call graph by layer.

Input is the ``pstats`` table ``{func: (cc, nc, tt, ct, callers)}`` with
``func = (file, line, name)`` and ``callers = {func: (nc, cc, tt, ct)}``.
``layer_of(file)`` names the layer a file belongs to, or ``None`` for
code that belongs to no layer (builtins, the standard library, numpy):
such a function is *transparent* — its self time is charged to the
layer that called it, and a call it makes into a layer counts as a call
from its caller's layer. Where a transparent function has callers in
several layers its share goes to each in proportion to the call counts,
which are exact, so the fold's counts repeat from run to run.

Every call whose caller and callee are in different layers is a span
boundary: per edge the fold keeps the call count and the inclusive
time, and a layer's self time is what is left of its inclusive time
once its child spans are taken out — the sum of the self times of its
functions and of the transparent functions charged to it. The self
times of all layers add up to the profile's total by construction.
"""

#: The layer of the benchmark's own files and of time no repro layer
#: caused: the "other / unattributed" line of the layer budget.
HARNESS = "harness"


def fold(stats, layer_of):
    """Fold ``stats`` by layer.

    Returns ``{"total_s", "layers": {layer: {"self_s", "calls",
    "calls_in"}}, "edges": {"caller->callee": {"calls",
    "inclusive_s"}}}``. ``calls`` counts calls of the layer's own
    functions; ``calls_in`` those that came from another layer.
    """
    own_layer = {func: layer_of(func[0]) for func in stats}
    transparent = sorted(func for func in stats if own_layer[func] is None)

    # {layer: weight} of the layers each transparent function runs on
    # behalf of, propagated from its callers until it stops changing
    # (the call graph of the standard library has cycles).
    behalf = {func: {} for func in transparent}
    for _ in range(200):
        changed = False
        for func in transparent:
            weights = {}
            callers = stats[func][4]
            for caller in sorted(callers):
                count = callers[caller][0]
                for layer, weight in _shares(caller, own_layer, behalf).items():
                    weights[layer] = weights.get(layer, 0.0) + count * weight
            total = sum(weights.values())
            if total:
                weights = {layer: weight / total for layer, weight in weights.items()}
            if _differs(weights, behalf[func]):
                behalf[func] = weights
                changed = True
        if not changed:
            break

    def shares(func):
        return _shares(func, own_layer, behalf) or {HARNESS: 1.0}

    layers = {}
    edges = {}

    def row(layer):
        return layers.setdefault(layer, {"self_s": 0.0, "calls": 0, "calls_in": 0.0})

    total = 0.0
    for func in sorted(stats):
        _cc, ncalls, self_time, _ct, callers = stats[func]
        total += self_time
        own = own_layer[func]
        if own is None:
            charged = 0.0
            for caller in sorted(callers):
                caller_self = callers[caller][2]
                charged += caller_self
                for layer, weight in shares(caller).items():
                    row(layer)["self_s"] += caller_self * weight
            # Calls from frames that were already running when the
            # profile started have no caller record.
            row(HARNESS)["self_s"] += max(0.0, self_time - charged)
            continue
        mine = row(own)
        mine["self_s"] += self_time
        mine["calls"] += ncalls
        for caller in sorted(callers):
            count, _rec, _self, inclusive = callers[caller]
            for layer, weight in shares(caller).items():
                if layer == own:
                    continue
                mine["calls_in"] += count * weight
                edge = edges.setdefault(
                    "{}->{}".format(layer, own), {"calls": 0.0, "inclusive_s": 0.0}
                )
                edge["calls"] += count * weight
                edge["inclusive_s"] += inclusive * weight
    return {"total_s": total, "layers": layers, "edges": edges}


def _shares(func, own_layer, behalf):
    own = own_layer.get(func, HARNESS)
    if own is not None:
        return {own: 1.0}
    return behalf[func]


def _differs(new, old, tolerance=1e-9):
    if new.keys() != old.keys():
        return True
    return any(abs(new[layer] - old[layer]) > tolerance for layer in new)
