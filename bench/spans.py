"""In-memory span tracing of twospin's layers, installed from outside ``src/``.

Each traced function is replaced at the module attribute its caller looks up
(``twospin.cli.certify_construct``, ``twospin.reductions.partition_function``,
...) by a wrapper that records a span: name, start, end and the index of the
enclosing span.  Self time is a span's duration minus the time its child
spans cover.  An exception is counted once, against the layer whose own code
raised it (the innermost span it escaped from).

Layers are the package's modules: core, exact, recursion, construct,
gadgets, reductions, cli and serialize.  Only the calls listed in
``install`` are wrapped; hot scalar helpers such as ``edge_ratio`` are left
alone so that tracing stays cheap.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

LAYERS = ("core", "exact", "recursion", "construct", "gadgets", "reductions",
          "cli", "serialize")
ERROR_TYPES = ("DomainError", "CapacityError", "NumericError", "InvariantViolation",
               "OverflowError", "Other")

# metric name -> unit, in the order they are reported
METRICS = {
    "core.float.calls": "count", "core.float.self_s": "s",
    "core.float.configs": "count", "core.float.configs_per_s": "1/s",
    "core.exact.calls": "count", "core.exact.self_s": "s", "core.exact.configs": "count",
    "core.exact.quad_self_s": "s", "core.exact.fraction_self_s": "s",
    "recursion.calls": "count", "recursion.self_s": "s", "recursion.fixpoint_iters": "count",
    "construct.calls": "count", "construct.self_s": "s", "construct.levels": "count",
    "construct.within_bound_share": "share", "construct.min_slack": "ln",
    "gadgets.field.calls": "count", "gadgets.field.self_s": "s",
    "gadgets.materialize.self_s": "s", "gadgets.materialize.vertices": "count",
    "reductions.contract.calls": "count", "reductions.contract.self_s": "s",
    "reductions.contract.vertices_peeled": "count",
    "reductions.contract.peeled_per_s": "1/s",
    "reductions.build.self_s": "s", "reductions.verify.self_s": "s",
    "reductions.verify.false": "count", "reductions.selfloop.self_s": "s",
    "cli.self_s": "s", "serialize.self_s": "s", "serialize.bytes": "B",
}
METRICS.update({f"{layer}.errors.{kind}": "count"
                for layer in LAYERS for kind in ERROR_TYPES})


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, facts]
        self.errors = Counter()
        self._stack = []
        self._seen = {}
        self._patches = []

    def wrap(self, module, attr: str, name: str, facts=None) -> None:
        """Trace ``module.attr`` as span ``name``; ``facts(result, args)`` adds counts."""
        fn = getattr(module, attr)
        spans, stack, seen, errors = self.spans, self._stack, self._seen, self.errors
        layer = name.split(".")[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[3] = clock()
                stack.pop()
                if id(exc) not in seen:
                    seen[id(exc)] = exc
                    kind = type(exc).__name__
                    errors[layer, kind if kind in ERROR_TYPES else "Other"] += 1
                raise
            rec[3] = clock()
            stack.pop()
            if facts is not None:
                rec[4] = facts(out, args)
            return out

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def install(self) -> None:
        # import_module: the package re-exports a function named ``construct``
        cli, construct, core, gadgets, recursion, red = (
            importlib.import_module(f"twospin.{name}")
            for name in ("cli", "construct", "core", "gadgets", "recursion", "reductions"))
        from twospin.exact import Quad

        def n_bytes(out, args):
            return {"bytes": len(out)}

        def configs(out, args):
            graph, params, pins = args
            return {"configs": 2 ** (graph.n - len(pins))}

        def exact_configs(out, args):
            graph, params, pins = args
            values = [params.beta, params.gamma] + [f for _, f in graph.vertices]
            return {"configs": 2 ** (graph.n - len(pins)),
                    "quad": any(isinstance(v, Quad) for v in values)}

        def iterates(out, args):
            return {"iters": len(out) - 1}

        def report(out, args):
            return {"levels": len(out.trace), "slack": out.bound - abs(out.log_error)}

        def materialized(out, args):
            return {"vertices": out.n}

        def peeled(out, args):
            return {"peeled": args[0].n - out[0].n}

        def verdict(out, args):
            return {"false": out.verified is False}

        self.wrap(cli, "main", "cli")
        for attr in ("dump_json", "dump_csv"):
            self.wrap(cli, attr, "serialize", n_bytes)
        for module, attr in ((cli, "partition_function"), (cli, "effective_field"),
                             (red, "partition_function")):
            self.wrap(module, attr, "core")
        self.wrap(core, "_log_partition_float", "core.float", configs)
        self.wrap(core, "_partition_exact", "core.exact", exact_configs)
        for attr in ("sqrt_fraction", "half_power"):
            self.wrap(red, attr, "exact")
        for module, attr in ((cli, "solve_mu_star"), (cli, "decay_constants"),
                             (cli, "hardness_thresholds"), (cli, "uniqueness_threshold"),
                             (construct, "decay_constants"),
                             (construct, "construction_field_bound"),
                             (gadgets, "decay_constants"), (recursion, "solve_mu_star")):
            self.wrap(module, attr, "recursion")
        self.wrap(recursion, "fixed_point_iterates", "recursion", iterates)
        self.wrap(cli, "certify_construct", "construct", report)
        self.wrap(construct, "gadget_field", "gadgets.field")
        self.wrap(cli, "materialize", "gadgets.materialize", materialized)
        for attr in ("star_convergence", "tree_convergence"):
            self.wrap(cli, attr, "gadgets")
        for attr in ("bipartite_transform", "contract_certificate", "to_ising",
                     "ising_pipeline"):
            self.wrap(red, attr, "reductions.build")
        self.wrap(red, "contract_degree_one", "reductions.contract", peeled)
        self.wrap(red, "verify_reduction", "reductions.verify", verdict)
        self.wrap(red, "realize_field_selfloops", "reductions.selfloop")

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def end_job(self) -> None:
        """Forget the exceptions already counted; call after every job."""
        self._seen.clear()

    def take(self) -> dict:
        """Per-layer metrics for the spans recorded since the last call; resets."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        facts = defaultdict(list)
        quad_s = fraction_s = 0.0
        for i, (name, parent, start, end, extra) in enumerate(spans):
            own = end - start - child[i]
            self_s[name] += own
            if parent < 0 or spans[parent][0] != name:
                calls[name] += 1
            if extra is not None:
                facts[name].append(extra)
                if name == "core.exact":
                    if extra["quad"]:
                        quad_s += own
                    else:
                        fraction_s += own

        def total(name, key):
            return sum(f.get(key, 0) for f in facts[name])

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        slacks = [f["slack"] for f in facts["construct"]]
        out = {
            "core.float.calls": calls["core.float"],
            "core.float.self_s": self_s["core.float"],
            "core.float.configs": total("core.float", "configs"),
            "core.float.configs_per_s": rate(total("core.float", "configs"),
                                             self_s["core.float"]),
            "core.exact.calls": calls["core.exact"],
            "core.exact.self_s": self_s["core.exact"],
            "core.exact.configs": total("core.exact", "configs"),
            "core.exact.quad_self_s": quad_s,
            "core.exact.fraction_self_s": fraction_s,
            "recursion.calls": calls["recursion"],
            "recursion.self_s": self_s["recursion"],
            "recursion.fixpoint_iters": total("recursion", "iters"),
            "construct.calls": calls["construct"],
            "construct.self_s": self_s["construct"],
            "construct.levels": total("construct", "levels"),
            "construct.within_bound_share": (sum(s >= 0 for s in slacks) / len(slacks)
                                             if slacks else 0.0),
            "construct.min_slack": min(slacks) if slacks else 0.0,
            "gadgets.field.calls": calls["gadgets.field"],
            "gadgets.field.self_s": self_s["gadgets.field"],
            "gadgets.materialize.self_s": self_s["gadgets.materialize"],
            "gadgets.materialize.vertices": total("gadgets.materialize", "vertices"),
            "reductions.contract.calls": calls["reductions.contract"],
            "reductions.contract.self_s": self_s["reductions.contract"],
            "reductions.contract.vertices_peeled": total("reductions.contract", "peeled"),
            "reductions.contract.peeled_per_s": rate(total("reductions.contract", "peeled"),
                                                     self_s["reductions.contract"]),
            "reductions.build.self_s": self_s["reductions.build"],
            "reductions.verify.self_s": self_s["reductions.verify"],
            "reductions.verify.false": total("reductions.verify", "false"),
            "reductions.selfloop.self_s": self_s["reductions.selfloop"],
            "cli.self_s": self_s["cli"],
            "serialize.self_s": self_s["serialize"],
            "serialize.bytes": total("serialize", "bytes"),
        }
        for layer in LAYERS:
            for kind in ERROR_TYPES:
                out[f"{layer}.errors.{kind}"] = self.errors[layer, kind]
        assert set(out) == set(METRICS)
        spans.clear()
        self.errors.clear()
        return {k: float(v) for k, v in out.items()}
