"""Command-line front end.

Subcommands expose every library operation with reproducible outputs: JSON
documents (sorted keys, floats at 12 significant digits) on stdout and/or
--output, CSV for sweeps.  Exit codes: 0 success, 2 domain error, 3 capacity
error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import reductions as red
from .construct import certify as certify_construct
from .core import (ENUM_LIMIT, SpinParams, effective_field, graph_from_json,
                   graph_to_json, partition_function)
from .errors import CapacityError, DomainError, NumericError
from .gadgets import gadget_to_json, materialize, star_convergence, tree_convergence
from .instances import random_bipartite_graph, random_graph
from .recursion import (RecursionParams, decay_constants, hardness_thresholds,
                        solve_mu_star, uniqueness_threshold)
from .serialize import SCHEMA_VERSION, dump_csv, dump_json, exact_str


def _scalar(text: str, mode: str):
    """Parse a numeric flag; rational mode keeps it exact."""
    try:
        return Fraction(text) if mode == "rational" else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a number: {text!r}") from exc


def _load_graph(path: str, mode: str):
    try:
        with open(path) as fh:
            if mode == "rational":
                doc = json.load(fh, parse_float=Fraction)
            else:
                doc = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc
    return graph_from_json(doc)


def _emit(text: str, output: str | None) -> None:
    sys.stdout.write(text)
    if output:
        with open(output, "w") as fh:
            fh.write(text)


def _instance_doc(inst: red.Instance) -> dict:
    """The instance's graph JSON with every number as a float."""
    doc = graph_to_json(inst.graph, inst.params)
    doc["beta"] = float(doc["beta"])
    doc["gamma"] = float(doc["gamma"])
    for vertex in doc["vertices"]:
        vertex["field"] = float(vertex["field"])
    doc["mu"] = float(inst.params.mu)
    return doc


def _certificate_doc(cert: red.ReductionCertificate) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": cert.kind,
        "relation": cert.relation,
        "scale": float(cert.scale),
        "scale_exact": exact_str(cert.scale),
        "verified": cert.verified,
        "input": _instance_doc(cert.input),
        "output": _instance_doc(cert.output),
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_eval(args) -> int:
    graph, params = _load_graph(args.input, args.mode)
    if args.beta is not None or args.gamma is not None:
        beta = _scalar(args.beta, args.mode) if args.beta is not None else params.beta
        gamma = _scalar(args.gamma, args.mode) if args.gamma is not None else params.gamma
        params = SpinParams(beta, gamma, params.mu)
    z = partition_function(graph, params, limit=args.enum_limit,
                           exact=(args.mode == "rational"))
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "eval",
        "mode": args.mode,
        "n_vertices": graph.n,
        "n_edges": len(graph.edges),
        "Z": float(z),
        "Z_exact": exact_str(z),
    }
    if graph.output is not None:
        field = effective_field(graph, params, limit=args.enum_limit,
                                exact=(args.mode == "rational"))
        doc["effective_field"] = float(field)
        doc["effective_field_exact"] = exact_str(field)
    _emit(dump_json(doc), args.output)
    return 0


def cmd_fixpoint(args) -> int:
    params = SpinParams(args.beta, args.gamma, args.mu)
    rp = RecursionParams(params, args.d)
    mu_star = solve_mu_star(rp, rel_tol=args.tol)
    consts = decay_constants(rp)
    lower = args.mu / args.gamma ** args.d
    upper = args.beta ** args.d * args.mu
    bounds_ok = lower < mu_star < upper
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "fixpoint",
        "mu_star": mu_star,
        "bracket": {"lower": lower, "upper": upper, "ok": bounds_ok},
        "alpha": consts.alpha,
        "c": consts.c,
        "eta": consts.eta,
        "iota": consts.iota,
        "t0": consts.t0,
    }
    _emit(dump_json(doc), args.output)
    if not bounds_ok:
        print("error: fixed point escaped its a-priori bracket", file=sys.stderr)
        return 4
    return 0


def cmd_construct(args) -> int:
    params = SpinParams(args.beta, args.gamma, args.mu)
    rp = RecursionParams(params, args.d)
    report = certify_construct(args.ell, args.target, rp)
    trace = []
    for rec in report.trace:
        trace.append({
            "ell": rec.ell,
            "k": rec.k,
            "mu_values": rec.mu_values,
            "branches": [{"i": b.i, "y": b.y, "gadget": gadget_to_json(b.gadget)}
                         for b in rec.branches],
            "delta": rec.delta,
            "mu_hat_prime": rec.mu_hat_prime,
            "terminal": rec.terminal,
            "terminal_w": rec.terminal_w,
        })
    within = abs(report.log_error) <= report.bound
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "construct",
        "ell": report.depth,
        "target": report.target,
        "achieved": report.achieved,
        "log_error": report.log_error,
        "bound": report.bound,
        "within_bound": within,
        "size": report.size,
        "trace": trace,
    }
    _emit(dump_json(doc), args.output)
    if args.emit_gadget:
        with open(args.emit_gadget, "w") as fh:
            fh.write(dump_json(gadget_to_json(report.gadget)))
    if args.materialize:
        graph = materialize(report.gadget, params, limit=args.materialize_limit)
        with open(args.materialize, "w") as fh:
            fh.write(dump_json(graph_to_json(graph, params)))
    if not within:
        print("error: constructed gadget violates its error bound", file=sys.stderr)
        return 4
    return 0


def cmd_thresholds(args) -> int:
    params = SpinParams(args.beta, args.gamma, 1)
    th = hardness_thresholds(params, d=args.d)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "thresholds",
        "Delta": th.Delta,
        "d": th.d,
        "mu_bound_local_fields": th.mu_bound_local_fields,
        "mu_bound_uniform": th.mu_bound_uniform,
        "mu_bound_uniform_large_beta": th.mu_bound_uniform_large_beta,
        "note": th.note,
    }
    _emit(dump_json(doc), args.output)
    return 0


def _reduce_one(args, graph, params):
    if args.kind == "bipartite":
        left = args.left.split(",") if args.left else None
        return red.bipartite_transform(graph, _scalar(args.mu_prime, args.mode),
                                       params, left=left)
    if args.kind == "contract":
        return red.contract_certificate(graph, params)
    if args.kind == "ising":
        return red.to_ising(graph, params)
    if args.kind == "pipeline":
        return red.ising_pipeline(graph, params)
    raise DomainError(f"unknown reduction kind {args.kind!r}")


def cmd_reduce(args) -> int:
    mode = args.mode
    if args.kind == "selfloop":
        if None in (args.beta, args.gamma, args.mu, args.target, args.m):
            raise DomainError("--kind selfloop needs --beta --gamma --mu --target --m")
        params = SpinParams(_scalar(args.beta, mode), _scalar(args.gamma, mode),
                            _scalar(args.mu, mode))
        target = _scalar(args.target, "float")
        result = red.realize_field_selfloops(target, args.m, params)
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "reduce",
            "kind": "selfloop",
            "target": target,
            "m": args.m,
            "x": result.x,
            "y": result.y,
            "achieved": result.achieved,
            "log_error": math.log(result.achieved / target),
            "tolerance": 1.0 / args.m,
            "gadget": _instance_doc(red.Instance(result.gadget, params)),
        }
        verified = None
        if not args.no_verify:
            brute = effective_field(result.gadget, params, limit=args.enum_limit)
            verified = abs(brute - result.achieved) <= 1e-9 * result.achieved
            doc["verified"] = verified
        _emit(dump_json(doc), args.output)
        return 0 if verified in (None, True) else 4

    if args.random_trials:
        return _cmd_reduce_random(args)

    if args.input is None:
        raise DomainError(f"--kind {args.kind} needs --input (a graph JSON file)")
    if args.kind == "bipartite" and args.mu_prime is None:
        raise DomainError("--kind bipartite needs --mu-prime")
    graph, file_params = _load_graph(args.input, mode)
    beta = _scalar(args.beta, mode) if args.beta is not None else file_params.beta
    gamma = _scalar(args.gamma, mode) if args.gamma is not None else file_params.gamma
    mu = _scalar(args.mu, mode) if args.mu is not None else 1
    params = SpinParams(beta, gamma, mu)
    cert = _reduce_one(args, graph, params)
    if not args.no_verify:
        cert = red.verify_reduction(cert, limit=args.enum_limit)
    _emit(dump_json(_certificate_doc(cert)), args.output)
    return 0 if cert.verified in (None, True) else 4


def _cmd_reduce_random(args) -> int:
    if args.beta is None or args.gamma is None:
        raise DomainError("--random-trials needs --beta and --gamma")
    if args.kind == "bipartite" and args.mu_prime is None:
        raise DomainError("--kind bipartite needs --mu-prime")
    rng = random.Random(args.seed)
    failures = []
    for i in range(args.random_trials):
        if args.kind == "bipartite":
            graph, left = random_bipartite_graph(rng)
            params = SpinParams(_scalar(args.beta, args.mode),
                                _scalar(args.gamma, args.mode), 1)
            cert = red.bipartite_transform(graph, _scalar(args.mu_prime, args.mode),
                                           params, left=left)
        elif args.kind == "pipeline":
            beta = _scalar(args.beta, args.mode)
            gamma = _scalar(args.gamma, args.mode)
            mu = _scalar(args.mu, args.mode) if args.mu is not None else gamma / beta
            graph = random_graph(rng, field=mu)
            cert = red.ising_pipeline(graph, SpinParams(beta, gamma, mu))
        else:
            raise DomainError(f"--random-trials supports bipartite/pipeline, not {args.kind}")
        cert = red.verify_reduction(cert, limit=args.enum_limit)
        if not cert.verified:
            failures.append(i)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "reduce",
        "kind": args.kind,
        "random_trials": args.random_trials,
        "seed": args.seed,
        "failures": failures,
        "all_verified": not failures,
    }
    _emit(dump_json(doc), args.output)
    return 0 if not failures else 4


def cmd_sweep(args) -> int:
    if args.kind != "uniqueness" and None in (args.beta, args.gamma, args.mu):
        raise DomainError(f"--kind {args.kind} needs --beta --gamma --mu")
    if args.kind == "star":
        params = SpinParams(args.beta, args.gamma, args.mu)
        rows = [(w, field, bound)
                for w, field, bound in star_convergence(params, args.w_max)]
        text = dump_csv(["w", "field", "beta_power_bound"], rows)
    elif args.kind == "tree":
        rp = RecursionParams(SpinParams(args.beta, args.gamma, args.mu), args.d)
        consts = decay_constants(rp)
        rows = [(t, field, consts.mu_star, field / consts.mu_star, bound)
                for t, field, bound in tree_convergence(rp, args.t_max, consts)]
        text = dump_csv(["t", "field", "mu_star", "ratio", "ratio_bound"], rows)
    elif args.kind == "construct-error":
        rp = RecursionParams(SpinParams(args.beta, args.gamma, args.mu), args.d)
        consts = decay_constants(rp)
        rows = []
        for ell in range(args.ell_max + 1):
            for j in range(1, args.targets + 1):
                target = consts.mu_star * j / args.targets
                rep = certify_construct(ell, target, rp, consts)
                rows.append((ell, rep.target, rep.achieved, rep.log_error,
                             rep.bound, rep.size))
        text = dump_csv(["ell", "target", "achieved", "log_error", "bound", "size"], rows)
    elif args.kind == "uniqueness":
        rows = []
        for i in range(args.steps):
            frac = (i + 0.5) / args.steps
            beta = args.beta_min + (args.beta_max - args.beta_min) * frac
            rows.append((beta, uniqueness_threshold(beta, args.delta_reg)))
        text = dump_csv(["beta", "mu_c"], rows)
    else:
        raise DomainError(f"unknown sweep kind {args.kind!r}")
    _emit(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(sp, *, mode=False, enum=False, seed=False):
    sp.add_argument("--output", help="also write the result to this file")
    if mode:
        sp.add_argument("--mode", choices=["float", "rational"], default="float",
                        help="rational mode evaluates exactly (Fraction/Quad)")
    if enum:
        sp.add_argument("--enum-limit", type=int, default=ENUM_LIMIT,
                        help="max vertices for exhaustive evaluation")
    if seed:
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for the Mersenne Twister instance generator")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twospin",
        description="Two-state spin systems: exact partition functions, "
                    "gadget construction with certified error bounds, and "
                    "partition-preserving reductions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="partition function of a graph JSON file")
    p.add_argument("--input", required=True, help="graph JSON path")
    p.add_argument("--beta", help="override the file's beta")
    p.add_argument("--gamma", help="override the file's gamma")
    _add_common(p, mode=True, enum=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fixpoint", help="largest fixed point and decay constants")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_common(p)
    p.set_defaults(func=cmd_fixpoint)

    p = sub.add_parser("construct", help="build and certify a target-field gadget")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ell", type=int, required=True, help="recursion depth")
    p.add_argument("--target", type=float, required=True,
                   help="field in (0, mu_star] to realise")
    p.add_argument("--emit-gadget", help="write the gadget JSON here")
    p.add_argument("--materialize", help="write the materialised graph JSON here")
    p.add_argument("--materialize-limit", type=int, default=10 ** 6)
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("thresholds", help="degree/arity choices and field bounds")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--d", type=int, help="override the minimal arity")
    _add_common(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser(
        "reduce", help="partition-preserving transforms with certificates",
        description="kinds: bipartite (needs --input --mu-prime --beta --gamma), "
                    "selfloop (--beta --gamma --mu --target --m), contract/ising/"
                    "pipeline (--input, params from file or flags). "
                    "--random-trials N verifies N seeded random instances.")
    p.add_argument("--kind", required=True,
                   choices=["bipartite", "selfloop", "contract", "ising", "pipeline"])
    p.add_argument("--input", help="graph JSON path")
    p.add_argument("--beta")
    p.add_argument("--gamma")
    p.add_argument("--mu")
    p.add_argument("--mu-prime", help="anti-Ising field for the bipartite transform")
    p.add_argument("--left", help="comma-separated left part (default: 2-colour)")
    p.add_argument("--target", help="field to realise (selfloop)")
    p.add_argument("--m", type=int, help="precision parameter (selfloop)")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--random-trials", type=int, default=0)
    _add_common(p, mode=True, enum=True, seed=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser(
        "sweep", help="CSV convergence/error sweeps",
        description="CSV columns -- star: w,field,beta_power_bound | "
                    "tree: t,field,mu_star,ratio,ratio_bound | "
                    "construct-error: ell,target,achieved,log_error,bound,size | "
                    "uniqueness: beta,mu_c")
    p.add_argument("--kind", required=True,
                   choices=["star", "tree", "construct-error", "uniqueness"])
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--w-max", type=int, default=20)
    p.add_argument("--t-max", type=int, default=20)
    p.add_argument("--ell-max", type=int, default=6)
    p.add_argument("--targets", type=int, default=20)
    p.add_argument("--delta-reg", type=int, default=4,
                   help="tree degree for the uniqueness sweep")
    p.add_argument("--beta-min", type=float, default=0.05)
    p.add_argument("--beta-max", type=float, default=0.45)
    p.add_argument("--steps", type=int, default=9)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
