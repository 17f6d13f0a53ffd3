"""Command-line front end.

Subcommands expose every library operation with reproducible outputs: JSON
documents (sorted keys, floats at 12 significant digits) on stdout and/or
--output, CSV for sweeps.  Exit codes: 0 success, 2 domain error, 3 capacity
error, 4 verification failure.

Each subcommand is one row of ``COMMANDS``; its JSON document is built from
the library's result objects, and ``_emit`` adds the schema and command keys.
Files (--output, --emit-gadget, --materialize) are written before stdout.  An
existing file is overwritten in place and cut to the new length; the write is
neither atomic nor synced.

A well-formed argv is read straight from ``COMMANDS`` (`_read_argv`).
argparse builds its parser only for help and for the argvs that reader
refuses: an empty argv, an unknown command, -h/--help, an unknown or
abbreviated flag, --flag=value, a value starting with "-" (--mu -1), a value
its type or choices refuse, a missing required flag.  So help text, usage
errors and exit codes are argparse's.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import stat
import sys
from fractions import Fraction

from . import reductions as red
from .construct import Schedule, _check_depth, certify as certify_construct
from .core import (ENUM_LIMIT, SpinParams, _float, effective_field, graph_from_json,
                   graph_to_json, partition_and_field, partition_function)
from .errors import CapacityError, DomainError, InvariantViolation, NumericError, in_float_range
from .gadgets import (MATERIALIZE_LIMIT, gadget_to_json, materialize, star_convergence,
                      tree_convergence)
from .recursion import (RecursionParams, decay_constants, hardness_thresholds,
                        mu_star_bracket, solve_mu_star, uniqueness_threshold)
from .serialize import SCHEMA_VERSION, dump_csv, dump_json, exact_str


def finite_float(text: str) -> float:
    """The type of every float flag (argparse names it when it refuses a value):
    a float other than inf and nan."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(text)
    return x


def _fraction(text: str) -> Fraction:
    """The exact value of a rational flag or a graph file's decimal.

    Fraction builds 10**exponent in full, so a decimal whose exponent has a
    larger magnitude than Python's int-digit limit (4,300 by default), which
    the same files' int literals already obey, is refused.
    """
    _, e, exponent = text.lower().partition("e")
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if e and limit and abs(int(exponent)) > limit:
        raise DomainError(f"the exponent of {text!r} exceeds {limit} in magnitude")
    return Fraction(text)


def _scalar(text: str, mode: str):
    """Parse a finite numeric flag; rational mode keeps it exact."""
    try:
        return _fraction(text) if mode == "rational" else finite_float(text)
    except DomainError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a number: {text!r}") from exc


def _params(args, base: SpinParams | None) -> SpinParams:
    """--beta/--gamma/--mu parsed in --mode; a flag not given keeps base's value."""
    return SpinParams(*(getattr(base, name) if getattr(args, name, None) is None
                        else _scalar(getattr(args, name), args.mode)
                        for name in ("beta", "gamma", "mu")))


def _load_graph(path: str, mode: str):
    """Graph and params of a graph JSON file, every number in --mode's type."""
    num = Fraction if mode == "rational" else float
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=_fraction if num is Fraction else float)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from exc
    except DomainError as exc:  # a decimal exponent past the int-digit limit
        raise DomainError(f"{path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an int of too many digits
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc
    return graph_from_json(doc, num)


def _write(path: str, text: str) -> None:
    """Write text to path as ``open(path, "w")`` would, but over an existing
    file in place, cut to length only where it was longer.

    On ext4, closing a file that was truncated to zero and rewritten starts a
    flush of its data, which costs about ten times the write.  Only a regular
    file is cut: a FIFO, a tty or /dev/null cannot be.
    """
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
            fh.write(text)
            fh.flush()
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode) and st.st_size > fh.tell():
                fh.truncate()
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(args, doc, command: bool = True) -> None:
    """Write doc to --output, then stdout; a dict gets the schema (and command) keys."""
    if isinstance(doc, dict):
        header = {"schema": SCHEMA_VERSION}
        if command:
            header["command"] = args.command
        doc = dump_json({**header, **doc})
    if args.output:
        _write(args.output, doc)
    sys.stdout.write(doc)


def _instance_doc(inst: red.Instance) -> dict:
    """The instance's graph JSON with mu, every number a float."""
    return {**graph_to_json(inst.graph, inst.params), "mu": _float(inst.params.mu, "mu")}


def _certificate_doc(cert: red.ReductionCertificate) -> dict:
    return {**cert._asdict(), "scale": _float(cert.scale, "scale"),
            "scale_exact": exact_str(cert.scale),
            "input": _instance_doc(cert.input), "output": _instance_doc(cert.output)}


# ---------------------------------------------------------------------------
# subcommands

def cmd_eval(args) -> int:
    graph, base = _load_graph(args.input, args.mode)
    params = _params(args, base)
    if graph.output is None:
        z, field = partition_function(graph, params, limit=args.enum_limit), None
    else:  # one elimination gives both
        z, field = partition_and_field(graph, params, limit=args.enum_limit)
    doc = {"mode": args.mode, "n_vertices": graph.n, "n_edges": len(graph.edges),
           "Z": _float(z, "Z"), "Z_exact": exact_str(z)}
    if field is not None:
        doc.update(effective_field=_float(field, "effective field"),
                   effective_field_exact=exact_str(field))
    _emit(args, doc)
    return 0


def cmd_fixpoint(args) -> int:
    rp = RecursionParams(SpinParams(args.beta, args.gamma, args.mu), args.d)
    mu_star = solve_mu_star(rp, rel_tol=args.tol)  # raises when outside the bracket
    consts = decay_constants(rp, rel_tol=args.tol)
    lower, upper = mu_star_bracket(rp)
    _emit(args, {**consts._asdict(), "mu_star": mu_star,
                 "bracket": {"lower": lower, "upper": upper, "ok": True}})
    return 0


def _level_doc(rec) -> dict:
    return {**rec._asdict(), "branches": [{**b._asdict(), "gadget": gadget_to_json(b.gadget)}
                                          for b in rec.branches]}


def cmd_construct(args) -> int:
    params = SpinParams(args.beta, args.gamma, args.mu)
    report = certify_construct(args.ell, args.target, RecursionParams(params, args.d))
    within = abs(report.log_error) <= report.bound
    if args.emit_gadget:
        _write(args.emit_gadget, dump_json(gadget_to_json(report.gadget)))
    if args.materialize:
        graph = materialize(report.gadget, params, limit=args.materialize_limit)
        _write(args.materialize, dump_json(graph_to_json(graph, params)))
    doc = {key: value for key, value in report._asdict().items()
           if key not in ("gadget", "depth")}
    _emit(args, {**doc, "ell": report.depth, "within_bound": within,
                 "trace": [_level_doc(rec) for rec in report.trace]})
    if within:
        return 0
    print("error: constructed gadget violates its error bound", file=sys.stderr)
    return 4


def cmd_thresholds(args) -> int:
    _emit(args, hardness_thresholds(SpinParams(args.beta, args.gamma, 1), d=args.d)._asdict())
    return 0


def _certificate(args, graph, params, left):
    """The --kind reduction of one instance (selfloop excluded)."""
    if args.kind == "bipartite":
        return red.bipartite_transform(graph, _scalar(args.mu_prime, args.mode),
                                       params, left=left)
    if args.kind == "contract":
        return red.contract_certificate(graph, params)
    if args.kind == "ising":
        return red.to_ising(graph, params)
    return red.ising_pipeline(graph, params)


def _reduce_selfloop(args) -> int:
    if None in (args.beta, args.gamma, args.mu, args.target, args.m):
        raise DomainError("--kind selfloop needs --beta --gamma --mu --target --m")
    params = _params(args, None)
    target = _scalar(args.target, "float")
    result = red.realize_field_selfloops(target, args.m, params)
    doc = {**result._asdict(), "kind": "selfloop", "target": target, "m": args.m,
           "log_error": math.log(result.achieved / target), "tolerance": 1.0 / args.m,
           "gadget": _instance_doc(red.Instance(result.gadget, params))}
    if not args.no_verify:
        # peeling the y bristles leaves v0 with its x loops: one vertex for any m
        core, _ = red.contract_degree_one(result.gadget, params)
        in_float_range("the field of v0 with its bristles peeled", core.field_map.get, "v0")
        brute = effective_field(core, params, limit=args.enum_limit)
        doc["verified"] = abs(brute - result.achieved) <= 1e-9 * result.achieved
    _emit(args, doc)
    return 0 if doc.get("verified", True) else 4


def cmd_reduce(args) -> int:
    if args.kind == "selfloop":
        return _reduce_selfloop(args)
    if args.input is None:
        raise DomainError(f"--kind {args.kind} needs --input (a graph JSON file)")
    if args.kind == "bipartite" and args.mu_prime is None:
        raise DomainError("--kind bipartite needs --mu-prime")

    graph, base = _load_graph(args.input, args.mode)
    left = args.left.split(",") if args.left else None
    cert = _certificate(args, graph, _params(args, base), left)
    if not args.no_verify:
        cert = red.verify_reduction(cert, limit=args.enum_limit)
    _emit(args, _certificate_doc(cert), command=False)
    return 0 if cert.verified in (None, True) else 4


# the header of each sweep's CSV, by --kind
SWEEP_COLUMNS = {
    "star": "w,field,beta_power_bound",
    "tree": "t,field,mu_star,ratio,ratio_bound",
    "construct-error": "ell,target,achieved,log_error,bound,size",
    "uniqueness": "beta,mu_c",
}


def cmd_sweep(args) -> int:
    for flag in ("w_max", "t_max", "ell_max", "targets", "steps"):
        if getattr(args, flag) < 0:
            raise DomainError(f"--{flag.replace('_', '-')} must be >= 0, "
                              f"got {getattr(args, flag)}")
    if args.kind == "uniqueness":
        rows = []
        for i in range(args.steps):
            frac = (i + 0.5) / args.steps
            beta = args.beta_min + (args.beta_max - args.beta_min) * frac
            rows.append((beta, uniqueness_threshold(beta, args.delta_reg)))
    elif None in (args.beta, args.gamma, args.mu):
        raise DomainError(f"--kind {args.kind} needs --beta --gamma --mu")
    elif args.kind == "star":
        rows = star_convergence(SpinParams(args.beta, args.gamma, args.mu), args.w_max)
    else:
        rp = RecursionParams(SpinParams(args.beta, args.gamma, args.mu), args.d)
        consts = decay_constants(rp)
        if args.kind == "tree":
            rows = [(t, field, consts.mu_star, field / consts.mu_star, bound)
                    for t, field, bound in tree_convergence(rp, args.t_max, consts)]
        else:
            _check_depth(args.ell_max)  # before any row is computed
            schedule = Schedule(rp, consts)  # shared by every row
            rows = []
            for ell in range(args.ell_max + 1):
                for j in range(1, args.targets + 1):
                    rep = certify_construct(ell, consts.mu_star * j / args.targets, rp, schedule)
                    rows.append((ell, rep.target, rep.achieved, rep.log_error,
                                 rep.bound, rep.size))
    _emit(args, dump_csv(SWEEP_COLUMNS[args.kind].split(","), rows))
    return 0


# ---------------------------------------------------------------------------
# parser: one row per subcommand, name -> (handler, help, description, flags)

_FLOAT = {"type": finite_float, "required": True}
_D = {"type": int, "required": True}
_MODE = {"choices": ["float", "rational"], "default": "float",
         "help": "rational mode evaluates exactly (Fraction/Quad)"}
_ENUM_LIMIT = {"type": int, "default": ENUM_LIMIT,
               "help": "max vertices one elimination bucket may span"}
_OUTPUT = {"help": "also write the result to this file"}

COMMANDS = {
    "eval": (cmd_eval, "partition function of a graph JSON file", None, {
        "--input": {"required": True, "help": "graph JSON path"},
        "--beta": {"help": "override the file's beta"},
        "--gamma": {"help": "override the file's gamma"},
        "--output": _OUTPUT, "--mode": _MODE, "--enum-limit": _ENUM_LIMIT}),
    "fixpoint": (cmd_fixpoint, "largest fixed point and decay constants", None, {
        "--beta": _FLOAT, "--gamma": _FLOAT, "--mu": _FLOAT, "--d": _D,
        "--tol": {"type": finite_float, "default": 1e-12},
        "--output": _OUTPUT}),
    "construct": (cmd_construct, "build and certify a target-field gadget", None, {
        "--beta": _FLOAT, "--gamma": _FLOAT, "--mu": _FLOAT, "--d": _D,
        "--ell": {"type": int, "required": True, "help": "recursion depth"},
        "--target": {"type": finite_float, "required": True,
                     "help": "field in (0, mu_star] to realise"},
        "--emit-gadget": {"help": "write the gadget JSON here"},
        "--materialize": {"help": "write the materialised graph JSON here"},
        "--materialize-limit": {"type": int, "default": MATERIALIZE_LIMIT},
        "--output": _OUTPUT}),
    "thresholds": (cmd_thresholds, "degree/arity choices and field bounds", None, {
        "--beta": _FLOAT, "--gamma": _FLOAT,
        "--d": {"type": int, "help": "override the minimal arity"},
        "--output": _OUTPUT}),
    "reduce": (
        cmd_reduce, "partition-preserving transforms with certificates",
        "kinds: bipartite (needs --input --mu-prime --beta --gamma), "
        "selfloop (--beta --gamma --mu --target --m), contract/ising/"
        "pipeline (--input, params from file or flags).", {
            "--kind": {"required": True,
                       "choices": ["bipartite", "selfloop", "contract", "ising", "pipeline"]},
            "--input": {"help": "graph JSON path"},
            "--beta": {}, "--gamma": {}, "--mu": {},
            "--mu-prime": {"help": "anti-Ising field for the bipartite transform"},
            "--left": {"help": "comma-separated left part (default: 2-colour)"},
            "--target": {"help": "field to realise (selfloop)"},
            "--m": {"type": int, "help": "precision parameter (selfloop)"},
            "--no-verify": {"action": "store_true"},
            "--output": _OUTPUT, "--mode": _MODE, "--enum-limit": _ENUM_LIMIT}),
    "sweep": (
        cmd_sweep, "CSV convergence/error sweeps",
        "CSV columns -- " + " | ".join(f"{kind}: {columns}"
                                       for kind, columns in SWEEP_COLUMNS.items()), {
            "--kind": {"required": True, "choices": list(SWEEP_COLUMNS)},
            "--beta": {"type": finite_float}, "--gamma": {"type": finite_float},
            "--mu": {"type": finite_float},
            "--d": {"type": int, "default": 1},
            "--w-max": {"type": int, "default": 20},
            "--t-max": {"type": int, "default": 20},
            "--ell-max": {"type": int, "default": 6},
            "--targets": {"type": int, "default": 20},
            "--delta-reg": {"type": int, "default": 4,
                            "help": "tree degree for the uniqueness sweep"},
            "--beta-min": {"type": finite_float, "default": 0.05},
            "--beta-max": {"type": finite_float, "default": 0.45},
            "--steps": {"type": int, "default": 9},
            "--output": _OUTPUT}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one;
    `main` calls it only for an argv `_read_argv` refuses.

    Each ``parse_args`` returns a fresh namespace and help is formatted when
    printed, so sharing it changes no output.  ``add_argument`` leaves a help
    formatter in a reference cycle per flag; with the collector paused, as
    `main` runs this, they are all in the youngest generation, and one
    collection of it frees them.
    """
    parser = argparse.ArgumentParser(
        prog="twospin",
        description="Two-state spin systems: exact partition functions, "
                    "gadget construction with certified error bounds, and "
                    "partition-preserving reductions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, description, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=description)
        for flag, spec in flags.items():
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    gc.collect(0)
    return parser


def _read_argv(argv: list):
    """The namespace ``build_parser().parse_args(argv)`` returns, read from
    ``COMMANDS`` without argparse, or None for an argv it leaves to argparse.

    It reads ``<command> (--flag value | --switch)...``: a ``COMMANDS`` name,
    then exact flags of its row, each but a ``store_true`` one followed by a
    value that does not start with ``-``.  Every occurrence is converted by
    its type and checked against its choices, in order, as argparse does; the
    last one wins, and a flag not given takes its default.  Any other argv,
    the forms the module docstring lists, returns None.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, _, flags = COMMANDS[argv[0]]
    given, i, n = {}, 1, len(argv)
    while i < n:
        spec = flags.get(argv[i])
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            given[argv[i]], i = True, i + 1
            continue
        text = argv[i + 1] if i + 1 < n else None
        if type(text) is not str or text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[argv[i]], i = value, i + 2
    args = argparse.Namespace(command=argv[0], func=func)
    for flag, spec in flags.items():
        if flag in given:
            value = given[flag]
        elif spec.get("required"):
            return None
        else:
            value = spec.get("default", False if spec.get("action") else None)
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


# library errors -> (stderr label, exit code); the first matching class wins
_EXIT = {DomainError: ("domain error", 2), NumericError: ("numeric error", 2),
         InvariantViolation: ("invariant violation", 2), CapacityError: ("capacity error", 3)}


def main(argv=None) -> int:
    """Run one command and return its exit code.

    ``argv`` (``sys.argv[1:]`` when None) is read from ``COMMANDS`` when it
    is well formed; any other argv is parsed by argparse, whose parser is
    built on first use (see the module docstring).

    The cyclic garbage collector is paused for the command and then set back
    to its earlier state: a graph-sized command would otherwise spend about a
    tenth of its time walking live containers that are never garbage.
    Commands create no reference cycles, so reference counting still frees
    everything a command drops.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _read_argv(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(_EXIT) as exc:
        label, code = next(v for cls, v in _EXIT.items() if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
