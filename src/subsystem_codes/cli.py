"""Command-line front end.

Four subcommands: ``analyze`` a code file, ``transform`` it with a
propagation rule, ``table1`` to regenerate the optimal-code catalog, and
``family`` to instantiate an MDS family member.  Reports are emitted as
deterministic JSON (sorted keys), CSV (catalog only), or text.

Every option can also be set through an environment variable, ``SUBSYS_``
+ the command name for a command's own options + the long flag, in upper
case with ``-`` as ``_``: ``SUBSYS_FORMAT``, ``SUBSYS_TRANSFORM_TARGET_R``.
Flags win.  A flag's variable is 1/true/t/yes/y/on or 0/false/f/no/n/off.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

from . import __version__, bounds, rules, table1 as table1_mod
from .codes import DEFAULT_THRESHOLD, AdditiveCode
from .subsystem import (ParamRecord, Policy, SubsystemCode, analysis_report,
                        bracket_params, derive, interval)


class CliError(Exception):
    """``Error: <message>`` on stderr, exit status ``code`` (2: usage)."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _dump(cfg: argparse.Namespace, payload, text_lines: List[str],
          csv: Optional[str] = None, emit: bool = True) -> None:
    """Print a report in --format (JSON, ``text_lines`` or ``csv``) and, if
    ``emit``, write it to the --emit path as well."""
    if cfg.format == "csv" and csv is None:
        raise CliError("CSV output is only available for table1")
    out = csv if cfg.format == "csv" else "\n".join(text_lines) + "\n"
    if cfg.format == "json":
        # K or R may have more digits than int -> str allows by default
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
    print(out, end="", flush=True)
    if cfg.emit and emit:
        _write(cfg.emit, lambda path: Path(path).write_text(out))


def _write(path: str, write) -> None:
    """``write(path)``; a path that cannot be written fails cleanly."""
    try:
        write(path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}", 1)


def _load_code(path: str) -> AdditiveCode:
    try:
        return AdditiveCode.load(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"cannot load code file {path}: {exc}", 1)


def _refuse_options(given, reason: str, *names: str) -> None:
    """Usage error for any of ``names`` among the options ``given``."""
    for name in names:
        if name in given:
            raise CliError(f"{name} {reason}")


def _check_strict(cfg: argparse.Namespace, downgraded: List[str]) -> int:
    """Warn about downgraded claims; under --strict name them: status 3."""
    if downgraded:
        print("warning: some results rest on witness or asserted "
              "verification only" + (f": {', '.join(downgraded)}"
                                     if cfg.strict else ""), file=sys.stderr)
    return 3 if downgraded and cfg.strict else 0


def _code_downgrades(code: SubsystemCode) -> List[str]:
    """The code's measured values that are not proved from below."""
    return [f"{name} ({method})" for name, value, method in
            (("distance", code.d, code.d_method),
             ("purity", code.swt_c, code.swt_c_method))
            if value is not None and interval(value, method)[0] != value]


def _rule_report(cfg: argparse.Namespace, res: rules.RuleResult, head: str,
                 emit: bool = True) -> int:
    """Print a rule's result; --strict refuses its downgrades."""
    out = res.output
    output = (analysis_report(out) if isinstance(out, SubsystemCode)
              else out.to_json())
    _dump(cfg, {"rule": res.rule, "output": output, "claims": res.claims,
                "verification": res.verification},
          [head + output["bracket"]] + [f"  {c}: {res.verification[c]}"
                                        for c in res.claims], emit=emit)
    return _check_strict(cfg, (
        _code_downgrades(out) if isinstance(out, SubsystemCode) else [])
        + [f"{c} ({t})" for c, t in res.verification.items()
           if t == rules.ASSERTED])


def analyze(cfg: argparse.Namespace) -> int:
    """Derive and analyze the subsystem code of a classical code file."""
    code = derive(_load_code(cfg.file), cfg.policy)
    rec = bracket_params(code)
    report = analysis_report(code, rec)
    report["bounds"] = {}
    if rec.d is not None and rec.k.denominator == 1 and rec.r.denominator == 1:
        report["bounds"]["singleton"] = bounds.singleton_check(rec).to_json()
        if rec.pure:
            report["bounds"]["hamming"] = bounds.hamming_check(rec).to_json()
    purity, distance = report["purity"], report["distance"]
    lines = [f"code: {report['bracket']}",
             f"purity: {purity['kind']} (swt(C) = {purity['swt_C']})",
             f"distance: {distance['value']} [{distance['method']}]"]
    for name, rep in report["bounds"].items():
        lines.append(f"{name}: slack {rep['slack']}"
                     + (" (attained)" if rep["attained"] else ""))
    _dump(cfg, report, lines)
    return _check_strict(cfg, _code_downgrades(code))


_PARAM_RE = re.compile(
    r"^\[\[(\d+),(\d+(?:/\d+)?),(\d+(?:/\d+)?),(>=)?(\d+)\]\]_(\d+)"
    r"((?:\s+(?:pure|impure|linear))*)\s*$")


def parse_params(text: str) -> ParamRecord:
    """Parse '[[n,k,r,d]]_q' optionally followed by 'pure'/'linear' words."""
    m = _PARAM_RE.match(text.strip())
    if not m:
        raise CliError(
            f"Invalid value: cannot parse parameters {text!r}; expected "
            "'[[n,k,r,d]]_q [pure] [linear]'")
    n, k, r, ge, d, q, words = m.groups()
    flags = set(words.split())
    if {"pure", "impure"} <= flags:
        raise CliError(f"Invalid value: {text!r} is both pure and impure")
    pure = True if "pure" in flags else False if "impure" in flags else None
    try:
        return ParamRecord(
            n=int(n), q=int(q), k=Fraction(k), r=Fraction(r), d=int(d),
            d_method="lower" if ge else None, pure=pure,
            linear=True if "linear" in flags else None, provenance=["cli"])
    except ZeroDivisionError:
        raise CliError(f"Invalid value: {text!r} has a zero denominator")
    except ValueError as exc:
        raise CliError(f"Invalid value: bad parameters {text!r}: {exc}")


# each rule, on a derived code or on one or two parameter records
_CONSTRUCTIVE_RULES = {
    "shrink-k": lambda code, cfg: rules.shrink_k(code, policy=cfg.policy),
    "grow-k": lambda code, cfg: rules.grow_k(code, policy=cfg.policy),
    "extend-n": lambda code, cfg: rules.extend_length(code, cfg.policy),
    "to-stabilizer":
        lambda code, cfg: rules.subsystem_to_stabilizer(code, cfg.policy),
    "to-subsystem": lambda code, cfg: rules.stabilizer_to_subsystem(
        code, cfg.target_r, cfg.policy)}
_PARAM_RULES = {
    "shorten-n": lambda a, cfg: rules.shorten_length(a),
    "combine-disjoint":
        lambda a, b, cfg: rules.combine_disjoint(a, b, cfg.target_r),
    "combine-nested": lambda a, b, cfg: rules.combine_nested(
        a, b, cfg.target_r, subset_assumed=cfg.subset_assumed)}
# the transform inputs each rule reads; any other rule refuses them
_READ_BY = {
    "--target-r": (("to-subsystem", "combine-disjoint", "combine-nested"),
                   "to-subsystem and the combine rules"),
    "--subset-assumed": (("combine-nested",), "combine-nested"),
    "--params": (tuple(_PARAM_RULES), "the parameter-level rules"),
    "FILE": (tuple(_CONSTRUCTIVE_RULES), "the constructive rules")}


def transform(cfg: argparse.Namespace) -> int:
    """Apply a propagation rule to a code file or parameter tuple."""
    rule, given = cfg.rule, cfg.given | ({"FILE"} if cfg.file else set())
    for name, (readers, what) in _READ_BY.items():
        if rule not in readers:
            _refuse_options(given, f"applies only to {what}", name)
    if rule in _CONSTRUCTIVE_RULES:
        if cfg.file is None:
            raise CliError(f"rule {rule} needs a code file")
        code = derive(_load_code(cfg.file), cfg.policy)
        res = _CONSTRUCTIVE_RULES[rule](code, cfg)
    else:
        recs = [parse_params(t) for t in cfg.params]
        if len(recs) != (1 if rule == "shorten-n" else 2):
            count = "one" if rule == "shorten-n" else "two"
            raise CliError(f"{rule} needs {count} --params")
        if rule == "combine-nested" and not cfg.subset_assumed:
            raise CliError("combine-nested needs --subset-assumed to confirm "
                           "that the second code is contained in the first")
        res = _PARAM_RULES[rule](*recs, cfg)
    # the report goes first, to stdout only: a refused format writes no file
    saves = bool(cfg.emit) and isinstance(res.output, SubsystemCode)
    status = _rule_report(cfg, res, f"rule: {res.rule}\noutput: ",
                          emit=not saves)
    if saves:
        _write(cfg.emit, res.output.C.save)
        print(f"wrote {cfg.emit}", file=sys.stderr)
    return status


def table1(cfg: argparse.Namespace) -> int:
    """Regenerate and verify the optimal pure MDS subsystem code catalog."""
    rows = table1_mod.generate_table(cfg.q, cfg.policy)
    _dump(cfg, table1_mod.rows_to_json(rows), [
        f"{r.subsystem_bracket():>18}  {r.parent_bracket():>15}  "
        f"{r.mark or '-':9}  d:{r.verification['distance']}" for r in rows],
        table1_mod.rows_to_csv(rows))
    return _check_strict(cfg, [
        f"{r.subsystem_bracket()} {c} ({t})" for r in rows
        for c, t in r.verification.items() if t in (rules.WITNESS,
                                                     rules.ASSERTED)])


def family(cfg: argparse.Namespace) -> int:
    """Instantiate a member of the MDS subsystem code families."""
    if cfg.family == "i":
        _refuse_options(cfg.given, "does not apply to family i", "--delta")
        if cfg.n is None or cfg.d is None:
            raise CliError("family i needs --n and --d")
    else:
        _refuse_options(cfg.given, "applies only to family i", "--n", "--d")
        if cfg.delta is None:
            raise CliError(f"family {cfg.family} needs --delta")
    res = rules.mds_family(rules.MdsFamilySpec(
        q=cfg.q, family=cfg.family, delta=cfg.delta, r=cfg.target_r,
        n=cfg.n, d=cfg.d), cfg.policy)
    return _rule_report(cfg, res, f"family {cfg.family} over GF({cfg.q}): ")


def _path(path: str, exists: bool = True) -> str:
    """A code FILE (or, not ``exists``, an --emit path), checked at parse."""
    if exists and not os.path.exists(path) or os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"File {path!r} " + (
            "is a directory." if os.path.isdir(path) else "does not exist."))
    return path


class _Parser(argparse.ArgumentParser):
    """Raises refusals, reads each option left off the command line from
    ``env`` + its long flag and records those given in ``ns.given``."""

    env = "SUBSYS_"
    true, false = "1 true t yes y on".split(), "0 false f no n off".split()

    def error(self, message):
        raise CliError(message)

    def parse_known_args(self, args=None, namespace=None):
        known, env = self._option_string_actions, []
        names = [a.partition("=")[0] if a[:2] == "--" else a[:2] for a in args]
        given = {known[n].option_strings[-1] for n in names if n in known}
        for name, action in known.items():
            var = self.env + name[2:].upper().replace("-", "_")
            raw = os.environ.get(var)
            if (not raw or name != action.option_strings[-1] or name in given
                    or action.default is argparse.SUPPRESS):
                continue
            if action.nargs != 0:
                env.append(f"{name}={raw}")
            elif raw.strip().lower() in self.true:
                env.append(name)
            elif raw.strip().lower() not in self.false:
                raise CliError(f"Invalid value for {var}: {raw!r} is not a "
                               "valid boolean")
        ns, extras = super().parse_known_args(env + list(args), namespace)
        ns.given = given | getattr(ns, "given", set())
        return ns, extras


# built once: building it costs more than a parse
_PARSER = _Parser(prog="subsys", allow_abbrev=False, description=(
    "Construct and transform subsystem codes from classical codes."))
_PARSER.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD,
                     help="Enumeration size limit.")
_PARSER.add_argument("--seed", type=int, default=0, help="Witness seed.")
_PARSER.add_argument("--format", choices=("json", "csv", "text"),
                     default="json")
_PARSER.add_argument("--strict", action="store_true",
                     help="Treat verification downgrades as failures.")
_PARSER.add_argument("--emit", type=lambda p: _path(p, False),
                     help="Write the produced code or report to this path.")
_PARSER.add_argument("--distance", choices=("exact", "witness", "skip"),
                     default="exact", help="Distance verification level.")
_PARSER.add_argument("--version", action="version",
                     version=f"%(prog)s, version {__version__}")
_COMMANDS = _PARSER.add_subparsers(metavar="COMMAND", required=True)
for _run in (analyze, transform, table1, family):
    _cmd = _COMMANDS.add_parser(_run.__name__, help=_run.__doc__,
                                description=_run.__doc__, allow_abbrev=False)
    _cmd.set_defaults(run=_run)
    _cmd.env = f"SUBSYS_{_run.__name__.upper()}_"
_COMMANDS.choices["analyze"].add_argument("file", metavar="FILE", type=_path)
_cmd = _COMMANDS.choices["transform"]
_cmd.add_argument("file", metavar="FILE", nargs="?", type=_path)
_cmd.add_argument("--rule", required=True,
                  choices=(*_CONSTRUCTIVE_RULES, *_PARAM_RULES))
_cmd.add_argument("--params", action="append", default=[],
                  help="'[[n,k,r,d]]_q pure' (twice for combining rules).")
_cmd.add_argument("-r", "--target-r", type=int, default=0,
                  help="Target co-subsystem dimension.")
_cmd.add_argument("--subset-assumed", action="store_true",
                  help="Confirm nesting for combine-nested.")
_COMMANDS.choices["table1"].add_argument("--q", type=int, required=True)
_cmd = _COMMANDS.choices["family"]
_cmd.add_argument("--family", required=True,
                  choices=("i", "ii", "iii", "iv", "v", "vi"))
_cmd.add_argument("--q", type=int, required=True)
_cmd.add_argument("--delta", type=int)
_cmd.add_argument("-r", "--target-r", type=int, default=0)
_cmd.add_argument("--n", type=int, help="Length (family i only).")
_cmd.add_argument("--d", type=int, help="Distance (family i only).")


def main(args: Optional[List[str]] = None, prog_name: Optional[str] = None,
         standalone_mode: bool = True) -> int:
    """Run one command and exit with its status (1: failure, 2: usage error,
    3: --strict refusal); not ``standalone_mode``, return it or raise."""
    _PARSER.prog = prog_name or os.path.basename(sys.argv[0])
    try:
        cfg = _PARSER.parse_args(sys.argv[1:] if args is None else args)
        if cfg.run in (table1, family):
            # their certificates run no witness search
            reason = (f"has no effect on {cfg.run.__name__}; it applies to "
                      "analyze and transform only")
            exact = {"--distance"} if cfg.distance == "exact" else set()
            _refuse_options(cfg.given - exact, reason, "--distance", "--seed")
        try:
            cfg.policy = Policy(cfg.distance, cfg.threshold, cfg.seed)
        except ValueError as exc:
            # Policy names the value it refuses first: "seed must be >= 0"
            raise CliError(f"Invalid value: {exc} (--{str(exc).split()[0]})")
        try:
            status = cfg.run(cfg)
        except ValueError as exc:       # the library refuses the input
            raise CliError(str(exc), 1)
    except CliError as exc:
        if not standalone_mode:
            raise
        print(f"Error: {exc}", file=sys.stderr)
        status = exc.code
    return sys.exit(status) if standalone_mode else status


main.main = main        # the in-process call main.main(args=..., ...)


if __name__ == "__main__":
    main(prog_name=f"python -m {__spec__.name}")
