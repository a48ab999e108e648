"""Command-line front end.

Four subcommands: ``analyze`` a code file, ``transform`` it with a
propagation rule, ``table1`` to regenerate the optimal-code catalog, and
``family`` to instantiate an MDS family member.  Reports are emitted as
deterministic JSON (sorted keys), CSV (catalog only), or text.

Every flag can also be set through an environment variable with the
``SUBSYS_`` prefix, e.g. ``SUBSYS_THRESHOLD=1000000``; flags win.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

import click
from click.core import ParameterSource

from . import __version__, bounds, rules, table1 as table1_mod
from .codes import DEFAULT_THRESHOLD, AdditiveCode
from .subsystem import (DEFAULT_POLICY, ParamRecord, Policy, SubsystemCode,
                        analysis_report, bracket_params, derive, is_exact)


@dataclass
class RunConfig:
    policy: Policy = DEFAULT_POLICY
    fmt: str = "json"
    strict: bool = False
    emit: Optional[str] = None


pass_config = click.make_pass_decorator(RunConfig)


@click.group(context_settings={"auto_envvar_prefix": "SUBSYS"})
@click.option("--threshold", type=int, default=DEFAULT_THRESHOLD,
              show_default=True, help="Enumeration size limit.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Random seed for witness searches.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
              default="json", show_default=True)
@click.option("--strict", is_flag=True,
              help="Treat verification downgrades as failures.")
@click.option("--emit", type=click.Path(dir_okay=False), default=None,
              help="Write the produced code or report to this path.")
@click.option("--distance", type=click.Choice(["exact", "witness", "skip"]),
              default="exact", show_default=True,
              help="Distance verification level.")
@click.version_option(version=__version__)
@click.pass_context
def main(ctx, threshold, seed, fmt, strict, emit, distance):
    """Construct and transform subsystem codes from classical codes."""
    if ctx.invoked_subcommand in ("table1", "family"):
        # their certificates run no witness search
        reason = (f"has no effect on {ctx.invoked_subcommand}; it applies "
                  "to analyze and transform only")
        if distance != "exact" and ctx.get_parameter_source(
                "distance") is ParameterSource.COMMANDLINE:
            raise click.UsageError(f"--distance {reason}")
        _refuse_options(reason, "seed")
    # --distance exact downgrades automatically beyond the threshold; the
    # downgrade is reported (and fatal under --strict)
    try:
        policy = Policy("auto" if distance == "exact" else distance,
                        threshold=threshold, seed=seed)
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    ctx.obj = RunConfig(policy=policy, fmt=fmt, strict=strict, emit=emit)


def _dump(cfg: RunConfig, payload, text_lines=None) -> None:
    if cfg.fmt == "csv":
        raise click.UsageError("CSV output is only available for table1")
    if cfg.fmt == "text" and text_lines is not None:
        _echo(cfg, "\n".join(text_lines) + "\n")
    else:
        # K or R may have more digits than int -> str allows by default
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            _echo(cfg, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)


def _echo(cfg: RunConfig, out: str) -> None:
    """Print a report and write it to the --emit path as well."""
    click.echo(out, nl=False)
    if cfg.emit:
        _write(cfg.emit, lambda path: Path(path).write_text(out))


def _write(path: str, write) -> None:
    """``write(path)``; a path that cannot be written fails cleanly."""
    try:
        write(path)
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc.strerror}")


def _load_code(path: str) -> AdditiveCode:
    try:
        return AdditiveCode.load(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise click.ClickException(f"cannot load code file {path}: {exc}")


def _refuse_options(reason: str, *names: str) -> None:
    """Usage error for any of the parameters ``names`` given on the
    command line; the environment or the default is left alone."""
    ctx = click.get_current_context()
    for param in ctx.command.params:
        if (param.name in names and ctx.get_parameter_source(param.name)
                is ParameterSource.COMMANDLINE):
            name = (param.opts[-1] if isinstance(param, click.Option)
                    else param.human_readable_name)
            raise click.UsageError(f"{name} {reason}", ctx)


def _check_strict(cfg: RunConfig, downgraded: List[str]) -> None:
    """Warn about downgraded claims; under --strict name them and exit 3."""
    if not downgraded:
        return
    warning = ("warning: some results rest on witness or asserted "
               "verification only")
    if not cfg.strict:
        click.echo(warning, err=True)
        return
    click.echo(f"{warning}: {', '.join(downgraded)}", err=True)
    raise click.exceptions.Exit(3)


def _code_downgrades(code: SubsystemCode) -> List[str]:
    """The code's values that rest on a witness or an unproved argument."""
    return [f"{value} ({method})" for value, method in
            (("distance", code.d_method), ("purity", code.swt_c_method))
            if method is not None and not is_exact(method)]


def _rule_downgrades(res: rules.RuleResult) -> List[str]:
    """The output code's downgraded values and the rule's asserted claims."""
    out = res.output
    return ((_code_downgrades(out) if isinstance(out, SubsystemCode) else [])
            + _claims_with(res.verification, (rules.ASSERTED,)))


def _rule_report(res: rules.RuleResult):
    """JSON payload, output bracket and claim lines of a rule's result."""
    out = res.output
    if isinstance(out, SubsystemCode):
        output, bracket = analysis_report(out), bracket_params(out).bracket()
    else:
        output, bracket = out.to_json(), out.bracket()
    payload = {"rule": res.rule, "output": output, "claims": res.claims,
               "verification": res.verification}
    return payload, bracket, [f"  {c}: {res.verification[c]}"
                              for c in res.claims]


def _claims_with(verification: dict, tags) -> List[str]:
    return [f"{claim} ({tag})" for claim, tag in verification.items()
            if tag in tags]


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@pass_config
def analyze(cfg: RunConfig, file):
    """Derive and analyze the subsystem code of a classical code file."""
    C = _load_code(file)
    try:
        code = derive(C, cfg.policy)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    report = analysis_report(code)
    rec = bracket_params(code)
    report["bounds"] = {}
    if rec.d is not None and rec.k.denominator == 1 and rec.r.denominator == 1:
        report["bounds"]["singleton"] = bounds.singleton_check(rec).to_json()
        if rec.pure:
            report["bounds"]["hamming"] = bounds.hamming_check(rec).to_json()
    lines = [
        f"code: {report['bracket']}",
        f"purity: {report['purity']['kind']} "
        f"(swt(C) = {report['purity']['swt_C']})",
        f"distance: {report['distance']['value']} "
        f"[{report['distance']['method']}]",
    ]
    for name, rep in report["bounds"].items():
        lines.append(f"{name}: slack {rep['slack']}"
                     + (" (attained)" if rep["attained"] else ""))
    _dump(cfg, report, lines)
    _check_strict(cfg, _code_downgrades(code))


_PARAM_RE = re.compile(
    r"^\[\[(\d+),(\d+(?:/\d+)?),(\d+(?:/\d+)?),(>=)?(\d+)\]\]_(\d+)"
    r"((?:\s+(?:pure|impure|linear))*)\s*$")


def parse_params(text: str) -> ParamRecord:
    """Parse '[[n,k,r,d]]_q' optionally followed by 'pure'/'linear' words."""
    m = _PARAM_RE.match(text.strip())
    if not m:
        raise click.BadParameter(
            f"cannot parse parameters {text!r}; expected "
            "'[[n,k,r,d]]_q [pure] [linear]'")
    n, k, r, ge, d, q, words = m.groups()
    flags = set(words.split())
    try:
        return ParamRecord(
            n=int(n), q=int(q), k=Fraction(k), r=Fraction(r), d=int(d),
            d_is_bound=ge is not None,
            pure=True if "pure" in flags else (
                False if "impure" in flags else None),
            linear=True if "linear" in flags else None,
            provenance=["cli"])
    except ZeroDivisionError:
        raise click.BadParameter(f"{text!r} has a zero denominator")
    except ValueError as exc:
        raise click.BadParameter(f"bad parameters {text!r}: {exc}")


_CONSTRUCTIVE_RULES = ("shrink-k", "grow-k", "extend-n", "to-stabilizer",
                       "to-subsystem")
_PARAM_RULES = ("shorten-n", "combine-disjoint", "combine-nested")
# the transform inputs each rule reads; any other rule refuses them
_READ_BY = {"target_r": (("to-subsystem",) + _PARAM_RULES[1:],
                         "to-subsystem and the combine rules"),
            "subset_assumed": (("combine-nested",), "combine-nested"),
            "params_list": (_PARAM_RULES, "the parameter-level rules"),
            "file": (_CONSTRUCTIVE_RULES, "the constructive rules")}


@main.command()
@click.argument("file", required=False,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--rule", required=True,
              type=click.Choice(_CONSTRUCTIVE_RULES + _PARAM_RULES))
@click.option("--params", "params_list", multiple=True,
              help="Parameter tuple '[[n,k,r,d]]_q pure' for "
                   "parameter-level rules (repeat for combining rules).")
@click.option("-r", "--target-r", type=int, default=0, show_default=True,
              help="Target co-subsystem dimension (to-subsystem, combine-*).")
@click.option("--subset-assumed", is_flag=True,
              help="Confirm nesting for combine-nested.")
@pass_config
def transform(cfg: RunConfig, file, rule, params_list, target_r,
              subset_assumed):
    """Apply a propagation rule to a code file or parameter tuple."""
    for name, (readers, what) in _READ_BY.items():
        if rule not in readers:
            _refuse_options(f"applies only to {what}", name)
    policy = cfg.policy
    try:
        if rule in _CONSTRUCTIVE_RULES:
            if file is None:
                raise click.UsageError(f"rule {rule} needs a code file")
            code = derive(_load_code(file), policy)
            if rule == "shrink-k":
                res = rules.shrink_k(code, policy=policy)
            elif rule == "grow-k":
                res = rules.grow_k(code, policy=policy)
            elif rule == "extend-n":
                res = rules.extend_length(code, policy)
            elif rule == "to-stabilizer":
                res = rules.subsystem_to_stabilizer(code, policy)
            else:
                res = rules.stabilizer_to_subsystem(code, target_r, policy)
        else:
            recs = [parse_params(t) for t in params_list]
            if rule == "shorten-n":
                if len(recs) != 1:
                    raise click.UsageError("shorten-n needs one --params")
                res = rules.shorten_length(recs[0])
            else:
                if len(recs) != 2:
                    raise click.UsageError(f"{rule} needs two --params")
                if rule == "combine-disjoint":
                    res = rules.combine_disjoint(recs[0], recs[1], target_r)
                else:
                    res = rules.combine_nested(recs[0], recs[1], target_r,
                                               subset_assumed=subset_assumed)
    except ValueError as exc:
        raise click.ClickException(str(exc))

    out = res.output
    payload, bracket, claim_lines = _rule_report(res)
    # parameter-level rules are asserted by nature
    downgraded = _rule_downgrades(res) if rule in _CONSTRUCTIVE_RULES else []
    lines = [f"rule: {res.rule}", f"output: {bracket}"] + claim_lines
    if cfg.emit and isinstance(out, SubsystemCode):
        # the report goes to stdout only, and first, so a refused format
        # writes no file
        _dump(replace(cfg, emit=None), payload, lines)
        _write(cfg.emit, out.C.save)
        click.echo(f"wrote {cfg.emit}", err=True)
    else:
        _dump(cfg, payload, lines)
    _check_strict(cfg, downgraded)


@main.command("table1")
@click.option("--q", type=int, required=True,
              help="Field size (one of the catalog blocks).")
@pass_config
def table1_cmd(cfg: RunConfig, q):
    """Regenerate and verify the optimal pure MDS subsystem code catalog."""
    try:
        rows = table1_mod.generate_table(q, cfg.policy)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    if cfg.fmt == "csv":
        _echo(cfg, table1_mod.rows_to_csv(rows))
    else:
        lines = [f"{r.subsystem_bracket():>18}  {r.parent_bracket():>15}  "
                 f"{r.mark or '-':9}  d:{r.verification['distance']}"
                 for r in rows]
        _dump(cfg, table1_mod.rows_to_json(rows), lines)
    downgraded = [f"{r.subsystem_bracket()} {claim}"
                  for r in rows for claim in _claims_with(
                      r.verification, (rules.WITNESS, rules.ASSERTED))]
    _check_strict(cfg, downgraded)


@main.command()
@click.option("--family", required=True,
              type=click.Choice(["i", "ii", "iii", "iv", "v", "vi"]))
@click.option("--q", type=int, required=True)
@click.option("--delta", type=int, default=None)
@click.option("-r", "--target-r", "r", type=int, default=0, show_default=True)
@click.option("--n", type=int, default=None, help="Length (family i only).")
@click.option("--d", type=int, default=None, help="Distance (family i only).")
@pass_config
def family(cfg: RunConfig, family, q, delta, r, n, d):
    """Instantiate a member of the MDS subsystem code families."""
    if family == "i":
        _refuse_options("does not apply to family i", "delta")
    else:
        _refuse_options("applies only to family i", "n", "d")
    try:
        spec = rules.MdsFamilySpec(q=q, family=family, delta=delta, r=r,
                                   n=n, d=d)
        res = rules.mds_family(spec, cfg.policy)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    payload, bracket, claim_lines = _rule_report(res)
    _dump(cfg, payload,
          [f"family {family} over GF({q}): {bracket}"] + claim_lines)
    _check_strict(cfg, _rule_downgrades(res))


if __name__ == "__main__":
    main()
