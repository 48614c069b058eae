"""Command line front end: scenario files in, deterministic rational reports out.

Reports are JSON with sorted keys and rationals as "p/q" strings; timing is
null unless requested, so golden files stay stable.
Exit codes: 0 ok, 1 verification gap, 2 parse error, 3 precondition violated, 4 internal error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from fractions import Fraction
from typing import Sequence

from . import bdiv, chern, ideals, okounkov, polytopes, toric
from .rationals import fmt
from .report import (_INTEGER, CliError, bundles_of, chain_of, divisor_of,
                     fan_of, flag_of, ideal_of, int_of, load_json,
                     metric_of, metrics_of, need, need_list, rat_of, weil_of)

class _HelpRequested(Exception):
    """Carries the help text: run() returns it, a batch entry is refused."""


class _ArgParser(argparse.ArgumentParser):
    def error(self, message):
        # keep usage noise off stdout; run() turns this into exit 2
        raise CliError(2, message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def _int_arg(text: str) -> int:
    """An int option in ASCII digits, as `report` reads integers: argparse's int also
    takes "1_0", " 3" and other scripts' digits."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _build_parser() -> tuple[_ArgParser, dict[str, _ArgParser]]:
    """The top-level parser and each subcommand's own parser, by name."""
    p = _ArgParser(prog="toricbdiv", add_help=True)
    sub = p.add_subparsers(dest="command")

    def cmd(name: str, scenario=True, out=False):
        sp = sub.add_parser(name)
        if scenario:
            sp.add_argument("--scenario", required=True)
        if out:
            sp.add_argument("--out")
        sp.add_argument("--timing", action="store_true")
        return sp

    sp = cmd("intersect")
    sp.add_argument("--tol")
    sp = cmd("volume")
    sp.add_argument("--tol")
    cmd("mass")
    sp = cmd("okounkov", out=True)
    sp.add_argument("--tol")
    sp = cmd("partial-okounkov")
    sp.add_argument("--kmax", type=_int_arg)
    sp = cmd("mideal", scenario=False)
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--c", required=True)
    sp = cmd("tideal", scenario=False)
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--lam", required=True)
    sp.add_argument("--p", type=_int_arg, required=True)
    sp.add_argument("--emax", type=_int_arg, default=12)
    cmd("chern")
    sp = cmd("verify")
    sp.add_argument("--suite", required=True, choices=tuple(_SUITE_FNS))
    sp.add_argument("--kmax", type=_int_arg)
    cmd("profile")
    cmd("export-plot", out=True)
    sp = cmd("batch", scenario=False)
    sp.add_argument("manifest")
    return p, sub.choices


def _tol_of(args, scn: dict) -> Fraction:
    raw = getattr(args, "tol", None)
    if raw is None:
        raw = scn.get("tol", "1/1000000")
    t = rat_of(raw, "--tol")
    if t <= 0:
        raise CliError(2, "tolerance must be positive")
    return t


def _scenario_inputs(args) -> tuple[dict, dict]:
    scn, digest = load_json(args.scenario)
    return scn, {"scenario": digest}


def _interval_json(iv: bdiv.RatInterval) -> dict:
    return {"lo": fmt(iv.lo), "hi": fmt(iv.hi), "certified": iv.certified}


def _body_json(body: okounkov.OkounkovBody) -> dict:
    out = body.to_json()
    out["volume"] = fmt(body.volume())
    if "shift" not in out:
        out["shift"] = ["0"] * body.body.dim
    return out


def _metric_of_scn(fan, scn, where) -> toric.ToricMetric:
    return metric_of(fan, need(scn, "metric", where), where)


# -- subcommand handlers: return (inputs, outputs, verdict) ------------------

def _cmd_intersect(args):
    scn, inputs = _scenario_inputs(args)
    fan = fan_of(scn, args.scenario)
    if "weils" in scn:
        weils = need_list(scn, "weils", args.scenario)
        ws = [weil_of(fan, w, f"weils[{i}]") for i, w in enumerate(weils)]
        iv = bdiv.intersect_nef(ws, _tol_of(args, scn))
        return inputs, {"interval": _interval_json(iv)}, None
    hs = metrics_of(fan, scn, args.scenario)
    bs = [bdiv.bdiv_of_metric(h).cartier for h in hs]
    return inputs, {"value": fmt(bdiv.intersect_cartier(bs))}, None


def _cmd_volume(args):
    scn, inputs = _scenario_inputs(args)
    fan = fan_of(scn, args.scenario)
    if "weil" in scn:
        w = weil_of(fan, scn["weil"], "weil")
        iv = bdiv.vol(w, _tol_of(args, scn))
        return inputs, {"interval": _interval_json(iv)}, None
    h = _metric_of_scn(fan, scn, args.scenario)
    v = bdiv.vol(bdiv.bdiv_of_metric(h).cartier)
    return inputs, {"value": fmt(v)}, None


def _cmd_mass(args):
    scn, inputs = _scenario_inputs(args)
    fan = fan_of(scn, args.scenario)
    hs = metrics_of(fan, scn, args.scenario)
    return inputs, {"value": fmt(toric.np_mass(hs))}, None


def _render(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_json(path: str, payload: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_render(payload))
    except OSError as exc:
        raise CliError(2, f"cannot write {path}: {exc.strerror}")


def _cmd_okounkov(args):
    scn, inputs = _scenario_inputs(args)
    fan = fan_of(scn, args.scenario)
    nu = flag_of(fan, scn, args.scenario)
    if "divisor" in scn:
        body = okounkov.okounkov_of_class(divisor_of(fan, scn["divisor"], "divisor"), nu)
    elif "weil" in scn:
        w = weil_of(fan, scn["weil"], "weil")
        body = okounkov.okounkov_of_bdiv(w, nu, _tol_of(args, scn))
    else:
        h = _metric_of_scn(fan, scn, args.scenario)
        body = okounkov.okounkov_of_bdiv(bdiv.bdiv_of_metric(h).cartier, nu)
    outputs = {"body": _body_json(body)}
    if args.out:
        _write_json(args.out, {"vertices": [[fmt(x) for x in v]
                                            for v in body.body.vertices]})
        outputs["out"] = args.out
    return inputs, outputs, None


def _cmd_partial(args):
    scn, inputs = _scenario_inputs(args)
    fan = fan_of(scn, args.scenario)
    nu = flag_of(fan, scn, args.scenario)
    h = _metric_of_scn(fan, scn, args.scenario)
    k_max = args.kmax if args.kmax is not None else int_of(scn.get("kmax", 20), args.scenario)
    hulls, limit = okounkov.partial_okounkov(h, nu, k_max)
    hull_list, dists = [], []
    for p in hulls:
        if p is None:
            hull_list.append(None)
            dists.append(None)
        else:
            hull_list.append([[fmt(x) for x in v] for v in p.vertices])
            dists.append(fmt(polytopes.hausdorff_linf(p, limit.body).value))
    outputs = {"hulls": hull_list, "distances": dists, "limit": _body_json(limit)}
    return inputs, outputs, None


def _cmd_mideal(args):
    data, digest = load_json(args.ideal)
    ideal = ideal_of(data, args.ideal)
    c = rat_of(args.c, "--c")
    out = ideals.multiplier_ideal_monomial(ideal, c)
    inputs = {"ideal": digest, "c": fmt(c)}
    return inputs, out.to_json(), None


def _cmd_tideal(args):
    data, digest = load_json(args.ideal)
    ideal = ideal_of(data, args.ideal)
    lam = rat_of(args.lam, "--lam")
    if args.emax < 1:
        raise CliError(2, "--emax must be at least 1")
    query = ideals.TestIdealQuery(ideal, lam, args.p, args.emax)
    out = ideals.test_ideal(query)
    inputs = {"ideal": digest, "lam": fmt(lam),
              "p": args.p, "emax": args.emax}
    return inputs, out.to_json(), None


def _cmd_chern(args):
    scn, inputs = _scenario_inputs(args)
    fan = fan_of(scn, args.scenario)
    table = bundles_of(fan, scn, args.scenario)
    expr = need(scn, "expression", args.scenario)
    if not isinstance(expr, str):
        raise CliError(2, f"expression must be a string in {args.scenario}")
    try:
        value = chern.chern_number(table, expr)
    except chern.ParseError as exc:
        raise CliError(2, str(exc))
    return inputs, {"expression": expr, "value": fmt(value)}, None


def _cmd_profile(args):
    scn, inputs = _scenario_inputs(args)
    fan = fan_of(scn, args.scenario)
    h = _metric_of_scn(fan, scn, args.scenario)
    chain = chain_of(scn, args.scenario)
    prof = toric.volume_profile(h, chain)
    limit = bdiv.vol(bdiv.bdiv_of_metric(h).cartier)
    outputs = {"profile": [fmt(v) for v in prof], "limit": fmt(limit)}
    return inputs, outputs, None


def _cmd_export_plot(args):
    scn, inputs = _scenario_inputs(args)
    if not args.out:
        raise CliError(2, "missing --out")
    fan = fan_of(scn, args.scenario)
    nu = flag_of(fan, scn, args.scenario)
    if "divisor" in scn:
        body = okounkov.okounkov_of_class(divisor_of(fan, scn["divisor"], "divisor"), nu)
    else:
        body = okounkov.limit_body(_metric_of_scn(fan, scn, args.scenario), nu)
    payload = {"approximate": True,
               "vertices": [[float(x) for x in v] for v in body.body.vertices]}
    _write_json(args.out, payload)
    return inputs, {"out": args.out, "count": len(body.body.vertices),
                    "approximate": True}, None


# -- verify suites ------------------------------------------------------------

def _suite_chern_weil(args, scn):
    fan = fan_of(scn, args.scenario)
    hs = metrics_of(fan, scn, args.scenario)
    rep = bdiv.chern_weil_line(hs)
    return rep.to_json(), rep.verdict


def _suite_okouniden(args, scn):
    fan = fan_of(scn, args.scenario)
    nu = flag_of(fan, scn, args.scenario)
    h = _metric_of_scn(fan, scn, args.scenario)
    rep = okounkov.verify_okouniden(h, nu)
    return rep.to_json(), rep.verdict


def _suite_segre_comm(args, scn):
    fan = fan_of(scn, args.scenario)
    table = bundles_of(fan, scn, args.scenario)
    factors = need(scn, "factors", args.scenario)
    try:
        names = [f[0] for f in factors]
        exps = [int_of(f[1], args.scenario) for f in factors]
    except (TypeError, IndexError, KeyError):
        raise CliError(2, "factors must be [name, exponent] pairs")
    for name in names:
        # bundle names are JSON object keys, so a list or an object is never one
        if not isinstance(name, str) or name not in table:
            raise CliError(2, f"unknown bundle '{name}' in factors")
    fwd = chern.eval_segre_monomial([table[n] for n in names], exps)
    rev = chern.eval_segre_monomial([table[n] for n in reversed(names)],
                                    list(reversed(exps)))
    verdict = "equal" if fwd == rev else "gap"
    return {"forward": fmt(fwd), "reverse": fmt(rev)}, verdict


def _suite_dfvol(args, scn):
    fan = fan_of(scn, args.scenario)
    h = _metric_of_scn(fan, scn, args.scenario)
    k_max = args.kmax if args.kmax is not None else int_of(scn.get("kmax", 12), args.scenario)
    lhs = bdiv.vol(bdiv.bdiv_of_metric(h).cartier)
    exact, seq = ideals.volume_of_pair(h, k_max)
    rhs = math.factorial(fan.dim) * exact
    verdict = "equal" if lhs == rhs else "gap"
    outputs = {"mass_route": fmt(lhs), "volume_route": fmt(rhs),
               "counting_tail": fmt(math.factorial(fan.dim) * seq[-1])}
    return outputs, verdict


def _suite_test_vs_multiplier(args, scn):
    ideal = ideal_of(need(scn, "ideal", args.scenario), args.scenario)
    lams = [rat_of(x, args.scenario) for x in need_list(scn, "lams", args.scenario)]
    ps = [int_of(x, args.scenario) for x in need_list(scn, "ps", args.scenario)]
    e_max = int_of(scn.get("emax", 12), args.scenario)
    if e_max < 1:
        raise CliError(2, f"emax must be at least 1 in {args.scenario}")
    grid, verdict = [], "equal"
    for lam in lams:
        mult = ideals.multiplier_ideal_monomial(ideal, lam)
        for p in ps:
            tst = ideals.test_ideal(ideals.TestIdealQuery(ideal, lam, p, e_max))
            same = tst == mult
            if not same:
                verdict = "gap"
            grid.append({"lam": fmt(lam), "p": p, "match": same})
    return {"grid": grid}, verdict


_SUITE_FNS = {
    "chern-weil-line": _suite_chern_weil,
    "okouniden": _suite_okouniden,
    "segre-comm": _suite_segre_comm,
    "dfvol": _suite_dfvol,
    "test-vs-multiplier": _suite_test_vs_multiplier,
}


def _cmd_verify(args):
    scn, inputs = _scenario_inputs(args)
    inputs["suite"] = args.suite
    outputs, verdict = _SUITE_FNS[args.suite](args, scn)
    return inputs, outputs, verdict


def _cmd_batch(args):
    data, digest = load_json(args.manifest)
    runs = data if isinstance(data, list) else need_list(data, "runs", args.manifest)
    entries, worst = [], 0
    for entry in runs:
        if not (isinstance(entry, list) and all(isinstance(x, str) for x in entry)):
            raise CliError(2, f"manifest entries must be argv lists in {args.manifest}")
        if entry[:1] == ["batch"]:
            # a manifest that names itself would run until the stack ran out
            code, text = 2, _error_text("batch", CliError(2, "batch is not available in batch"))
        else:
            try:
                code, text = _dispatch(entry)
            except _HelpRequested:
                code, text = 2, _error_text(entry[0], CliError(2, "help is not available in batch"))
        worst = max(worst, code)
        entries.append({"argv": entry, "exit": code, "report": json.loads(text)})
    inputs = {"manifest": digest}
    return inputs, {"runs": entries, "worst_exit": worst}, None, worst


_HANDLERS = {
    "intersect": _cmd_intersect,
    "volume": _cmd_volume,
    "mass": _cmd_mass,
    "okounkov": _cmd_okounkov,
    "partial-okounkov": _cmd_partial,
    "mideal": _cmd_mideal,
    "tideal": _cmd_tideal,
    "chern": _cmd_chern,
    "verify": _cmd_verify,
    "profile": _cmd_profile,
    "export-plot": _cmd_export_plot,
    "batch": _cmd_batch,
}


def _error_text(command: str, err: CliError) -> str:
    return _render({"command": command, "error": {"code": err.code, "message": err.message}})


_PARSER, _SUBPARSERS = _build_parser()


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The named subcommand's own parser reads the rest of argv, as _PARSER would
    hand it on; anything else (no words, help, an unknown word) takes _PARSER,
    which owns the top-level help and the invalid-choice error."""
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    if sub is None:
        return _PARSER.parse_args(argv)
    args = sub.parse_args(argv[1:])
    args.command = argv[0]
    return args


def _dispatch(argv: Sequence[str]) -> tuple[int, str]:
    """run() without help: a request for it raises _HelpRequested."""
    try:
        args = _parse(argv)
    except CliError as exc:
        return exc.code, _error_text(argv[0] if argv else "", exc)
    if args.command is None:
        return 2, _error_text("", CliError(2, "missing subcommand"))
    t0 = time.monotonic()
    try:
        result = _HANDLERS[args.command](args)
    except CliError as exc:
        return exc.code, _error_text(args.command, exc)
    except ValueError as exc:
        return 3, _error_text(args.command, CliError(3, str(exc)))
    except Exception as exc:
        # a fault of the program, not of the input: report it and keep going
        traceback.print_exc()
        return 4, _error_text(args.command, CliError(4, f"internal error: {type(exc).__name__}: {exc}"))
    inputs, outputs, verdict = result[:3]
    code = result[3] if len(result) > 3 else (1 if verdict == "gap" else 0)
    timing = round((time.monotonic() - t0) * 1000.0, 3) if args.timing else None
    rep = {"command": args.command, "inputs": inputs, "outputs": outputs, "timing_ms": timing}
    if verdict is not None:
        rep["verdict"] = verdict
    return code, _render(rep)


def run(argv: Sequence[str]) -> tuple[int, str]:
    """Dispatch one invocation; returns (exit code, report or help text)."""
    try:
        return _dispatch(argv)
    except _HelpRequested as exc:
        return 0, exc.args[0]


def main(argv: Sequence[str] | None = None) -> int:
    code, text = run(sys.argv[1:] if argv is None else list(argv))
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
