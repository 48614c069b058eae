"""Scenario ingestion and the error type shared by the command line tools."""
from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from typing import Any

from . import bdiv, chern, fans, ideals, okounkov, toric
from .fans import Fan
from .rationals import rat


class CliError(Exception):
    """Carries the exit code contract: 2 parse, 3 precondition."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _RepeatedKey(Exception):
    """A JSON object names one key twice."""


def _object(pairs: list) -> dict:
    """A JSON object as a dict; json.loads alone would keep the last of two equal keys."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise _RepeatedKey(next(k for k in keys if keys.count(k) > 1))
    return obj


def load_json(path: str) -> tuple[Any, str]:
    """The parsed file and the sha256 of its bytes, from one read."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(2, f"cannot read {path}: {exc.strerror}")
    try:
        # a text-mode read turned \r\n and \r into \n: parse errors keep their line numbers
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text, object_pairs_hook=_object), hashlib.sha256(raw).hexdigest()
    except UnicodeDecodeError as exc:
        raise CliError(2, f"parse error in {path}: invalid UTF-8 at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise CliError(2, f"parse error in {path}: line {exc.lineno} column {exc.colno}")
    except RecursionError:
        raise CliError(2, f"parse error in {path}: nesting too deep")
    except _RepeatedKey as exc:
        raise CliError(2, f"parse error in {path}: key '{exc}' given twice")


def need(data: dict, key: str, where: str):
    if not isinstance(data, dict) or key not in data:
        raise CliError(2, f"missing key '{key}' in {where}")
    return data[key]


def need_list(data: dict, key: str, where: str) -> list:
    value = need(data, key, where)
    if not isinstance(value, list):
        raise CliError(2, f"{key} must be a list in {where}")
    return value


# an optional sign and ASCII digits: int() alone also takes "1_0", " 1" and other scripts' digits
_INTEGER = re.compile(r"[+-]?[0-9]+")
# the same with an optional "/q": Fraction() alone also takes " 1/2 ", "1.5", "1e3" and "1_0"
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rat_of(value, where: str) -> Fraction:
    """A rational given as a JSON int or a string "p" or "p/q" of ASCII digits."""
    try:
        if isinstance(value, str) and not _RATIONAL.fullmatch(value):
            raise ValueError(value)
        return rat(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise CliError(2, f"bad rational '{value}' in {where}")


def _int(value) -> int:
    """int_of without its where: ValueError for anything else."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INTEGER.fullmatch(value):
        return int(value)
    raise ValueError(f"bad integer '{value}'")


def int_of(value, where: str) -> int:
    """An integer given as a JSON int or a string of one."""
    try:
        return _int(value)
    except ValueError as exc:
        raise CliError(2, f"{exc} in {where}")


def ray_of(key: str, where: str) -> tuple[int, ...]:
    """A ray given as a map key of comma-separated integers, such as "-1,0"."""
    try:
        return tuple(_int(x) for x in key.split(","))
    except ValueError:
        raise CliError(2, f"bad ray '{key}' in {where}")


# parsed inputs by (parser, fan or None, the JSON value in file order)
_parsed: dict[tuple, Any] = {}


def _once(parse, fan: Fan | None, data, where: str):
    """parse(data, where), or parse(fan, data, where) when a fan is given, once per
    distinct JSON value per process. The key is the value as parsed, in file order
    (no sort_keys), never a path or where, which only shapes error messages. Every
    stored object is immutable, and an error is never stored: a bad input raises
    again, naming the where of that call."""
    key = (parse, fan, json.dumps(data))
    try:
        return _parsed[key]
    except KeyError:
        pass
    value = parse(data, where) if fan is None else parse(fan, data, where)
    _parsed[key] = value
    return value


def _fan(data, where: str) -> Fan:
    try:
        return fans.make_fan(data["rays"], data["cones"])
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise CliError(2, f"bad fan in {where}: {exc}")


def fan_of(scn: dict, where: str) -> Fan:
    return _once(_fan, None, need(scn, "fan", where), where)


def divisor_of(fan: Fan, data: dict, where: str) -> toric.ToricDivisor:
    return _once(_divisor, fan, data, where)


def _divisor(fan: Fan, data: dict, where: str) -> toric.ToricDivisor:
    coeffs = need(data, "coeffs", where)
    if isinstance(coeffs, dict):
        rays = {ray_of(k, where): rat_of(v, where) for k, v in coeffs.items()}
        if any(len(ray) != fan.dim for ray in rays):
            raise CliError(2, f"ray of length {fan.dim} expected in {where}")
        # keys such as "1,0" and "01,0" read as one ray; toric.divisor refuses the rest
        if len(rays) < len(coeffs):
            raise ValueError("ray given twice")
        coeffs = rays
    elif isinstance(coeffs, list):
        if len(coeffs) != len(fan.rays):
            raise CliError(2, f"{len(fan.rays)} coefficients expected in {where}")
        coeffs = [rat_of(v, where) for v in coeffs]
    else:
        raise CliError(2, f"coeffs must be a list or a map in {where}")
    return toric.divisor(fan, coeffs)


def metric_of(fan: Fan, data: dict, where: str) -> toric.ToricMetric:
    return _once(_metric, fan, data, where)


def _metric(fan: Fan, data: dict, where: str) -> toric.ToricMetric:
    divisor = need(data, "divisor", where)
    pieces = need_list(data, "pieces", where)
    if not pieces:
        raise CliError(3, "model polytope empty")
    line = _divisor(fan, divisor, where)
    parsed = []
    for i, piece in enumerate(pieces):
        at = f"{where} pieces[{i}]"
        slope = need(piece, "slope", at)
        if not isinstance(slope, list) or len(slope) != fan.dim:
            raise CliError(2, f"slope of length {fan.dim} expected in {at}")
        parsed.append(([rat_of(x, at) for x in slope], rat_of(piece.get("offset", 0), at)))
    return toric.metric(line, parsed)


def metrics_of(fan: Fan, scn: dict, where: str) -> list[toric.ToricMetric]:
    return [metric_of(fan, data, f"{where} metrics[{i}]")
            for i, data in enumerate(need_list(scn, "metrics", where))]


def weil_of(fan: Fan, data: dict, where: str) -> bdiv.WeilNefB:
    approx = []
    for i, m in enumerate(need_list(data, "approximants", where)):
        approx.append(bdiv.bdiv_of_metric(metric_of(fan, m, f"{where} approximants[{i}]")).cartier)
    limit = None
    if data.get("limit") is not None:
        limit = bdiv.bdiv_of_metric(metric_of(fan, data["limit"], f"{where} limit")).cartier
    return bdiv.weil(approx, limit)


def flag_of(fan: Fan, scn: dict, where: str) -> okounkov.FlagValuation:
    return _once(_flag, fan, need(scn, "flag", where), where)


def _flag(fan: Fan, data: dict, where: str) -> okounkov.FlagValuation:
    try:
        cone = [[_int(x) for x in ray] for ray in need(data, "cone", where)]
        if len(cone) != fan.dim or any(len(ray) != fan.dim for ray in cone):
            raise ValueError(f"cone must be {fan.dim} rays of length {fan.dim}")
        order = data.get("order")
        if order is not None:
            order = [[_int(x) for x in row] for row in order]
            if len(order) != len(cone) or any(len(row) != len(cone) for row in order):
                raise ValueError(f"order must be {len(cone)} x {len(cone)}")
    except (ValueError, TypeError) as exc:
        raise CliError(2, f"bad flag in {where}: {exc}")
    return okounkov.flag(cone, order)


def ideal_of(data: dict, where: str) -> ideals.MonomialIdeal:
    return _once(_ideal, None, data, where)


def _ideal(data: dict, where: str) -> ideals.MonomialIdeal:
    try:
        nvars = _int(data["nvars"])
        return ideals.make_ideal(nvars, [[_int(x) for x in g] for g in data["gens"]])
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError(2, f"bad ideal in {where}: {exc}")


def bundles_of(fan: Fan, scn: dict, where: str) -> dict[str, chern.SplitToricBundle]:
    decls = need(scn, "bundles", where)
    if not isinstance(decls, dict):
        raise CliError(2, f"bundles must map names to declarations in {where}")
    table = {}
    for name, decl in decls.items():
        summands = need(decl, "summands", where)
        if not isinstance(summands, list):
            raise CliError(2, f"summands must be a list in {where} bundle {name}")
        table[name] = chern.split_bundle(
            [metric_of(fan, m, f"{where} bundle {name}") for m in summands])
    return table


def chain_of(scn: dict, where: str) -> list[Fan]:
    chain = need(scn, "chain", where)
    if not isinstance(chain, list):
        raise CliError(2, f"chain must be a list of fans in {where}")
    return [_once(_fan, None, f, f"{where} chain[{i}]") for i, f in enumerate(chain)]
