"""Scenario ingestion and the error type shared by the command line tools."""
from __future__ import annotations

import hashlib
import json
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
        return json.loads(text), hashlib.sha256(raw).hexdigest()
    except UnicodeDecodeError as exc:
        raise CliError(2, f"parse error in {path}: invalid UTF-8 at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise CliError(2, f"parse error in {path}: line {exc.lineno} column {exc.colno}")


def need(data: dict, key: str, where: str):
    if not isinstance(data, dict) or key not in data:
        raise CliError(2, f"missing key '{key}' in {where}")
    return data[key]


def need_list(data: dict, key: str, where: str) -> list:
    value = need(data, key, where)
    if not isinstance(value, list):
        raise CliError(2, f"{key} must be a list in {where}")
    return value


def rat_of(value, where: str) -> Fraction:
    try:
        return rat(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise CliError(2, f"bad rational '{value}' in {where}")


def int_of(value, where: str) -> int:
    """An integer given as a JSON int or a string of one."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise CliError(2, f"bad integer '{value}' in {where}")


def ray_of(key: str, where: str) -> tuple[int, ...]:
    """A ray given as a map key of comma-separated integers, such as "-1,0"."""
    try:
        return tuple(int(x) for x in key.split(","))
    except ValueError:
        raise CliError(2, f"bad ray '{key}' in {where}")


def _fan(data, where: str) -> Fan:
    try:
        return fans.make_fan(data["rays"], data["cones"])
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise CliError(2, f"bad fan in {where}: {exc}")


def fan_of(scn: dict, where: str) -> Fan:
    return _fan(need(scn, "fan", where), where)


def divisor_of(fan: Fan, data: dict, where: str) -> toric.ToricDivisor:
    coeffs = need(data, "coeffs", where)
    if isinstance(coeffs, dict):
        coeffs = {ray_of(k, where): rat_of(v, where) for k, v in coeffs.items()}
        if any(len(ray) != fan.dim for ray in coeffs):
            raise CliError(2, f"ray of length {fan.dim} expected in {where}")
    elif isinstance(coeffs, list):
        if len(coeffs) != len(fan.rays):
            raise CliError(2, f"{len(fan.rays)} coefficients expected in {where}")
        coeffs = [rat_of(v, where) for v in coeffs]
    else:
        raise CliError(2, f"coeffs must be a list or a map in {where}")
    return toric.divisor(fan, coeffs)


def metric_of(fan: Fan, data: dict, where: str) -> toric.ToricMetric:
    divisor = need(data, "divisor", where)
    pieces = need_list(data, "pieces", where)
    if not pieces:
        raise CliError(3, "model polytope empty")
    line = divisor_of(fan, divisor, where)
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
    data = need(scn, "flag", where)
    try:
        cone = [[int(x) for x in ray] for ray in need(data, "cone", where)]
        if len(cone) != fan.dim or any(len(ray) != fan.dim for ray in cone):
            raise ValueError(f"cone must be {fan.dim} rays of length {fan.dim}")
        order = data.get("order")
        if order is not None:
            order = [[int(x) for x in row] for row in order]
            if len(order) != len(cone) or any(len(row) != len(cone) for row in order):
                raise ValueError(f"order must be {len(cone)} x {len(cone)}")
    except (ValueError, TypeError) as exc:
        raise CliError(2, f"bad flag in {where}: {exc}")
    return okounkov.flag(cone, order)


def ideal_of(data: dict, where: str) -> ideals.MonomialIdeal:
    try:
        return ideals.make_ideal(int(data["nvars"]), data["gens"])
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
    return [_fan(f, f"{where} chain[{i}]") for i, f in enumerate(chain)]
