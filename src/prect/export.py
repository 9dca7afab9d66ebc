"""Serialization: a model as JSON, written and read back.

JSON is emitted with sorted keys and the construction order of points and
lines, so outputs are byte-stable for fixed inputs.  Every subcommand
compiles this module: build to write its model, the others to read theirs.
Reading a file with coordinates applies the field's check and coefficient
code from _util, so it loads no gf.  The graph6, DOT, census and srg
certificate writers live in prect.pipeline, beside the exports that use
them.
"""

from __future__ import annotations

import json

from ._util import check_field, field_code
from .structure import IncidenceStructure, RectangleModel


class ExportError(ValueError):
    pass


# -- model JSON; field codes travel as coefficient vectors, constant term first --

def _codes(p, m, vectors):
    return [(field_code(list(x), p, m), field_code(list(y), p, m), field_code(list(z), p, m))
            for x, y, z in vectors]


def model_to_dict(model: RectangleModel) -> dict:
    d = {
        "family": model.family,
        "params": {"p": model.p, "e": model.e, "k": model.k,
                   "q": model.q, "m": model.m, "n": model.n},
        "structure": model.structure.to_json_dict(),
        "special_labels": list(model.special_labels),
    }
    if model.point_coords is not None:  # each code decoded once; its vector is shared
        digits = [list(model.ctx.decode(c)) for c in range(model.ctx.order)]
        for name in ("point_coords", "line_coeffs", "special_coeffs"):
            d[name] = [[digits[x], digits[y], digits[z]] for x, y, z in getattr(model, name)]
    if model.alt_special_labels():
        d["alt_special_labels"] = model.alt_special_labels()
    return d


def model_to_json(model: RectangleModel) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True)


def _power_is(base: int, exp: int, value: int) -> bool:
    """Whether base^exp == value, for base >= 2, never forming a power past value."""
    power = 1
    for _ in range(exp):
        power *= base
        if power > value:
            return False
    return power == value


def _check_params(params: dict):
    """Raise ExportError, naming the field, unless p >= 2, e >= 1 and k >= 1
    are integers and the stored q, m and n are p^e, q and q^k."""
    for name, least in (("p", 2), ("e", 1), ("k", 1)):
        if type(params[name]) is not int or params[name] < least:
            raise ExportError(f"model parameter {name} = {params[name]!r} is not an integer "
                              f">= {least}")
    p, e, k = params["p"], params["e"], params["k"]
    for name, base, exp, formula in (("q", p, e, "p^e"), ("m", p, e, "q"),
                                     ("n", params["q"], k, "q^k")):  # q is checked first
        if type(params[name]) is not int or not _power_is(base, exp, params[name]):
            raise ExportError(f"model parameter {name} = {params[name]!r} is not {formula} "
                              f"for p = {p}, e = {e}, k = {k}")


def model_from_dict(d: dict) -> RectangleModel:
    """Rebuild a model from JSON, keeping whatever incidence the file states.

    The incidence structure is taken from the file as-is (so deliberately
    corrupted files stay corrupted); coordinates are reattached through the
    field context implied by the parameters.  The file must list its special
    lines last, since graph vertex v is structure line v for every ordinary
    line v; ExportError names the first special line out of place or the
    first parameter that is malformed or disagrees with p, e and k.  The
    file's family is written, not read: the model derives it from its data.
    """
    params = d["params"]
    _check_params(params)
    structure = IncidenceStructure.from_json_dict(d["structure"])
    nu = len(structure.ordinary_lines)
    if structure.special_lines and structure.special_lines[0] < nu:
        raise ExportError(f"line {structure.special_lines[0]} passes through the special point "
                          f"{d['structure']['special_point']} but comes before an ordinary "
                          f"line: special lines come last in a model file")
    point_coords = line_coeffs = special_coeffs = None
    if "point_coords" in d:
        p, m = params["p"], params["e"] * params["k"]
        check_field(p, m)
        point_coords = _codes(p, m, d["point_coords"])
        line_coeffs = _codes(p, m, d["line_coeffs"])
        special_coeffs = _codes(p, m, d["special_coeffs"])
    return RectangleModel(structure, params["p"], params["e"], params["k"],
                          special_labels=list(d["special_labels"]), point_coords=point_coords,
                          line_coeffs=line_coeffs, special_coeffs=special_coeffs)


def model_from_json(text: str) -> RectangleModel:
    return model_from_dict(json.loads(text))
