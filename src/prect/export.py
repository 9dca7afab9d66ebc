"""Serialization: model JSON, census JSON, graph6 and DOT graph exports.

All JSON is emitted with sorted keys and the vertex order everywhere is the
construction order, so outputs are byte-stable for fixed inputs.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from ._util import iter_bits
from .construct import RectangleModel, build_l2k, build_subplane_rect
from .structure import IncidenceStructure

if TYPE_CHECKING:  # annotations only: build and a model export never load these stages
    from .cliques import CliqueCensus
    from .linegraph import LineGraph, SrgCertificate


class ExportError(ValueError):
    pass


# -- graph6 (standard format; vertices in construction order) --

def graph6_bytes(g: LineGraph) -> bytes:
    n = g.nu
    if n > 62:
        if n > 258047:
            raise ExportError("graph too large for this graph6 writer")
        head = bytes([126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)])
    else:
        head = bytes([63 + n])
    # column j holds the pairs (i, j), i < j, in order of i: row j's low j bits, reversed
    bits = "".join(format(g.rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return head + bytes(63 + int(bits[i:i + 6], 2) for i in range(0, len(bits), 6))


def graph6_str(g: LineGraph) -> str:
    return graph6_bytes(g).decode("ascii")


# -- DOT with edge classes as attributes --

def to_dot(g: LineGraph, model: RectangleModel) -> str:
    """DOT text; each edge carries the label of its special line (see edge_class)."""
    from .linegraph import edge_class

    labels = model.special_labels
    out = ["graph lines {"]
    for u in range(g.nu):
        out.append(f"  {u};")
    for u, v in g.edges():
        c = edge_class(model, u, v)
        if c is None:
            raise ExportError(f"lines {u} and {v} meet more than once, or in a point "
                              f"on no unique special line")
        if labels and c >= len(labels):
            raise ExportError(f"lines {u} and {v} meet on special line {c}, but the model "
                              f"labels only {len(labels)} special lines")
        label = labels[c] if labels else str(c)
        out.append(f'  {u} -- {v} [class="{label}"];')
    out.append("}")
    return "\n".join(out) + "\n"


# -- model JSON; field codes travel as coefficient vectors, constant term first --

def _codes(ctx, vectors):
    enc = ctx.encode
    return [(enc(list(x)), enc(list(y)), enc(list(z))) for x, y, z in vectors]


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
        from .gf import field_make
        ctx = field_make(params["p"], params["e"] * params["k"])
        point_coords = _codes(ctx, d["point_coords"])
        line_coeffs = _codes(ctx, d["line_coeffs"])
        special_coeffs = _codes(ctx, d["special_coeffs"])
    return RectangleModel(structure, params["p"], params["e"], params["k"],
                          special_labels=list(d["special_labels"]), point_coords=point_coords,
                          line_coeffs=line_coeffs, special_coeffs=special_coeffs)


def model_from_json(text: str) -> RectangleModel:
    return model_from_dict(json.loads(text))


def build_model(family: str, p: int | None = None, e: int | None = None,
                k: int | None = None) -> RectangleModel:
    if family == "l2k":
        if k is None:
            raise ExportError("family l2k needs k")
        if p is not None or e not in (None, 1):
            raise ExportError("family l2k takes no p, and no e other than 1")
        return build_l2k(k)
    if family == "subplane":
        if None in (p, e, k):
            raise ExportError("family subplane needs p, e, k")
        return build_subplane_rect(p, e, k)
    if family == "plane":
        if None in (p, e):
            raise ExportError("family plane needs p, e")
        if k not in (None, 1):
            raise ExportError("family plane has k = 1")
        return build_subplane_rect(p, e, 1)
    raise ExportError(f"unknown family {family!r}")


# -- census JSON --

def census_to_dict(census: CliqueCensus, model: RectangleModel) -> dict:
    """The census as JSON; a point clique is labelled by the one point its
    lines share, a plane clique by its plane's points, read off the model."""
    from .cliques import common_points, plane_mask

    pts = model.structure.points

    def point(clique):
        return pts[common_points(clique, model).bit_length() - 1]

    def plane(clique):
        return [pts[p] for p in iter_bits(plane_mask(clique, model))]

    return {
        "m": census.m,
        "n": census.n,
        "trivial": census.trivial,
        "point_cliques": [{"vertices": list(pc), "point": point(pc)}
                          for pc in census.point_cliques],
        "plane_cliques": [{"vertices": list(pc), "plane_points": plane(pc)}
                          for pc in census.plane_cliques],
        "anomalous": [list(c) for c in census.anomalous],
    }


def certificate_to_dict(cert: SrgCertificate) -> dict:
    return {
        "parameters": list(cert.parameters),
        "eigenvalues": [cert.tau0, cert.tau1, cert.tau2],
        "multiplicities": list(cert.multiplicities),
        "verdicts": dict(cert.verdicts),
        "witness": cert.witness,
        "ok": cert.ok,
    }
