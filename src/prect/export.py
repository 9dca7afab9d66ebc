"""Serialization: model JSON, census JSON, graph6 and DOT graph exports.

All JSON is emitted with sorted keys and the vertex order everywhere is the
construction order, so outputs are byte-stable for fixed inputs.
"""

from __future__ import annotations

import json

from .cliques import CliqueCensus
from .construct import RectangleModel, build_l2k, build_subplane_rect
from .gf import field_make
from .incidence import IncidenceStructure
from .linegraph import LineGraph, SrgCertificate, edge_class


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
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.adjacent(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = bytes(63 + int("".join(map(str, bits[i:i + 6])), 2)
                 for i in range(0, len(bits), 6)) if bits else b""
    return head + body


def graph6_str(g: LineGraph) -> str:
    return graph6_bytes(g).decode("ascii")


# -- DOT with edge classes as attributes --

def to_dot(g: LineGraph, model: RectangleModel) -> str:
    """DOT text; each edge carries the label of its special line (see edge_class)."""
    labels = model.special_labels
    out = ["graph lines {"]
    for u in range(g.nu):
        out.append(f"  {u};")
    for u, v in g.edges():
        c = edge_class(model, u, v)
        if c is None:
            raise ExportError(f"lines {u} and {v} meet more than once, or in a point "
                              f"on no unique special line")
        label = labels[c] if labels else str(c)
        out.append(f'  {u} -- {v} [class="{label}"];')
    out.append("}")
    return "\n".join(out) + "\n"


# -- model JSON; field codes travel as coefficient vectors, constant term first --

def _vectors(ctx, triples):
    return [[list(ctx.decode(c)) for c in t] for t in triples]


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
    if model.point_coords is not None:
        d["point_coords"] = _vectors(model.ctx, model.point_coords)
        d["line_coeffs"] = _vectors(model.ctx, model.line_coeffs)
        d["special_coeffs"] = _vectors(model.ctx, model.special_coeffs)
    if model.alt_special_labels():
        d["alt_special_labels"] = model.alt_special_labels()
    return d


def model_to_json(model: RectangleModel) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True)


def model_from_dict(d: dict) -> RectangleModel:
    """Rebuild a model from JSON, keeping whatever incidence the file states.

    The incidence structure is taken from the file as-is (so deliberately
    corrupted files stay corrupted); coordinates are reattached through the
    field context implied by the parameters.  The file must list its special
    lines last, since graph vertex v is structure line v for every ordinary
    line v; ExportError names the first special line out of place.
    """
    params = d["params"]
    structure = IncidenceStructure.from_json_dict(d["structure"])
    nu = len(structure.ordinary_lines)
    if structure.special_lines and structure.special_lines[0] < nu:
        raise ExportError(f"line {structure.special_lines[0]} passes through the special point "
                          f"{d['structure']['special_point']} but comes before an ordinary "
                          f"line: special lines come last in a model file")
    ctx = None
    point_coords = line_coeffs = special_coeffs = None
    if "point_coords" in d:
        ctx = field_make(params["p"], params["e"] * params["k"])
        point_coords = _codes(ctx, d["point_coords"])
        line_coeffs = _codes(ctx, d["line_coeffs"])
        special_coeffs = _codes(ctx, d["special_coeffs"])
    return RectangleModel(structure, d["family"], params["p"], params["e"], params["k"],
                          ctx=ctx, point_coords=point_coords, line_coeffs=line_coeffs,
                          special_coeffs=special_coeffs,
                          special_labels=list(d["special_labels"]))


def model_from_json(text: str) -> RectangleModel:
    return model_from_dict(json.loads(text))


def build_model(family: str, p: int | None = None, e: int | None = None,
                k: int | None = None) -> RectangleModel:
    if family == "l2k":
        if k is None:
            raise ExportError("family l2k needs k")
        return build_l2k(k)
    if family == "subplane":
        if None in (p, e, k):
            raise ExportError("family subplane needs p, e, k")
        return build_subplane_rect(p, e, k)
    if family == "plane":
        if None in (p, e):
            raise ExportError("family plane needs p, e")
        return build_subplane_rect(p, e, 1)
    raise ExportError(f"unknown family {family!r}")


# -- census JSON --

def census_to_dict(census: CliqueCensus, model: RectangleModel) -> dict:
    pts = model.structure.points
    return {
        "m": census.m,
        "n": census.n,
        "trivial": census.trivial,
        "point_cliques": [
            {"vertices": list(pc.vertices), "point": pts[pc.point]}
            for pc in census.point_cliques
        ],
        "plane_cliques": [
            {"vertices": list(pc.vertices), "plane_points": [pts[p] for p in pc.plane_points]}
            for pc in census.plane_cliques
        ],
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
