"""Command handlers of the model family: ``szego-density``,
``extremal-check`` and ``bergman-check``.

``crmorse.cli`` imports this module only when one of these commands runs,
so the field commands never compile it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .cli import _emit, _read_input, parse_model
from .errors import InputError, _int_arg, _real_arg
from .serialize import csv_table


def _parse_z(text: Optional[str], d: int) -> np.ndarray:
    if text is None:
        return np.zeros(d, dtype=complex)
    parts = text.split(";")
    if len(parts) != d:
        raise InputError(
            "--z needs %d 're,im' components separated by ';', got %d" % (d, len(parts))
        )
    out = np.zeros(d, dtype=complex)
    for i, part in enumerate(parts):
        bits = part.split(",")
        if len(bits) != 2:
            raise InputError("--z component %d must be 're,im', got %r" % (i, part))
        try:
            out[i] = complex(float(bits[0]), float(bits[1]))
        except ValueError as exc:
            raise InputError("--z component %d: %s" % (i, exc)) from exc
    return out


def _cmd_szego(args, started):
    from .model import _szego_table

    raw = _read_input(args)
    data = parse_model(raw)
    cs, densities = _szego_table(data)
    qs = list(range(data.d + 1)) if args.q is None else [_int_arg(args.q, "--q", 0, data.d)]
    result = {
        "d": data.d,
        "delta": data.delta,
        "roots": list(cs.roots),
        "intervals": [[list(iv) for iv in per_q] for per_q in cs.intervals],
        "densities": densities,
    }
    csv_text = csv_table(["q", "density"], [[q, densities[q]] for q in qs])
    _emit(args, "szego-density", raw, result, csv_text, started)


def _cmd_extremal(args, started):
    from .model import _extremal_form

    raw = _read_input(args)
    data = parse_model(raw)
    z = _parse_z(args.z, data.d)
    theta = _real_arg(args.theta, "--theta")
    q = _int_arg(args.q, "--q", 0, data.d)
    nodes = _int_arg(args.nodes, "--nodes", 16)
    form = _extremal_form(data, q, z, theta, nodes, "--z")
    result = {
        "q": args.q,
        "theta": args.theta,
        "nodes": args.nodes,
        "z": [[v.real, v.imag] for v in z],
        "multiIndices": [list(j) for j in form.multi_indices],
        "value": [[v.real, v.imag] for v in form.value],
        "norm_check": form.norm_check,
        "peak_check": form.peak_check,
    }
    rows = [["norm_check", form.norm_check, ""], ["peak_check", form.peak_check, ""]]
    for j, v in zip(form.multi_indices, form.value):
        rows.append(["(%s)" % ";".join(str(t) for t in j), v.real, v.imag])
    _emit(args, "extremal-check", raw, result, csv_table(["field", "re", "im"], rows), started)


def _cmd_bergman(args, started):
    from .model import _bergman_diag, _positive_definite, bergman_bruteforce, m_phi_eta

    raw = _read_input(args)
    data = parse_model(raw)
    max_degree = _int_arg(args.max_degree, "--max-degree", 0)
    z = _parse_z(args.z, data.d)
    eta = _real_arg(args.eta, "--eta")
    val = _bergman_diag(data, eta, _int_arg(args.q, "--q", 0, data.d), z, "--z")
    bruteforce = None
    rel_gap = None
    if _positive_definite(m_phi_eta(data, eta).entries)[0] and args.q == 0 and not np.any(z):
        bruteforce = bergman_bruteforce(data, eta, max_degree)
        if bruteforce != 0.0:
            rel_gap = (val.value - bruteforce) / bruteforce
    result = {
        "eta": args.eta,
        "q": args.q,
        "z": [[v.real, v.imag] for v in z],
        "value": val.value,
        "boundary": val.boundary,
        "bruteforce": bruteforce,
        "rel_gap": rel_gap,
    }
    rows = [
        ["value", val.value],
        ["boundary", val.boundary],
        ["bruteforce", "" if bruteforce is None else bruteforce],
        ["rel_gap", "" if rel_gap is None else rel_gap],
    ]
    _emit(args, "bergman-check", raw, result, csv_table(["key", "value"], rows), started)
