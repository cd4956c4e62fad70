"""CSV/JSON writers with provenance headers and round-trip-exact floats."""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__ as VERSION
from .errors import PinchflowError
from .geometry import curvature_of
from .thresholds import family

TOOL = "pinchflow"


def provenance_lines(config: dict) -> list[str]:
    echo = json.dumps(config, sort_keys=True, default=str)
    return [f"# {TOOL} {VERSION}", f"# config: {echo}"]


def provenance_meta(config: dict) -> dict:
    return {"tool": TOOL, "version": VERSION, "config": config}


def write_threshold_csv(path, fam, xs, config: dict):
    """Threshold table: n,c,x,alpha,beta,gamma,gamma_d1,gamma_d2,omega,branch."""
    n, c = fam.params.n, fam.params.c
    xs = np.asarray(xs, dtype=float)
    (a,) = fam.alpha(xs, order=0)
    b, _, _ = fam.beta(xs)
    g, g1, g2, on_alpha = fam.gamma(xs)
    (w,) = fam.omega(xs, order=0)
    _table(
        path, config, "n,c,x,alpha,beta,gamma,gamma_d1,gamma_d2,omega,branch",
        f"{n},{float(c):.17g}," + "%.17g," * 7 + "%s",
        xs, a, b, g, g1, g2, w, np.where(on_alpha, "alpha", "beta"),
    )


def write_constants_json(path, params, constants, config: dict):
    payload = {
        "n": params.n,
        "c": params.c,
        "y_n": constants.y_n,
        "x0": constants.x0,
        "x1": constants.x1,
        "k_n": constants.k_n,
        "k_n_branch": constants.k_n_branch,
        "bneq_residual": constants.bneq_residual,
        "meta": provenance_meta(config),
    }
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_trace_csv(path, trace, config: dict):
    """Trace table: t,family,param,H_max,h2_max,h0_2_max,gamma_min,U_max,f_sigma,g_sigma."""
    m, state = trace.monitors, trace.state
    if state is None:  # axisymmetric: the grid size on snapshot rows only
        snaps = trace.snapshots
        param = [str(len(snaps[i].profile)) if i in snaps else "" for i in range(len(m))]
    else:
        param = state.rho if hasattr(state, "rho") else state.lam
    param_format = "%s" if state is None else "%.17g"
    _table(
        path, config, "t,family,param,H_max,h2_max,h0_2_max,gamma_min,U_max,f_sigma,g_sigma",
        f"%.17g,{trace.family.replace('%', '%%')},{param_format}" + ",%.17g" * 7,
        m.t, param, m.H_max, m.h2_max, m.h0_2_max, m.gamma_min, m.U_max, m.f_sigma, m.g_sigma,
    )


def write_terminal_json(path, trace, config: dict):
    payload = {
        "terminal": trace.terminal.kind.value,
        "T": trace.terminal.time,
        "meta": provenance_meta(config),
    }
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_curvature_csv(path, state, params, config: dict):
    """Pointwise curvature report: s,H,h2,h0_2,gamma,margin."""
    data = curvature_of(state, params)
    H, h2 = data.H, data.h_norm2
    g, _ = family(params).gamma(H ** 2, order=0)
    _table(
        path, config, "s,H,h2,h0_2,gamma,margin", "%d" + ",%.17g" * 5,
        np.arange(np.size(H)), H, h2, data.h0_norm2, g, g - h2,
    )


def write_reports_json(path, reports, config: dict):
    """Strict JSON: a non-finite worst_x or worst_margin is written as null.

    The file is json.dumps(payload, indent=2, sort_keys=True, default=str,
    allow_nan=False) plus a newline, byte for byte, for the payload
    {"all_passed", "meta", "reports"}.  json's indented encoder runs in pure
    Python, so only the head goes through it; each report is laid out by
    _report_json (json's C encoder runs only without indent).
    """
    head = {"all_passed": all(r.passed for r in reports), "meta": provenance_meta(config)}
    head_json = json.dumps(head, indent=2, sort_keys=True, default=str, allow_nan=False)
    body = ",\n    ".join(_report_json(r) for r in reports)
    listing = f"[\n    {body}\n  ]" if body else "[]"
    _write(path, f'{head_json[:-2]},\n  "reports": {listing}\n}}\n')


_FIELD_INDENT = "\n      "  # a report's fields sit three levels deep in the payload
_REPORT_KEYS = ("c", "check_id", "equality_loci", "grid_size", "message", "n", "passed",
                "worst_margin", "worst_x")  # a CheckReport's fields, sorted
_REPORT_LAYOUT = (
    "{" + _FIELD_INDENT
    + f",{_FIELD_INDENT}".join(f"{encode_basestring_ascii(k)}: %s" for k in _REPORT_KEYS)
    + "\n    }"
)


def _report_json(r) -> str:
    """One CheckReport as json.dumps(payload, indent=2, sort_keys=True) lays it out."""
    margin, x = r.worst_margin, r.worst_x
    return _REPORT_LAYOUT % (
        _json_value(r.c), _json_value(r.check_id), _json_value(r.equality_loci),
        _json_value(r.grid_size), _json_value(r.message), _json_value(r.n), _json_value(r.passed),
        _json_value(margin) if math.isfinite(margin) else "null",
        _json_value(x) if math.isfinite(x) else "null",
    )


def _json_value(value) -> str:
    """A report field as json.dumps writes it there: floats, str, int, bool, [] and None directly.

    Anything else, such as a non-empty list of loci, a subclass of those
    types or a non-finite float (which raises ValueError), goes through
    json.dumps with the payload's options, re-indented to its depth.
    """
    kind = value.__class__
    if kind is float:
        if value - value == 0.0:  # finite
            return float.__repr__(value)
    elif kind is str:
        return encode_basestring_ascii(value)
    elif kind is int:
        return int.__repr__(value)
    elif kind is bool:
        return "true" if value else "false"
    elif kind is list:
        if not value:
            return "[]"
    elif value is None:
        return "null"
    text = json.dumps(value, indent=2, sort_keys=True, default=str, allow_nan=False)
    return text.replace("\n", _FIELD_INDENT)


def render_report_table(reports) -> str:
    width = max(len(r.check_id) for r in reports) + 2
    rows = [f"{'check':<{width}} {'n':>3} {'c':>6} {'status':>7} {'worst margin':>14} {'worst x':>12}"]
    for r in reports:
        rows.append(
            f"{r.check_id:<{width}} {r.n:>3} {r.c:>6g} "
            f"{'pass' if r.passed else 'FAIL':>7} {r.worst_margin:>14.3e} {r.worst_x:>12.5g}"
        )
    return "\n".join(rows)


def _table(path, config: dict, header: str, template: str, *columns):
    """Provenance lines, the header, then one `template % row` line per row of the columns."""
    rows = zip(*(np.atleast_1d(col).tolist() for col in columns))
    lines = provenance_lines(config) + [header] + [template % row for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _write(path, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PinchflowError(f"cannot write {path!r}: {exc}") from exc
