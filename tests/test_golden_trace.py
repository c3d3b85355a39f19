"""Bit-exact golden trace of the Newton solver and its verification.

``golden_trace.json`` holds, for nine fixed cases, every iteration
record (x_k, F, F', F'', step and the fuzzy value), the status, the
stationarity kind, the centroid at xstar and, where the solve converged,
the verification's derivatives and verdict strings.  It also holds
``check_point`` reports at fixed points, most of them off the minimum,
so that their verdicts name a dominator or an incomparable lambda found
after several samples; one has a neighbourhood so small that no sample
is compared.  Floats are stored
as ``float.hex`` and compared for exact equality, so any refactor of the
evaluation paths must reproduce them bit for bit.  A fuzzy value is
stored as its support and core endpoints plus a SHA-256 of the raw bytes
of all its levels, which keeps the file small and the check bitwise.

Regenerate (only for a deliberate, documented numeric change) with
``PYTHONPATH=src python tests/test_golden_trace.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import warnings

import pytest

from fuzzynewton import (
    STATUS_CONVERGED,
    ProblemSpec,
    centroid,
    check_point,
    eval_fuzzy,
    resolve_problem,
    solve,
    verify_solution,
)

GOLDEN = pathlib.Path(__file__).with_name("golden_trace.json")


def _builtin(name, x0=None, fd_step=None):
    resolved = resolve_problem(ProblemSpec(kind=name, x0=x0))
    cfg = resolved.config
    if fd_step is not None:
        cfg = dataclasses.replace(
            cfg, scal=dataclasses.replace(cfg.scal, fd_step=fd_step)
        )
    return resolved.function, cfg


def _one_sided():
    # example_4_1 without analytic derivatives on a domain whose right
    # edge is x0, so the first finite-difference stencil is one-sided.
    f, cfg = _builtin("example_4_1", fd_step=1e-5)
    f = dataclasses.replace(
        f, d1_lo=None, d1_hi=None, d2_lo=None, d2_hi=None, domain=(-2.0, 1.0)
    )
    return f, dataclasses.replace(cfg, x0=1.0)


CASES = {
    "example_4_1": lambda: _builtin("example_4_1"),
    "max_return_crisp": lambda: _builtin("max_return_crisp"),
    "max_return_fuzzy": lambda: _builtin("max_return_fuzzy"),
    "max_return_fuzzy_fd_step_1e-5": lambda: _builtin(
        "max_return_fuzzy", fd_step=1e-5
    ),
    "max_return_fuzzy_x0_0.8": lambda: _builtin("max_return_fuzzy", x0=0.8),
    "max_return_fuzzy_x0_0.9": lambda: _builtin("max_return_fuzzy", x0=0.9),
    "max_return_fuzzy_x0_1.1": lambda: _builtin("max_return_fuzzy", x0=1.1),
    "max_return_fuzzy_x0_1.25": lambda: _builtin("max_return_fuzzy", x0=1.25),
    "example_4_1_fd_one_sided": _one_sided,
}


# check_point at (x, keyword arguments) on a built-in at its settings.
CHECK_CASES = {
    f"check:{name}_x{x}_{tag}": (name, x, kwargs)
    for name, x in (
        ("max_return_fuzzy", 0.698),
        ("max_return_fuzzy", 0.703),
    )
    for tag, kwargs in (
        ("samples1", {"samples": 1}),
        ("samples25", {"samples": 25}),
        ("samples101", {"samples": 101}),
    )
}
CHECK_CASES.update({
    "check:example_4_1_x-0.3_samples25": ("example_4_1", -0.3, {}),
    "check:max_return_crisp_x0.9_samples25": ("max_return_crisp", 0.9, {}),
    "check:example_4_1_x0_nbhd1e-13": ("example_4_1", 0.0, {"nbhd": 1e-13}),
})


def _hex(values):
    return [float(v).hex() for v in values]


def _fuzzy(v) -> dict:
    return {
        "ends": _hex((v.lo[0], v.lo[-1], v.hi[-1], v.hi[0])),
        "levels_sha256": hashlib.sha256(
            v.lo.tobytes() + v.hi.tobytes()
        ).hexdigest(),
    }


def trace_case(name: str) -> dict:
    """The golden record of one case, every float as float.hex."""
    f, cfg = CASES[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = solve(f, cfg)
        out = {
            "status": res.status,
            "stationarity_kind": res.stationarity_kind,
            "xstar": float(res.xstar).hex(),
            "records": [
                {
                    "k": r.k,
                    "values": _hex((r.x_k, r.F, r.dF, r.d2F, r.step)),
                    "fuzzy_value": _fuzzy(r.fuzzy_value),
                }
                for r in res.trace
            ],
            "centroid": float(
                centroid(eval_fuzzy(f, res.xstar, cfg.scal.alpha_points))
            ).hex(),
            "verification": None,
        }
        if res.status == STATUS_CONVERGED:
            rep = verify_solution(f, res, cfg)
            out["verification"] = {
                "values": _hex((rep.d1, rep.d2, rep.level_d1_max)),
                "describe": [
                    rep.non_dominance.describe(),
                    rep.comp_plus.describe(),
                    rep.comp_minus.describe(),
                ],
            }
    return out


def _optional_hex(v):
    return None if v is None else float(v).hex()


def check_case(name: str) -> dict:
    """The golden record of one check_point case."""
    problem, x, kwargs = CHECK_CASES[name]
    f, cfg = _builtin(problem)
    rep = check_point(f, x, dataclasses.replace(cfg, x0=x), **kwargs)
    checks = (rep.non_dominance, rep.comp_plus, rep.comp_minus)
    return {
        "values": _hex((rep.d1, rep.d2, rep.stat_tol, rep.level_d1_max)),
        "stationary": rep.stationary,
        "ok": [rep.ok, rep.comp_plus.ok, rep.comp_minus.ok],
        "samples": [c.samples for c in checks],
        "witnesses": [
            _optional_hex(rep.non_dominance.dominator),
            _optional_hex(rep.comp_plus.witness),
            _optional_hex(rep.comp_minus.witness),
        ],
        "describe": [c.describe() for c in checks],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted([*CASES, *CHECK_CASES])


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_is_bit_identical(golden, name):
    want = golden[name]
    got = trace_case(name)
    for key in ("status", "stationarity_kind", "xstar", "centroid"):
        assert got[key] == want[key], key
    assert len(got["records"]) == len(want["records"])
    for g, w in zip(got["records"], want["records"]):
        assert g == w, f"record {w['k']} differs"
    assert got["verification"] == want["verification"]


@pytest.mark.parametrize("name", sorted(CHECK_CASES))
def test_check_is_bit_identical(golden, name):
    assert check_case(name) == golden[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_and_check_agree_on_stationarity(name):
    # solve's stationarity kind and check_point's stationary flag are one
    # decision, at converged and two-cycling end points alike
    f, cfg = CASES[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = solve(f, cfg)
        rep = check_point(f, res.xstar, cfg)
    assert res.stationarity_kind in ("local-min", "local-max", "not-stationary")
    assert rep.stationary == (res.stationarity_kind != "not-stationary")


if __name__ == "__main__":
    data = {name: trace_case(name) for name in sorted(CASES)}
    data.update((name, check_case(name)) for name in sorted(CHECK_CASES))
    with GOLDEN.open("w", encoding="utf-8") as fh:
        for i, (name, case) in enumerate(data.items()):
            # one line per key and record keeps diffs of the file readable
            head = [
                f"  {json.dumps(k)}: {json.dumps(v)}"
                for k, v in case.items() if k != "records"
            ]
            fh.write("{\n" if i == 0 else ",\n")
            fh.write(f"{json.dumps(name)}: {{\n")
            fh.write(",\n".join(head))
            if "records" in case:
                fh.write(',\n  "records": [\n')
                fh.write(",\n".join(
                    "    " + json.dumps(r) for r in case["records"]
                ))
                fh.write("\n  ]")
            fh.write("\n}")
        fh.write("\n}\n")
