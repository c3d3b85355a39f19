"""Golden output of the command-line interface.

``cli_golden.json`` holds, for each fixed invocation below, the exit
code and the exact stdout and stderr of ``fuzzynewton.cli.main``, with
the one run-dependent figure, ``wall_time_s``, masked.  Refactors of the
report, parameter and config code must reproduce them byte for byte.

Regenerate (only for a deliberate, documented output change) with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re
import warnings

import pytest

from fuzzynewton.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

# Input files, written to a scratch directory; "{dir}" in an argv
# stands for that directory.
FILES = {
    "poly.json": {
        "kind": "fuzzy_polynomial",
        "coefficients": [
            [0.5, 1.0, 1.5], [-1.0, -0.5, 0.0], [1.0, 2.0, 3.0],
            [0.0, 0.5, 1.0],
        ],
        "domain": [-1.0, 2.0],
        "x0": 1.5,
    },
    "leaves_domain.json": {
        "kind": "fuzzy_polynomial",
        "coefficients": [
            [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0],
            [0.0, 1.0, 2.0],
        ],
        "domain": [-1.0, 1.0],
        "x0": -0.6,
    },
    "sweep.json": [
        {"Va": 0.00168, "rho": 1.0},
        {"Va": 0.00168, "rho": 1.5},
        {"Va": 0.00169, "rho": 1.5},
        {"Va": 0.00169, "rho": 2.0},
        {"Va": [0.00167, 0.00168, 0.00172], "rho": [0.5, 1.5, 3.5]},
    ],
    "sweep_extra_key.json": [{"Va": 0.00168, "rho": 1.0, "sigma": 0.1}],
    "sweep_missing_rho.json": [{"Va": 0.00168}],
    "fuzzy_params.json": {
        "kind": "max_return_fuzzy",
        "params": {"Va": [0.00167, 0.00168, 0.00172], "rho": [1.0, 2.0, 3.0]},
        "x0": 0.9,
    },
}

CASES = {}
for _fmt in ("text", "csv", "json"):
    for _problem in ("example_4_1", "max_return_crisp", "max_return_fuzzy"):
        CASES[f"solve_{_problem}_{_fmt}"] = [
            "solve", "--problem", _problem, "--format", _fmt,
        ]
    CASES[f"solve_poly_domain_{_fmt}"] = [
        "solve", "--problem", "{dir}/poly.json", "--format", _fmt,
    ]
    CASES[f"table_reference_sweep_{_fmt}"] = [
        "table", "--sweep", "{dir}/sweep.json", "--format", _fmt,
    ]
CASES.update({
    "solve_fuzzy_fd_step_1e-5_two_cycle": [
        "solve", "--problem", "max_return_fuzzy", "--fd-step", "1e-5",
    ],
    "solve_fuzzy_triangular_Va": [
        "solve", "--problem", "max_return_fuzzy",
        "--Va", "0.00167,0.00168,0.00173",
    ],
    "solve_crisp_triangular_Va_csv": [
        "solve", "--problem", "max_return_crisp",
        "--Va", "0.00167,0.00169,0.00172", "--format", "csv",
    ],
    "solve_step_leaves_domain": [
        "solve", "--problem", "{dir}/leaves_domain.json",
    ],
    "solve_config_params_with_Va_override": [
        "solve", "--problem", "{dir}/fuzzy_params.json", "--Va", "0.00169",
    ],
    "table_sweep_row_extra_key": [
        "table", "--sweep", "{dir}/sweep_extra_key.json",
    ],
    "table_sweep_row_missing_rho": [
        "table", "--sweep", "{dir}/sweep_missing_rho.json",
    ],
    "check_pass": ["check", "--problem", "example_4_1", "--xstar", "0"],
    "check_nbhd_and_samples": [
        "check", "--problem", "max_return_crisp", "--xstar", "0.6989",
        "--nbhd", "0.02", "--samples", "8",
    ],
    "check_fail": ["check", "--problem", "example_4_1", "--xstar", "0.5"],
    "check_no_sample_in_nbhd": [
        "check", "--problem", "example_4_1", "--xstar", "0",
        "--nbhd", "1e-13",
    ],
    "usage_missing_problem": ["solve", "--format", "json"],
    "usage_unknown_problem": ["solve", "--problem", "mystery"],
})

_WALL_TIME = re.compile(r'(wall_time_s"?[:,] ?)[-+.0-9eE]+')


def _mask(text: str) -> list[str]:
    """The output with wall_time_s masked, as lines for readable diffs."""
    return _WALL_TIME.sub(r"\1<masked>", text).split("\n")


def run_case(name: str, directory: pathlib.Path) -> dict:
    for file_name, content in FILES.items():
        (directory / file_name).write_text(json.dumps(content))
    argv = [arg.replace("{dir}", str(directory)) for arg in CASES[name]]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main(argv)
    return {"code": code, "stdout": _mask(out.getvalue()),
            "stderr": _mask(err.getvalue())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(golden, name, tmp_path):
    assert run_case(name, tmp_path) == golden[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {name: run_case(name, pathlib.Path(tmp))
                for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
