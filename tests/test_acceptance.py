"""Acceptance gate: every check in the verification suite must pass.

Each criterion prints one `[PASS]`/`[FAIL]` line (run with `-s` to stream
them live); a failing criterion fails its own test case with the detail
string in the assertion message.  The acceptance runs are built from the
config files shipped in the package.
"""

from importlib.resources import files

import pytest

from diffusionwave import verify
from diffusionwave.lab import cell_grid, parse_config
from diffusionwave.verify import ALL_CHECKS


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_acceptance(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("name, rho_minus, rho_plus, amplitude", [
    ("jump", 1.05, 0.95, 0.0),
    ("coincident", 1.0, 1.0, 0.2),
])
def test_fine_runs_use_the_shipped_configs(monkeypatch, name, rho_minus,
                                           rho_plus, amplitude):
    path = files("diffusionwave") / "configs" / f"{name}.cfg"
    assert path.is_file()
    cfg = parse_config(path)
    assert (cfg.rho_minus, cfg.rho_plus, cfg.amplitude) == (rho_minus, rho_plus,
                                                            amplitude)
    assert cell_grid(cfg.X, cfg.dx).size == 6000
    # the uncached run builder, with the simulation replaced by its config
    monkeypatch.setattr(verify, "run_experiment", lambda c: c)
    assert verify._report.__wrapped__(name) == cfg
