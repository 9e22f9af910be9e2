"""Every public name of the curvature modules is either run by a command or
kept on purpose for library callers.

``report --path all``, ``compare --path as-printed`` and ``scan --quantity
ricci|KU`` run in process on three catalog models (a Kasner, a static and a
two-fiber model) under ``sys.setprofile``, which records the code of every
Python function entered.  ``compare`` gets one chunk of samples, so it
evaluates in this process and forks no worker.  A public name of
``warped_formulas``, ``tensor_oracle`` or ``null_sectional`` that none of
these runs enters must be listed in ``LIBRARY_ONLY`` with the reason it
stays; one that no command reads and nothing else needs should be deleted
instead."""

import inspect
import sys

import pytest

from warpcurv import (by_name, cli, null_sectional, tensor_oracle,
                      warped_formulas)

MODELS = ("kasner_vacuum", "schwarzschild_exterior",
          "generalized_reissner_nordstrom_demo")
MODULES = (warped_formulas, tensor_oracle, null_sectional)

# public names no command enters -> why each stays in src
LIBRARY_ONLY = {
    "riemann_general": "the vector-level API; a warpbench span",
    "ricci_general": "models' ricci_zero facts; a warpbench span",
    "metric_partials": "the batched oracle at a batch of one; a warpbench span",
    "lowered_riemann": "the batched oracle at a batch of one; "
                       "curvature_residuals",
    "null_sectional_from_tensors": "the batched oracle at a batch of one; "
                                   "null_sectional_oracle",
    "null_sectional_oracle": "models' null_zero and oracle facts",
    "sectional_curvature_oracle": "FiberSpec.check_curvature_tag",
    "curvature_residuals": "the oracle's identity residuals, planned for "
                           "an opt-in report field (ROADMAP.md)",
    "normalize_null": "the null completion of the sampler's try at one "
                      "plane; a warpbench counter",
    "make_degenerate_plane": "the projection of the sampler's try at one "
                             "plane, for a caller's own L and S",
    "sample_plane": "sample_planes at a batch of one; a warpbench span",
    "isotropy_scan": "the frame-isotropy diagnostic at one point; a "
                     "warpbench span",
}


def command_runs(tmp_path):
    for name in MODELS:
        lo, hi = by_name(name).base_window
        out = str(tmp_path / name)
        yield ["report", name, "--path", "all", "--planes", "8",
               "--out", out + ".json"]
        yield ["compare", name, "--path", "as-printed", "--samples",
               str(cli.CHUNK // 4), "--ledger", out + ".ledger"]
        for quantity in ("ricci", "KU"):
            yield ["scan", name, "--quantity", quantity, f"--from={lo!r}",
                   f"--to={hi!r}", "--steps", "6",
                   "--out", f"{out}_{quantity}.csv"]


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    """The code objects of every Python function the commands enter."""
    tmp_path = tmp_path_factory.mktemp("reach")
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        for argv in command_runs(tmp_path):
            assert cli.main(argv) == 0, argv
    finally:
        sys.setprofile(None)
    return codes


def is_entered(module, name, codes) -> bool:
    """A function is entered when its code ran; a class when a method
    defined on it in ``module`` ran."""
    obj = getattr(module, name)
    if inspect.isclass(obj):
        return any(c.co_filename == module.__file__
                   and c.co_qualname.startswith(f"{name}.") for c in codes)
    return obj.__code__ in codes


PUBLIC = [(m, name) for m in MODULES for name in m.__all__]


@pytest.mark.parametrize("module,name", PUBLIC,
                         ids=[f"{m.__name__.rsplit('.', 1)[-1]}.{name}"
                              for m, name in PUBLIC])
def test_public_name_is_run_or_kept_on_purpose(module, name, entered):
    if name in LIBRARY_ONLY:
        assert not is_entered(module, name, entered), (
            f"{name} is run by a command; drop it from LIBRARY_ONLY")
    else:
        assert is_entered(module, name, entered), (
            f"no command enters {module.__name__}.{name}")


def test_library_only_names_are_public():
    public = {name for _, name in PUBLIC}
    assert set(LIBRARY_ONLY) <= public
