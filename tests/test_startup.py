"""The package surface and what a fresh interpreter loads: the rate modes
never import numpy, and ``oracle`` and ``tomography`` load on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biphoton

_SRC = str(Path(biphoton.__file__).resolve().parents[1])

# biphoton.__all__ as the package declared it when every module loaded at import
_ALL = [
    "__version__", "DetectorModel", "click_prob", "CapExceeded", "SourceKind", "PairSource",
    "TruncationPolicy", "pmf", "pmf_values", "truncation_index", "VisibilityResult",
    "CarResult", "Objective", "MuOptimum", "visibility_exact", "visibility_approx", "car",
    "optimize_mu", "XMaxTooLarge", "EnumeratedRate", "McEstimate", "enumerate_rate",
    "mc_rate", "Setting", "HplusModel", "RateMethod", "RateEntry", "RateReport",
    "UnsupportedSetting", "plus_port_distribution", "per_x_coincidence", "coincidence_rate",
    "single_rate", "closed_form_rates", "TimebinPort", "timebin_rate", "NotPhysical",
    "TomographyVector", "DensityMatrix", "projectors", "assemble_r", "reconstruct",
    "closed_form_rho", "closed_form_concurrence", "concurrence",
]


def _fresh(code: str, cwd=None) -> dict:
    """Run ``code`` in a fresh interpreter that imports biphoton from this
    tree; it prints one JSON document, returned parsed."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120, cwd=cwd)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


# json is imported after main returns, so the document says whether main loaded it
_MAIN = """
import contextlib, hashlib, io, sys
from biphoton.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main({argv!r})
loaded = {{"numpy": "numpy" in sys.modules, "json": "json" in sys.modules}}
import json
print(json.dumps({{"code": code, **loaded,
                  "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}}))
"""

# argv -> (loads numpy, stdout digest recorded when the package imported
# numpy at start-up): the output bytes do not depend on when numpy loads
_MODES = {
    ("car", "--source", "dis-correlated", "--mu", "0.3"):
        (False, "79721e6697cdbd67a59519f01e38a6575c0604966cd9ff6e279adb49521cf669"),
    ("visibility-curve", "--mu-range", "0:5:50"):
        (False, "46eba410f14994414ce05569835a3724f068ce4067ece9acaecd31372a4c21e1"),
    ("timebin", "--source", "indis-entangled", "--port", "aa", "--mu-range", "0.01:5:12:log"):
        (False, "6c32516ccd0b90fc0c325d7adcbf5ab684755561d8348f7717111ed26a47be91"),
    ("optimize-mu", "--source", "indis-entangled", "--mu-range", "1e-3:1:9:log",
     "--objective", "max-visibility"):
        (False, "d31c507c8c441569250d77ac48df3b51b2adff2ff7b561004f3eb1047f1a419a"),
    ("density-matrix", "--source", "dis-entangled", "--mu", "0.3"):
        (True, "0a784ae30f800117b218188e43c41dba0583a4677352b843a635852b346ef1f9"),
    ("concurrence-curve", "--mu-range", "0.01:2:20:log", "--dark-s", "1e-4", "--dark-i", "2e-4"):
        (True, "bffd1b4d9347868bbf3a7c83ea8b441b54acf9106ebca57ca2ba9690606c1f12"),
    ("validate",):
        (True, "f5cb894d550c6d10b7a0477c7312ae40f57e1264d5e98966f460154d9fb133f7"),
    # coherent H+ of indistinguishable pairs sums its kernel blocks with numpy
    ("timebin", "--source", "indis-entangled", "--port", "aplus", "--mu-range", "0.01:5:12:log"):
        (True, "4dc4fb20c180780d6fc36d7fa3157e5afe89b6c0745c37f0d7f6f09963b2a2b3"),
}


def test_importing_the_package_and_cli_loads_no_numpy():
    loaded = _fresh("import json, sys, biphoton, biphoton.cli\n"
                    "print(json.dumps(sorted(m for m in sys.modules\n"
                    "                        if m.startswith(('numpy', 'biphoton')))))")
    assert loaded == ["biphoton", "biphoton.cli", "biphoton.detection", "biphoton.distributions",
                      "biphoton.metrics", "biphoton.polarization"]


def test_importing_the_package_and_cli_loads_no_heavy_stdlib_module():
    # modules loaded before the import (a site hook may preload typing) are
    # not counted; the value types are named tuples, JSON loads on use
    new = _fresh("import sys\n"
                 "before = set(sys.modules)\n"
                 "import biphoton, biphoton.cli\n"
                 "new = set(sys.modules) - before\n"
                 "import json\n"
                 "print(json.dumps(sorted(new)))")
    assert {"biphoton", "biphoton.cli", "argparse"} <= set(new)
    assert set(new).isdisjoint({"dataclasses", "inspect", "json", "typing", "numpy"})


@pytest.mark.parametrize("argv", list(_MODES), ids=" ".join)
def test_a_one_shot_mode_loads_numpy_only_where_it_computes_with_it(argv):
    numpy, digest = _MODES[argv]
    # only the JSON document of density-matrix loads json
    assert _fresh(_MAIN.format(argv=list(argv))) == {
        "code": 0, "numpy": numpy, "json": argv[0] == "density-matrix", "sha256": digest}


# density-matrix as a JSON document, the format given, and from 16 rates read from
# a JSON file: the digests recorded when cli.py imported json at start-up
_JSON_MODES = {
    ("density-matrix", "--source", "dis-entangled", "--mu", "0.3", "--format", "json"):
        "0a784ae30f800117b218188e43c41dba0583a4677352b843a635852b346ef1f9",
    ("density-matrix", "--from-r", "rates.json"):
        "8c90df1e50b895e935ca5a56be306834f2365dd70416ea118e32b4c7e02404bd",
}


@pytest.mark.parametrize("argv", list(_JSON_MODES), ids=" ".join)
def test_json_output_and_from_r_print_their_frozen_bytes(argv, tmp_path):
    # the rates of a closed-form state: R_HH 0.5, R_HV 0.1 and R_H+ their mean
    r = [0.5 if j in (0, 2, 9, 15) else 0.1 if j in (1, 3) else 0.3 for j in range(16)]
    (tmp_path / "rates.json").write_text(json.dumps({"r": r}))
    assert _fresh(_MAIN.format(argv=list(argv)), cwd=tmp_path) == {
        "code": 0, "numpy": True, "json": True, "sha256": _JSON_MODES[argv]}


def test_all_keeps_its_names_and_order():
    assert biphoton.__all__ == _ALL


def test_star_import_and_dir_see_every_public_name():
    # in a fresh interpreter, where the star import is the first use of __all__
    bound, same, listed = _fresh("""
import json, biphoton
namespace = {}
exec("from biphoton import *", namespace)
del namespace["__builtins__"]
print(json.dumps([sorted(namespace), all(v is getattr(biphoton, k) for k, v in namespace.items()),
                  dir(biphoton)]))
""")
    assert bound == sorted(_ALL) and same
    assert {*_ALL, "oracle", "tomography", "OracleSetting"} <= set(listed)
    assert listed == sorted(listed)


def test_the_numpy_modules_resolve_as_attributes():
    assert biphoton.oracle is sys.modules["biphoton.oracle"]
    assert biphoton.tomography is sys.modules["biphoton.tomography"]
    assert biphoton.mc_rate is biphoton.oracle.mc_rate
    assert biphoton.reconstruct is biphoton.tomography.reconstruct


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'biphoton' has no attribute 'nope'$"):
        biphoton.nope  # noqa: B018
    assert not hasattr(biphoton, "nope")


def test_threads_that_first_touch_a_lazy_name_together_get_one_function():
    found = _fresh("""
import json, sys, threading
import biphoton
assert "numpy" not in sys.modules and "biphoton.oracle" not in sys.modules
start = threading.Barrier(8)
seen = []
def touch():
    start.wait()
    seen.append(biphoton.mc_rate)
threads = [threading.Thread(target=touch) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
from biphoton.oracle import mc_rate
print(json.dumps([len(seen), all(f is mc_rate for f in seen)]))
""")
    assert found == [8, True]
