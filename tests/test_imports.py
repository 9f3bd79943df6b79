"""What a fresh interpreter loads: `import domus` binds its submodules on
first access, and numpy loads only with the support rule, the
enclosed-volume flood or an attack. Each case runs in a new
interpreter, since this one has numpy loaded already."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import CORPUS

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(script: str):
    """Run script in a new interpreter that imports domus from src/ and
    return the JSON value it prints on its last line."""
    prelude = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
    res = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(script)],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_import_domus_loads_no_submodule():
    loaded = _fresh("""
        import domus
        print(json.dumps(sorted(m for m in sys.modules
                                if m == "numpy" or m.startswith("domus"))))
    """)
    assert loaded == ["domus", "domus.errors"]


def test_every_public_name_resolves():
    out = _fresh("""
        import domus
        names = {n: type(getattr(domus, n)).__name__ for n in domus.__all__}
        star = {}
        exec("from domus import *", star)
        from domus import vm
        try:
            domus.no_such_name
            unknown = "bound"
        except AttributeError as exc:
            unknown = str(exc)
        print(json.dumps({
            "names": names,
            "star": sorted(set(domus.__all__) - set(star)),
            "same": all(star[n] is getattr(domus, n) for n in domus.__all__),
            "vm": vm is sys.modules["domus.vm"],
            "unknown": unknown,
        }))
    """)
    assert out["names"] == {
        "DomusError": "type", "__version__": "str", "aesthetics": "module",
        "designer": "module", "fleet": "module", "naturalness": "module",
        "synthesis": "module", "vm": "module", "world": "module"}
    assert out["star"] == [] and out["same"] and out["vm"]
    assert out["unknown"] == "module 'domus' has no attribute 'no_such_name'"


def _cli_run(argv) -> list:
    """cli.run(argv) in a fresh interpreter after `import domus.cli`:
    [its exit code, numpy loaded before it, numpy loaded after it]."""
    return _fresh(f"""
        import contextlib, io
        from domus import cli
        before = "numpy" in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run({[str(a) for a in argv]!r})
        print(json.dumps([code, before, "numpy" in sys.modules]))
    """)


# each command with the exit code it gives
NUMPY_FREE = [
    (["build", CORPUS / "bridge.cvm", "--dims", 8, 1, 8], 0),
    (["render", CORPUS / "bridge.cvm", "--dims", 8, 1, 8], 0),
    (["complexity", CORPUS / "sierpinski2.cvm", "--dims", 9, 9, 1], 0),
    (["beauty", CORPUS / "sierpinski2.cvm", "--dims", 9, 9, 1, "--dict", CORPUS / "brick.pat"], 0),
    # pillar reads as Artificial, which natural reports with exit 1
    (["natural", CORPUS / "pillar.cvm", "--dims", 4, 4, 10], 1),
]


@pytest.mark.parametrize("argv, code", NUMPY_FREE, ids=[argv[0] for argv, _ in NUMPY_FREE])
def test_commands_without_support_rule_leave_numpy_unloaded(argv, code):
    assert _cli_run(argv) == [code, False, False]


@pytest.mark.parametrize("argv", [
    ["attack", CORPUS / "bridge.cvm", "--dims", 8, 1, 8, "--k", 2, "--fleet", 2],
    # constraints.json holds a Stability constraint
    ["optimize", "--dict", CORPUS / "brick.pat", "--constraints", CORPUS / "constraints.json",
     "--dims", 8, 8, 8, "--iters", 5, "--out-dir", "{tmp}"],
], ids=lambda argv: argv[0])
def test_support_rule_commands_load_numpy(argv, tmp_path):
    assert _cli_run([str(a).format(tmp=tmp_path) for a in argv]) == [0, False, True]
