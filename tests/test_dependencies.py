"""epkit runs on numpy alone: scipy must not come back through an import."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fit-ep3-path2.cfg"


def run_python(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)


def test_import_leaves_scipy_out():
    proc = run_python("import sys, epkit; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_fit_runs_with_scipy_blocked():
    # sys.modules[name] = None makes every import of name raise ImportError
    blocked = run_python(
        "import sys; sys.modules['scipy'] = None\n"
        "from epkit import cli\n"
        "sys.exit(cli.main(['fit', '--config', sys.argv[1]]))",
        str(CONFIG))
    normal = subprocess.run([sys.executable, "-m", "epkit", "fit",
                             "--config", str(CONFIG)],
                            capture_output=True, text=True)
    assert normal.returncode == 0, normal.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stderr == ""
    assert blocked.stdout == normal.stdout
