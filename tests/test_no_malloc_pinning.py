"""The test suite runs the allocator as every user of the program does.

Nothing under ``src/`` or ``tests/``, and nothing in ``pyproject.toml`` (which
holds the pytest settings), may pin glibc's malloc thresholds, whether
through glibc's malloc-options call or its malloc environment variables
(the two words ``FORBIDDEN`` lists). Pinned thresholds hide the page faults
that large numpy temporaries cause, so a faster suite would no longer mean
a faster program. Only ``perfbench/`` pins them, to steady its measurements.
"""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
FORBIDDEN = (b"mal" b"lopt", b"MAL" b"LOC_")  # split so that this file passes its own scan


def pinning_sites(paths):
    """``file: word`` for every forbidden word in the given files and directory trees."""
    files = []
    for path in paths:
        files += sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    return [f"{path}: {word.decode()}" for path in files if "__pycache__" not in path.parts
            for word in FORBIDDEN if word in path.read_bytes()]


def test_nothing_pins_malloc_thresholds():
    assert pinning_sites([ROOT / "src", ROOT / "tests", ROOT / "pyproject.toml"]) == []


def test_scan_finds_a_pinning_site(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "conftest.py").write_bytes(b"os.environ['" + FORBIDDEN[1] + b"TRIM_THRESHOLD_'] = '1'\n")
    (tmp_path / "setup.cfg").write_bytes(b"libc." + FORBIDDEN[0] + b"(-3, 1)\n")
    assert pinning_sites([tmp_path / "pkg", tmp_path / "setup.cfg"]) == [
        f"{tmp_path / 'pkg' / 'conftest.py'}: {FORBIDDEN[1].decode()}",
        f"{tmp_path / 'setup.cfg'}: {FORBIDDEN[0].decode()}",
    ]
