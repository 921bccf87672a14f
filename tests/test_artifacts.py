"""``artifacts.write_text``: pieces written in order, as UTF-8, through a
sibling ``.tmp`` file that replaces the target only once it is whole."""

import os
import subprocess
import sys

import pytest

import hfreemaps
from hfreemaps.artifacts import write_text


def test_pieces_are_written_in_order_as_utf8(tmp_path):
    path = tmp_path / "out.txt"
    write_text(path, iter(["a,b\n", "", "é∂\n", "last"]))
    assert path.read_bytes() == "a,b\né∂\nlast".encode("utf-8")
    write_text(path, ("one string\r\n",))
    assert path.read_bytes() == b"one string\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_a_write_that_fails_partway_keeps_the_old_file(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_bytes(b"old contents\n")

    def pieces():
        yield "x,y,f,lie_f\n" * 1000
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_text(path, pieces())
    assert path.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv"]


def test_the_encoding_does_not_depend_on_the_locale(tmp_path):
    # -X warn_default_encoding warns wherever a file is opened without an
    # explicit encoding; -W error turns that warning into a failure
    src = os.path.dirname(os.path.dirname(hfreemaps.__file__))
    code = ("import sys; from hfreemaps.artifacts import write_text; "
            "write_text(sys.argv[1], ('\\u00e9',))")
    path = tmp_path / "out.txt"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                           "-W", "error::EncodingWarning", "-c", code, str(path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert path.read_bytes() == "é".encode("utf-8")
