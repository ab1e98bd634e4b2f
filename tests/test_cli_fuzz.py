"""Mutated mesh files through every file command of the command line.

The inputs are colored, refined and refined-then-reordered files whose
lines are then edited at random.  Whatever the edit, a command exits
with a documented code and no traceback, and the commands agree with
``verify``: an input it accepts can be reordered, race-checked and (if
refined) coarsened, and every file written from it passes ``verify``.
"""

import contextlib
import functools
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from meshchroma import read_native
from meshchroma.cli import main

EXIT_CODES = {0, 1, 2, 3, 4, 64}


def _run(*argv):
    """The exit code of one in-process command; its output is dropped
    but must hold no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in EXIT_CODES, (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    return code


@functools.lru_cache(maxsize=None)
def _sources() -> dict[str, str]:
    """The text of each file the mutations start from, by name."""
    steps = [  # (output, input or None, command)
        ("tri", None, ["generate", "--family", "tri_rect", "--nx", "4",
                       "--ny", "3"]),
        ("tri.c", "tri", ["color", "--seed", "1"]),
        ("tri.f", "tri.c", ["refine", "--elements", "0,3,5"]),
        ("tri.fr", "tri.f", ["reorder"]),
        ("quad", None, ["generate", "--family", "quad_rect", "--nx", "3",
                        "--ny", "3"]),
        ("quad.c", "quad", ["color", "--seed", "1"]),
        ("quad.cr", "quad.c", ["reorder"]),
        ("tet", None, ["generate", "--family", "tet_prism", "--nx", "2",
                       "--ny", "1", "--nz", "1"]),
        ("tet.c", "tet", ["color", "--seed", "1"]),
    ]
    with tempfile.TemporaryDirectory() as d:
        for name, source, argv in steps:
            if source is not None:
                argv = argv + ["-i", str(Path(d) / source)]
            assert main(argv + ["-o", str(Path(d) / name)]) == 0
        return {name: (Path(d) / name).read_text()
                for name, source, _ in steps if source is not None}


_TOKENS = st.sampled_from(["0", "1", "2", "3", "5", "7", "-1", "-2", "24",
                           "99", "-0.0", "0.5", "1e300", "nan", "x", "tri",
                           "quad", "tet", "99999999999999999999", ""])
_EDIT = st.tuples(st.sampled_from(["token", "drop", "copy", "swap"]),
                  st.integers(min_value=0), st.integers(min_value=0),
                  _TOKENS)


def _mutate(text: str, edits) -> str:
    lines = text.splitlines()
    for kind, a, b, token in edits:
        i, j = a % len(lines), b % len(lines)
        if kind == "token":
            words = lines[i].split(" ")
            words[b % len(words)] = token
            lines[i] = " ".join(words)
        elif kind == "drop":
            del lines[i]
        elif kind == "copy":
            lines.insert(j, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=80)
@given(source=st.sampled_from(["tri.c", "tri.f", "tri.fr", "quad.c",
                               "quad.cr", "tet.c"]),
       edits=st.lists(_EDIT, min_size=1, max_size=3))
def test_commands_agree_with_verify_on_mutated_files(source, edits):
    with tempfile.TemporaryDirectory() as d:
        src = Path(d) / "in.mesh"
        src.write_text(_mutate(_sources()[source], edits))
        accepted = _run("verify", "-i", str(src)) == 0
        must_pass = set()
        parents = "0"
        if accepted:
            nm = read_native(src)
            if nm.coloring is not None:
                must_pass |= {"reorder", "race-check"}
            if nm.parents is not None and (nm.parents >= 0).any():
                must_pass.add("coarsen")
                parents = ",".join(map(str, set(nm.parents[nm.parents >= 0]
                                                .tolist())))
        for argv in (["color", "--seed", "2"], ["reorder"],
                     ["refine", "--elements", "0"],
                     ["coarsen", "--parents", parents]):
            out = Path(d) / "out.mesh"
            out.unlink(missing_ok=True)
            code = _run(*argv, "-i", str(src), "-o", str(out))
            assert code == 0 or argv[0] not in must_pass, (argv, code)
            if accepted and code == 0:
                assert _run("verify", "-i", str(out)) == 0, argv
        code = _run("race-check", "-i", str(src))
        assert code == 0 or "race-check" not in must_pass
