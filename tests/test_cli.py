import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import random_reduced_word

from spotdisk import cancelpairs, whitehead
from spotdisk.cli import MAX_RANK, main
from spotdisk.words import format_word


SRC = Path(__file__).resolve().parents[1] / "src"
TRACED_CLI = SRC.parent / "perfbench" / "traced_cli.py"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python_with_src(args, **kwargs):
    """Run a fresh interpreter that imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)


def test_wg_single_letter_verdict(capsys):
    code, out, err = run(capsys, "wg", "x1", "--rank", "2")
    assert code == 0
    assert "cut vertex: yes" in out
    assert err == ""


def test_wg_cut_free_word_verdict(capsys):
    code, out, _ = run(capsys, "wg", "x1 x2 X1 X2 x1", "--rank", "2")
    assert code == 0
    assert "cut vertex: no" in out
    assert "edges: 4" in out


def test_wg_deep_graph_has_no_recursion_limit(capsys):
    # 1,600 vertices: a depth-first search deeper than the recursion limit
    word = format_word(random_reduced_word(random.Random(800), 800, 4000))
    code, out, err = run(capsys, "wg", word, "--rank", "800")
    assert code == 0
    assert "cut vertex: " in out
    assert err == ""


def test_wg_malformed_word(capsys):
    code, out, err = run(capsys, "wg", "x1 ??", "--rank", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_wg_writes_dot(tmp_path, capsys):
    path = tmp_path / "graph.dot"
    code, _, _ = run(capsys, "wg", "x1 x2", "--rank", "2", "--dot", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8").startswith("graph whitehead {")


def test_simple_length_with_witness_and_oracle(capsys):
    code, out, _ = run(
        capsys, "simple-length", "x1 x2 X1 X2 x1", "--rank", "2", "--witness", "--oracle"
    )
    assert code == 0
    assert "simple length: 1" in out
    assert "piece: x1 x2 X1 X2 x1" in out
    assert "oracle: agree" in out


def test_simple_length_of_single_letter(capsys):
    code, out, _ = run(capsys, "simple-length", "x1", "--rank", "2")
    assert code == 0
    assert "simple length: 0" in out


def test_simple_length_oracle_cap(capsys):
    long_word = " ".join(["x1 x2"] * 9)
    code, _, err = run(
        capsys, "simple-length", long_word, "--rank", "2", "--oracle"
    )
    assert code == 3
    assert "error" in err


def test_simple_length_oracle_refuses_15_letters_before_any_output(capsys):
    letters = ["x1", "x2", "X1", "X2"] * 4
    code, out, _ = run(capsys, "simple-length", " ".join(letters[:14]), "--rank", "2", "--oracle")
    assert code == 0
    assert "oracle: agree" in out
    code, out, err = run(capsys, "simple-length", " ".join(letters[:15]), "--rank", "2", "--oracle")
    assert (code, out) == (3, "")
    assert err == "error: word length 15 exceeds brute-force cap 14\n"


def test_oracle_cap_is_no_longer_an_option(capsys):
    # nor are the cr-bounds search bounds, the qi-cert budget or its length cap
    for argv, flag in (
        (["simple-length", "x1", "--rank", "2", "--oracle"], "--oracle-cap"),
        (["cr-bounds", "x1", "--rank", "2"], "--max-ell"),
        (["cr-bounds", "x1", "--rank", "2"], "--max-piece"),
        (["cr-bounds", "x1", "--rank", "2"], "--max-conj"),
        (["qi-cert", "--rank", "6", "--n", "1", "--grid-max", "1"], "--budget"),
        (["qi-cert", "--rank", "4", "--n", "1", "--grid-max", "1"], "--length-cap"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "4"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {flag} 4" in err


@pytest.mark.parametrize("rank", [MAX_RANK + 1, 30_000_000])
@pytest.mark.parametrize(
    "argv",
    [
        ("wg", "x1"),
        ("simple-length", "x1"),
        ("cr-bounds", "x1"),
        ("qi-cert", "--n", "1", "--grid-max", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_rank_over_the_cap_exits_3_before_any_work(capsys, argv, rank):
    code, out, err = run(capsys, *argv, "--rank", str(rank))
    assert code == 3
    assert out == ""
    assert err == f"error: rank {rank} exceeds cap {MAX_RANK}\n"


def test_push_takes_a_rank_over_the_cap(capsys):
    top = f"x{MAX_RANK + 1}"
    code, out, err = run(capsys, "push", "--rank", str(MAX_RANK + 1), "--arc", "x1", "--loop", top)
    assert code == 0
    assert out == f"arc: x1 {top}\n"
    assert err == ""


def test_cr_bounds_identity(capsys):
    code, out, _ = run(capsys, "cr-bounds", "", "--rank", "2")
    assert code == 0
    assert out.splitlines()[0] == "0 0 0"


def test_cr_bounds_sandwich_line(capsys):
    code, out, _ = run(capsys, "cr-bounds", "x1 x2 X1 X2 x1", "--rank", "2")
    assert code == 0
    lower, mid, upper = out.split()
    assert Fraction(lower) <= int(mid) <= int(upper)


def test_cr_bounds_cap_exceeded(capsys):
    long_word = " ".join(["x1 x2"] * 17)
    code, _, err = run(capsys, "cr-bounds", long_word, "--rank", "2")
    assert code == 3
    assert "error" in err


def test_cr_bounds_accepts_words_up_to_32_letters(capsys):
    for length in (22, 32):
        word = format_word(random_reduced_word(random.Random(length), 2, length))
        code, out, err = run(capsys, "cr-bounds", word, "--rank", "2")
        assert code == 0, err
        lower, mid, upper = out.split()
        assert Fraction(lower) <= int(mid) <= int(upper)


def test_unexpected_exception_is_one_line_exit_1(monkeypatch, capsys):
    def broken(w):
        raise RuntimeError("broken\nbound")

    monkeypatch.setattr(cancelpairs, "cr_lower_bound", broken)
    code, out, err = run(capsys, "cr-bounds", "x1 x2", "--rank", "2")
    assert code == 1
    assert out == ""
    assert err == "error: internal: RuntimeError: broken bound\n"


def test_oracle_disagreement_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(whitehead, "simple_length_bruteforce", lambda w: 7)
    code, out, err = run(capsys, "simple-length", "x1 x2 X1 X2 x1", "--rank", "2", "--oracle")
    assert code == 1
    assert out == "simple length: 1\noracle: disagree (enumeration found 7)\n"
    assert err == ""


def test_violated_bound_sandwich_exits_1(monkeypatch, capsys):
    # a search value above the simple length 1 of the word
    witness = cancelpairs.ConjugateReducedWitness(2, ())
    monkeypatch.setattr(cancelpairs, "cr_bruteforce", lambda w: witness)
    code, out, err = run(capsys, "cr-bounds", "x1 x2 X1 X2 x1", "--rank", "2")
    assert code == 1
    assert out == "0 2 1\n"
    assert err == "error: bound sandwich violated\n"


def test_qi_cert_requires_rank_four(capsys):
    code, _, err = run(capsys, "qi-cert", "--rank", "3", "--n", "1", "--grid-max", "1")
    assert code == 2
    assert "rank" in err


def test_qi_cert_output_and_csv_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys,
        "qi-cert",
        "--rank",
        "4",
        "--n",
        "1",
        "--grid-max",
        "2",
        "--csv",
        str(path),
    )
    assert code == 0
    assert out.startswith("n,g,k,l,displacement,lower,upper,ratio\n")
    assert "rows: 6" in out
    assert "min ratio: 1/2" in out
    file_text = path.read_text(encoding="utf-8")
    assert out.startswith(file_text)


def test_qi_cert_deterministic_across_jobs(capsys):
    outputs = []
    for jobs in ("1", "8"):
        code, out, _ = run(
            capsys,
            "qi-cert",
            "--rank",
            "4",
            "--n",
            "1",
            "--grid-max",
            "2",
            "--jobs",
            jobs,
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_push_identity_arc(capsys):
    code, out, _ = run(capsys, "push", "--rank", "2", "--arc", "", "--loop", "x1")
    assert code == 0
    assert out == "arc: x1\n"


def test_push_concatenates(capsys):
    code, out, _ = run(
        capsys, "push", "--rank", "2", "--arc", "x1 x2", "--loop", "X2 X1"
    )
    assert code == 0
    assert out == "arc: \n"


def test_torus_ball_radius_zero(capsys):
    code, out, _ = run(
        capsys, "torus-ball", "--radius", "0", "--valency", "1", "--leaves", "0"
    )
    assert code == 0
    assert "vertices: 1" in out
    assert "tree: yes" in out


def test_torus_ball_dot_and_tree_line(tmp_path, capsys):
    path = tmp_path / "ball.dot"
    code, out, _ = run(
        capsys,
        "torus-ball",
        "--radius",
        "2",
        "--valency",
        "3",
        "--leaves",
        "1",
        "--dot",
        str(path),
    )
    assert code == 0
    assert "tree: yes" in out
    assert path.read_text(encoding="utf-8").startswith("graph torusball {")


def test_torus_ball_rejects_bad_arguments(capsys):
    code, _, err = run(
        capsys, "torus-ball", "--radius", "-1", "--valency", "1", "--leaves", "0"
    )
    assert code == 2
    assert "error" in err


def test_torus_ball_over_the_vertex_cap_exits_3(capsys):
    # 2^31 - 1 vertices: refused before any is built
    code, out, err = run(
        capsys, "torus-ball", "--radius", "30", "--valency", "2", "--leaves", "0"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_qi_cert_rejects_nonpositive_jobs(capsys):
    code, out, err = run(
        capsys, "qi-cert", "--rank", "4", "--n", "1", "--grid-max", "1", "--jobs", "0"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


RANK_1 = "rank must be at least 2, got 1"
DIRECTORY = "cannot write .: Is a directory"
EMPTY_PATH = "cannot write : No such file or directory"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("wg", "x1", "--rank", "1"), RANK_1),
        (("simple-length", "x1", "--rank", "1"), RANK_1),
        (("cr-bounds", "x1", "--rank", "1"), RANK_1),
        (("push", "--rank", "1", "--arc", "x1", "--loop", "x1"), RANK_1),
        (
            ("qi-cert", "--rank", "3", "--n", "1", "--grid-max", "1"),
            "certificates need rank at least 4, got 3",
        ),
        # an output path that cannot be opened for writing
        (("wg", "x1", "--rank", "2", "--dot", "."), DIRECTORY),
        (("qi-cert", "--rank", "4", "--n", "1", "--grid-max", "1", "--csv", "."), DIRECTORY),
        (("torus-ball", "--radius", "1", "--valency", "1", "--leaves", "0", "--dot", "."), DIRECTORY),
        (
            ("qi-cert", "--rank", "4", "--n", "1", "--grid-max", "1", "--jobs", "0"),
            "jobs must be positive",
        ),
        # a bad argument wins over the 32-letter cap's exit 3
        (("cr-bounds", " ".join(["x1 x2"] * 17), "--rank", "1"), RANK_1),
        # and over the rank cap's
        (
            ("qi-cert", "--rank", str(MAX_RANK + 1), "--n", "1", "--grid-max", "1",
             "--jobs", "0"),
            "jobs must be positive",
        ),
        (
            ("qi-cert", "--rank", "4", "--n", "-3", "--grid-max", "2"),
            "need at least one coordinate, got -3",
        ),
        # an empty output path names no file: it is refused, not taken as none
        (("wg", "x1", "--rank", "2", "--dot", ""), EMPTY_PATH),
        (("qi-cert", "--rank", "4", "--n", "1", "--grid-max", "1", "--csv", ""), EMPTY_PATH),
        (("torus-ball", "--radius", "1", "--valency", "1", "--leaves", "0", "--dot", ""), EMPTY_PATH),
    ],
)
def test_bad_arguments_exit_2_before_any_work(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("wg", "x1", "--rank", "2", "--dot"),
        ("qi-cert", "--rank", "4", "--n", "1", "--grid-max", "1", "--csv"),
        ("torus-ball", "--radius", "1", "--valency", "1", "--leaves", "0", "--dot"),
    ],
    ids=lambda argv: argv[0],
)
def test_output_path_in_a_missing_directory_exits_2_before_any_work(tmp_path, capsys, argv):
    path = tmp_path / "missing-dir" / "out.txt"
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv, first_line",
    [
        pytest.param(("wg", "x1", "--rank", "2", "--dot"), "word: x1", id="wg"),
        pytest.param(
            ("qi-cert", "--rank", "4", "--n", "1", "--grid-max", "1", "--csv"),
            "n,g,k,l,",
            id="qi-cert",
        ),
        pytest.param(
            ("torus-ball", "--radius", "0", "--valency", "1", "--leaves", "0", "--dot"),
            "vertices: 1",
            id="torus-ball",
        ),
    ],
)
def test_failed_write_to_an_output_file_exits_2(capsys, argv, first_line):
    # /dev/full opens, but every write to it fails with ENOSPC; the result
    # has already gone to stdout when the file is written
    code, out, err = run(capsys, *argv, "/dev/full")
    assert code == 2
    assert out.startswith(first_line)
    assert err == "error: cannot write /dev/full: No space left on device\n"


# 3,321 rows and 81,911 bytes of CSV: past the 8 KiB buffer of a file or
# stdout, so qi-cert writes to them while it still computes rows
STREAMED_GRID = ["qi-cert", "--rank", "4", "--n", "2", "--grid-max", "8"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_failed_streamed_csv_write_exits_2_mid_stream():
    # the --csv write fails before the last row: stdout holds part of the
    # CSV and no summary, and the message names the file, not stdout
    proc = python_with_src(
        ["-m", "spotdisk.cli", *STREAMED_GRID, "--csv", "/dev/full"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write /dev/full: No space left on device\n"
    assert proc.stdout.startswith("n,g,k,l,displacement,lower,upper,ratio\n2,4,0;0,0;0,0,0,16,\n")
    assert "rows:" not in proc.stdout


@pytest.mark.parametrize(
    "argv, code",
    [
        (("wg", "x1", "--rank", "1", "--dot"), 2),
        (("wg", "x1 ??", "--rank", "2", "--dot"), 2),
        (("wg", "x1", "--rank", str(MAX_RANK + 1), "--dot"), 3),
        (("qi-cert", "--rank", "4", "--n", "1", "--grid-max", "-1", "--csv"), 2),
        (("qi-cert", "--rank", "4", "--n", "1", "--grid-max", "488", "--csv"), 3),
        (("qi-cert", "--rank", "4", "--n", "30000000", "--grid-max", "0", "--csv"), 3),
        (("torus-ball", "--radius", "-1", "--valency", "1", "--leaves", "0", "--dot"), 2),
        (("torus-ball", "--radius", "30", "--valency", "2", "--leaves", "0", "--dot"), 3),
        (("qi-cert", "--rank", "4", "--n", "0", "--grid-max", "2", "--csv"), 2),
        (("qi-cert", "--rank", "4", "--n", "-3", "--grid-max", "2", "--csv"), 2),
        # within the vertex cap, but its DOT text is over 10**12 bytes
        (("torus-ball", "--radius", "999999", "--valency", "1", "--leaves", "0", "--dot"), 3),
    ],
)
def test_failed_checks_create_no_output_file(tmp_path, capsys, argv, code):
    path = tmp_path / "out.txt"
    assert run(capsys, *argv, str(path))[:2] == (code, "")
    assert not path.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--n", "30000000", "--grid-max", "0"), "grid has more than 250000 row coordinates"),
        (("--n", "2000", "--grid-max", "1"), "grid has more than 250000 row coordinates"),
        (("--n", "1", "--grid-max", "500"), "grid words may reach more than 20000000 letters"),
    ],
)
def test_qi_cert_work_caps_exit_3_before_any_work(capsys, argv, message):
    code, out, err = run(capsys, "qi-cert", "--rank", "4", *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


def test_qi_cert_is_bounded_by_its_work_caps_alone(capsys):
    # worst-case relative word length 2 * 151 * 2 = 604, far below the
    # letter cap: (2 * 2 + 2) * 604 letters
    code, out, err = run(capsys, "qi-cert", "--rank", "148", "--n", "1", "--grid-max", "1")
    assert code == 0
    assert err == ""
    assert out == (
        "n,g,k,l,displacement,lower,upper,ratio\n"
        "1,148,0,0,0,0,8,\n1,148,0,1,1,1/2,14,1/2\n1,148,1,1,0,0,8,\n"
        "rows: 3\nmin ratio: 1/2\nmax ratio: 1/2\n"
    )


def test_closed_stdout_ends_quietly_with_141():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = python_with_src(
            ["-m", "spotdisk.cli", "qi-cert", "--rank", "4", "--n", "1", "--grid-max", "1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_reader_closing_stdout_mid_stream_ends_quietly_with_141():
    # 382 KB of CSV, far past a 64 KiB pipe: the child is still writing rows
    # when the reader leaves after the first chunk
    proc = subprocess.Popen(
        [sys.executable, "-m", "spotdisk.cli", "qi-cert", "--rank", "4", "--n", "2",
         "--grid-max", "12"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.read1(4096)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first.startswith(b"n,g,k,l,")
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["push", "--rank", "2", "--arc", "", "--loop", "x1"], id="push"),
        pytest.param(["simple-length", "x1", "--rank", "2"], id="simple-length"),
        pytest.param(["qi-cert", "--rank", "4", "--n", "3", "--grid-max", "2"], id="qi-cert"),
        pytest.param(STREAMED_GRID, id="qi-cert-streamed"),
    ],
)
def test_full_stdout_exits_2(monkeypatch, argv, unbuffered):
    # every write to /dev/full fails with ENOSPC: buffered, at the flush
    # after the command; unbuffered, at the first print
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    with open("/dev/full", "w") as full:
        proc = python_with_src(
            ["-m", "spotdisk.cli", *argv], stdout=full, stderr=subprocess.PIPE, text=True
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


CLI_BASE_MODULES = {
    "spotdisk", "spotdisk._record", "spotdisk.cli", "spotdisk.errors", "spotdisk.words"
}


@pytest.mark.parametrize(
    "argv, own_modules",
    [
        pytest.param(argv, own, id=argv[0])
        for argv, own in [
            (["wg", "x1 x2", "--rank", "2"], {"whitehead"}),
            (["simple-length", "x1 x2", "--rank", "2"], {"whitehead"}),
            (["cr-bounds", "x1 x2", "--rank", "2"], {"cancelpairs", "whitehead"}),
            (["qi-cert", "--rank", "4", "--n", "1", "--grid-max", "1"], {"qicert", "whitehead"}),
            (["push", "--rank", "2", "--arc", "", "--loop", "x1"], {"pushcalc"}),
            (["torus-ball", "--radius", "1", "--valency", "3", "--leaves", "1"], {"torustree"}),
            (["--help"], set()),
        ]
    ],
)
def test_subcommand_imports_only_its_modules(argv, own_modules):
    # A fresh interpreter runs main(argv) and reports every module it loaded
    # on stderr; fractions (and with it decimal) is for cr-bounds alone.
    # qi-cert prints its ratios from ints and leaves pushcalc, which only
    # the upper_bound audit uses, unloaded.
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from spotdisk import cli\n"
        "try:\n"
        "    cli.main(sys.argv[1:])\n"
        "except SystemExit:\n"
        "    pass\n"
        "sys.stderr.write(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = python_with_src(["-c", probe, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stderr))
    spotdisk = {name for name in loaded if name.split(".")[0] == "spotdisk"}
    assert spotdisk == CLI_BASE_MODULES | {f"spotdisk.{name}" for name in own_modules}
    assert not loaded & {"dataclasses", "inspect"}
    if "cancelpairs" not in own_modules:
        assert not loaded & {"fractions", "decimal"}


@pytest.mark.parametrize(
    "argv",
    [
        ["qi-cert", "--rank", "4", "--n", "1", "--grid-max", "1"],
        ["cr-bounds", "x1 x2 X1 X2 x1 x2", "--rank", "2"],
        ["simple-length", "x1 x2 X1 X2 x1 x2 X1 X2", "--rank", "2", "--witness"],
    ],
)
def test_benchmark_tracer_keeps_stdout(tmp_path, capsys, argv):
    # The benchmark's tracer wraps library names by attribute; a renamed
    # or removed name fails here instead of in a benchmark run.
    spans = tmp_path / "spans.json"
    proc = python_with_src([str(TRACED_CLI), str(spans), *argv], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert proc.stdout == out.encode()
    json.loads(spans.read_text(encoding="utf-8"))
