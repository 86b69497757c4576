import random
from fractions import Fraction

from helpers import random_reduced_word

from spotdisk.cli import main
from spotdisk.words import format_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    long_word = " ".join(["x1 x2"] * 11)
    code, _, err = run(capsys, "cr-bounds", long_word, "--rank", "2")
    assert code == 3
    assert "error" in err


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


def test_qi_cert_cap(capsys):
    code, _, err = run(
        capsys,
        "qi-cert",
        "--rank",
        "4",
        "--n",
        "2",
        "--grid-max",
        "2",
        "--length-cap",
        "50",
    )
    assert code == 3
    assert "error" in err


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


def test_jobs_env_default(monkeypatch, capsys):
    monkeypatch.setenv("SPOTDISK_JOBS", "2")
    code, out, _ = run(capsys, "qi-cert", "--rank", "4", "--n", "1", "--grid-max", "1")
    assert code == 0
    assert "rows: 3" in out


def test_qi_cert_rejects_nonpositive_jobs(capsys):
    code, out, err = run(
        capsys, "qi-cert", "--rank", "4", "--n", "1", "--grid-max", "1", "--jobs", "0"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
