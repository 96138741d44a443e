"""CLI subcommands, exit codes, and benchmark reports."""

import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssbve.bench import format_table, run_benchmark
from ssbve.cli import main
from ssbve.formats import MAX_HEADER_SIZE, parse_ssbve
from ssbve.generators import gen_gap_instance


def run(argv):
    return main(argv)


def _child_env(**extra) -> dict:
    """The environment of a child Python that imports ssbve from src."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestGenSolve:
    def test_gen_random_and_solve_roundtrip(self, tmp_path):
        inst_path = tmp_path / "inst.txt"
        out_path = tmp_path / "report.json"
        assert run(["--seed", "3", "gen", "--family", "random", "--n", "10",
                    "--s", "6", "--p", "0.4", "--k", "3",
                    "--out", str(inst_path)]) == 0
        assert run(["--out", str(out_path), "solve", "--algo", "exact",
                    "--input", str(inst_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == 1
        assert len(report["chosen"]) == 3
        assert min(report["chosen"]) >= 1  # 1-indexed

    def test_solve_all_algorithms(self, tmp_path):
        inst_path = tmp_path / "inst.txt"
        run(["--seed", "5", "gen", "--family", "random", "--n", "12", "--s",
             "6", "--p", "0.4", "--k", "4", "--out", str(inst_path)])
        sizes = {}
        for algo in ("exact", "baseline", "les", "planted", "worst"):
            out = tmp_path / f"{algo}.json"
            assert run(["--out", str(out), "solve", "--algo", algo,
                        "--input", str(inst_path)]) == 0
            sizes[algo] = json.loads(out.read_text())["neighborhood_size"]
        assert sizes["worst"] >= sizes["exact"]
        assert sizes["baseline"] >= sizes["exact"]

    def test_solve_mku_input(self, tmp_path):
        inst_path = tmp_path / "inst.mku"
        inst_path.write_text("p mku 4 3 2\ns 2 1 2\ns 2 2 3\ns 1 4\n")
        out = tmp_path / "r.json"
        assert run(["--out", str(out), "solve", "--algo", "exact",
                    "--input", str(inst_path)]) == 0
        assert json.loads(out.read_text())["neighborhood_size"] == 3

    def test_gen_planted_with_sidecar(self, tmp_path):
        inst_path = tmp_path / "p.txt"
        sidecar = tmp_path / "p.json"
        assert run(["--seed", "7", "gen", "--family", "planted", "--n",
                    "256", "--alpha", "0.5", "--beta", "0.5", "--gamma",
                    "0.2", "--r", "6", "--out", str(inst_path),
                    "--sidecar", str(sidecar)]) == 0
        truth = json.loads(sidecar.read_text())
        assert set(truth) >= {"planted_s", "planted_t", "alpha", "beta",
                              "gamma"}
        assert min(truth["planted_s"]) >= 1

    def test_gen_hdvr(self, tmp_path):
        out = tmp_path / "h.mku"
        assert run(["--seed", "2", "gen", "--family", "hdvr", "--n", "32",
                    "--r", "3", "--alpha", "1.2", "--beta", "1.5",
                    "--k-planted", "8", "--mode", "planted",
                    "--out", str(out)]) == 0
        assert out.read_text().startswith("p mku 32")

    def test_gen_gap(self, tmp_path):
        # The budget defaults to min(s, n); the graph is gen_gap_instance's.
        out = tmp_path / "gap.txt"
        assert run(["--seed", "4", "gen", "--family", "gap", "--n", "30",
                    "--s", "6", "--dl", "2", "--out", str(out)]) == 0
        inst = parse_ssbve(out.read_text())
        assert inst.k == 6
        assert inst.graph == gen_gap_instance(30, 6, 2.0, 4)

    def test_bad_input_exit_code(self, tmp_path):
        missing = tmp_path / "nope.txt"
        assert run(["solve", "--algo", "exact",
                    "--input", str(missing)]) == 4
        bad = tmp_path / "bad.txt"
        bad.write_text("p ssbve 2 2 1\ne 1 1\ne 1 1\n")
        assert run(["solve", "--algo", "exact", "--input", str(bad)]) == 4

    def test_non_integer_field_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("p ssbve 2 2 1\ne 1 x\n")
        assert run(["solve", "--algo", "les", "--input", str(bad)]) == 4

    @pytest.mark.parametrize("argv, text", [
        (["solve", "--algo", "baseline"], "p ssbve -3 1 1\n"),
        (["solve", "--algo", "baseline"], "p ssbve 1000000000 1 1\n"),
        (["solve", "--algo", "baseline"], "p mku -2 0 1\n"),
        (["solve", "--algo", "baseline"], "p mku 1 1000000000 1\n"),
        (["ssve"], "p ssve -3 1\n"),
        (["ssve"], "p ssve 1000000000 1\n"),
    ])
    def test_header_size_out_of_bounds_exit_code(self, tmp_path, capsys,
                                                  argv, text):
        inst = tmp_path / "inst.txt"
        inst.write_text(text)
        assert run(argv + ["--input", str(inst)]) == 4
        assert capsys.readouterr().err.startswith("bad input: header size")

    @pytest.mark.parametrize("argv", [["solve", "--algo", "planted"],
                                      ["ssve"]])
    def test_unreadable_input_exit_code(self, tmp_path, capsys, argv):
        # A byte that is not UTF-8 and a directory: both bad input, not a
        # traceback.
        undecodable = tmp_path / "bad.txt"
        undecodable.write_bytes(b"p ssbve 2 2 1\ne 1 \xff\n")
        for path in (undecodable, tmp_path):
            assert run(argv + ["--input", str(path)]) == 4
            assert capsys.readouterr().err.startswith("bad input:")

    @pytest.mark.parametrize("argv", [
        ["solve", "--algo", "exact", "--input", "INST"],
        ["gen", "--family", "planted", "--n", "64", "--alpha", "0.5",
         "--beta", "0.5", "--gamma", "0.2", "--r", "4"],
        ["gapcalc", "--r", "4", "--regime", "by_n"]])
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, argv,
                                         target):
        # An output path that cannot be opened for writing is bad input:
        # exit 4 and one line on stderr, not a traceback.
        inst = tmp_path / "inst.txt"
        inst.write_text("p ssbve 2 2 1\ne 1 1\ne 2 2\n")
        out = (tmp_path if target == "directory"
               else tmp_path / "no-such-dir" / "out.json")
        argv = [str(inst) if a == "INST" else a for a in argv]
        assert run(["--out", str(out)] + argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("bad input: cannot write")
        assert err.count("\n") == 1

    def test_unwritable_sidecar_exit_code(self, tmp_path, capsys):
        assert run(["gen", "--family", "planted", "--n", "64", "--alpha",
                    "0.5", "--beta", "0.5", "--gamma", "0.2", "--r", "4",
                    "--out", str(tmp_path / "p.txt"),
                    "--sidecar", str(tmp_path)]) == 4
        assert capsys.readouterr().err.startswith("bad input: cannot write")

    @pytest.mark.parametrize("flag", [
        ["--qmax", "1"], ["--qmax", "0"], ["--qmax", "-2"],
        ["--eps", "nan"], ["--eps", "inf"], ["--eps", "-1"]])
    def test_worst_bad_parameter_exit_code(self, tmp_path, capsys, flag):
        # A q_max with no exponent p/q to snap to, or an eps that is not a
        # finite nonnegative number: exit 4 and one line on stderr.
        inst = tmp_path / "inst.txt"
        inst.write_text("p ssbve 3 2 2\ne 1 1\ne 2 1\ne 3 2\n")
        out = tmp_path / "r.json"
        assert run(["--out", str(out), "solve", "--algo", "worst",
                    "--input", str(inst)] + flag) == 4
        err = capsys.readouterr().err
        name = {"--qmax": "q_max", "--eps": "eps"}[flag[0]]
        assert err.startswith(f"error: {name} ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("pq", [("2", "4"), ("0", "2"), ("3", "2")])
    def test_planted_schedule_not_coprime_exit_code(self, tmp_path, capsys,
                                                    pq):
        # solve_planted checks p and q before any work: exit 4 and one line
        # on stderr.
        inst = tmp_path / "inst.txt"
        inst.write_text("p ssbve 3 2 2\ne 1 1\ne 2 1\ne 3 2\n")
        out = tmp_path / "r.json"
        assert run(["--out", str(out), "solve", "--algo", "planted",
                    "--input", str(inst), "--p", pq[0], "--q", pq[1]]) == 4
        assert capsys.readouterr().err == (
            f"error: need coprime 0 < p < q, got p={pq[0]}, q={pq[1]}\n")
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["worst", "planted"])
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_branch_cap_below_one_exit_code(self, tmp_path, capsys, algo,
                                            cap):
        # A cap below 1 would pop no branch and still print a solution:
        # exit 4 and one line on stderr, as for the other counts.
        inst = tmp_path / "inst.txt"
        inst.write_text("p ssbve 3 2 2\ne 1 1\ne 2 1\ne 3 2\n")
        out = tmp_path / "r.json"
        assert run(["--out", str(out), "solve", "--algo", algo, "--input",
                    str(inst), "--branch-cap", cap]) == 4
        err = capsys.readouterr().err
        assert err.startswith("bad input: argument --branch-cap")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["certify", "--kind", "sa", "--n", "64", "--s", "8", "--dl", "4",
         "--mode", "sampled:x"],
        ["certify", "--kind", "sa", "--n", "64", "--s", "8", "--dl", "4",
         "--mode", "sampled:-3"],
        ["certify", "--kind", "sa", "--n", "64", "--s", "8", "--dl", "4",
         "--mode", "everything"],
        ["certify", "--kind", "sa", "--n", "64", "--s", "8", "--dl", "4",
         "--rounds", "0"],
        ["certify", "--kind", "sa", "--n", "64", "--s", "0", "--dl", "4"],
        ["certify", "--kind", "sa", "--n", "0", "--s", "8", "--dl", "4"],
        ["certify", "--kind", "sdp", "--n", "64", "--s", "0", "--dl", "4"],
        ["certify", "--kind", "sdp", "--n", "0", "--s", "8", "--dl", "4"],
        ["certify", "--kind", "sdp", "--n", "64", "--s", "8", "--dl", "4",
         "--k", "-1"],
        ["certify", "--kind", "sdp", "--n", "x", "--s", "8", "--dl", "4"],
        ["gen", "--family", "planted", "--n", "0", "--alpha", "0.5",
         "--beta", "0.5", "--gamma", "0.2", "--r", "4"],
        ["gen", "--family", "planted", "--n", "-4", "--alpha", "0.5",
         "--beta", "0.5", "--gamma", "0.2", "--r", "4"],
        ["gen", "--family", "gap", "--n", "3", "--s", "0", "--dl", "1"],
        ["gen", "--family", "random", "--n", "3", "--s", "-1", "--p", "0.5"],
        ["gen", "--family", "nope", "--n", "3"],
        ["gapcalc", "--r", "4", "--eps", "abc", "--regime", "by_n"],
        ["gapcalc", "--r", "4", "--eps", "1/0", "--regime", "by_n"],
        ["gapcalc", "--r", "4", "--eps", "1e400", "--regime", "by_n"],
        ["bench", "--suite", "oracle_small", "--seeds", "0"],
        ["bench", "--suite", "planted", "--n", "0"],
    ])
    def test_bad_argument_exit_code(self, tmp_path, capsys, argv):
        # A flag value out of its range is bad input, found before any
        # work: exit 4, one line on stderr and no output file.
        out = tmp_path / "out.json"
        assert run(["--out", str(out)] + argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("bad input: argument --")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--family", "planted", "--alpha", "nan", "--beta", "0.5",
         "--gamma", "0.2", "--r", "3"],
        ["--family", "planted", "--alpha", "0.5", "--beta", "0.5",
         "--gamma", "nan", "--r", "3"],
        ["--family", "planted", "--alpha", "-1", "--beta", "0.5",
         "--gamma", "0.2", "--r", "3"],
        ["--family", "planted", "--alpha", "0.5", "--beta", "1e6",
         "--gamma", "0.2", "--r", "3"],
        ["--family", "hdvr", "--r", "3", "--alpha", "1e6", "--beta", "1",
         "--k-planted", "3"],
        ["--family", "hdvr", "--r", "3", "--alpha", "nan", "--beta", "1",
         "--k-planted", "3"],
    ])
    def test_bad_exponent_exit_code(self, tmp_path, capsys, argv):
        # Exponents that give no valid model instance are bad input, found
        # before any work: exit 4, one line on stderr and no output file.
        out = tmp_path / "inst.txt"
        assert run(["--out", str(out), "gen", "--n", "10"] + argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_budget_exit_code(self, tmp_path):
        inst = tmp_path / "big.txt"
        lines = ["p ssbve 40 5 20"]
        lines += [f"e {u} {1 + (u % 5)}" for u in range(1, 41)]
        inst.write_text("\n".join(lines) + "\n")
        assert run(["solve", "--algo", "exact", "--input", str(inst)]) == 3


class TestSolveImports:
    def test_solve_path_loads_no_numpy_or_scipy(self, tmp_path):
        # The parser, LES, the approximation pipeline, the CLI that runs
        # them and its gap-instance generator load no numpy, scipy or
        # mpmath, whose import alone costs tens of MB of resident memory.
        inst = tmp_path / "gap.txt"
        code = ("import sys, ssbve.formats, ssbve.les, ssbve.approx, "
                "ssbve.cli; "
                "assert ssbve.cli.main(['--out', sys.argv[1], 'gen', "
                "'--family', 'gap', '--n', '300', '--s', '30', "
                "'--dl', '4']) == 0; "
                "print(sorted({m.split('.')[0] for m in sys.modules} "
                "& {'numpy', 'scipy', 'mpmath'}))")
        out = subprocess.run([sys.executable, "-c", code, str(inst)],
                             env=_child_env(), capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"
        assert inst.read_text().startswith("p ssbve 300 30 30\n")

    def test_exact_sa_certify_loads_no_numpy_or_mpmath(self, tmp_path):
        # n = 4096 is a fourth power, so every lifted-LP value is a
        # Fraction: the Gram-matrix certificate (numpy) and the float-mode
        # context (mpmath) are never needed.
        out_json = tmp_path / "cert.json"
        code = ("import sys, ssbve.cli; "
                "assert ssbve.cli.main(['--out', sys.argv[1], 'certify', "
                "'--kind', 'sa', '--n', '4096', '--s', '64', "
                "'--dl', '32']) == 0; "
                "print(sorted({m.split('.')[0] for m in sys.modules} "
                "& {'numpy', 'scipy', 'mpmath'}))")
        out = subprocess.run([sys.executable, "-c", code, str(out_json)],
                             env=_child_env(), capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"
        payload = json.loads(out_json.read_text())
        assert payload["passed"] and payload["property_checks"]["passed"]


# Short texts: arbitrary ones, and lines built from instance-like fields
# (mostly small integers, some sizes past the header bound, some fields that
# are not plain decimal integers).
_FIELDS = st.one_of(
    st.integers(-1, 12).map(str),
    st.sampled_from([str(MAX_HEADER_SIZE + 1), str(2 ** 64), "-0", "+3",
                     "1e3", "0x10", "\u0663", "e"]))
_LINES = st.one_of(
    st.builds("e {} {}".format, st.integers(1, 6), st.integers(1, 6)),
    st.builds(lambda tag, fields: " ".join([tag, *fields]),
              st.sampled_from(["e", "s", "c", "p"]),
              st.lists(_FIELDS, max_size=4)))
_TEXTS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
    st.builds(lambda kind, fields, body: "\n".join(
        [" ".join(["p", kind, *fields]), *body]),
        st.sampled_from(["ssbve", "ssve", "mku"]),
        st.lists(_FIELDS, min_size=2, max_size=3),
        st.lists(_LINES, max_size=6)))

# Runs `solve --algo baseline` and `ssve` with either oracle on one input
# file under an address space limit, and prints their exit codes.  An
# exception that main does not map to an exit code, MemoryError included,
# ends the child with status 1.
_BOUNDED_CHILD = """
import os, resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from ssbve.cli import main
path = sys.argv[2]
print(main(["--out", os.devnull, "solve", "--algo", "baseline",
            "--input", path]),
      main(["--out", os.devnull, "ssve", "--input", path]),
      main(["--out", os.devnull, "ssve", "--oracle", "sweep",
            "--input", path]))
"""


class TestBoundedMemory:
    # The largest headers the parsers accept (2^20 vertices a side) peak at
    # 100-116 MB of address space over the three runs, and a two-line SSVE
    # text, whose sweep loads numpy, at about 108 MB (VmPeak, x86-64 Linux,
    # CPython 3.11).
    ADDRESS_SPACE = 1 << 30

    @given(_TEXTS)
    @example(f"p ssbve {MAX_HEADER_SIZE} {MAX_HEADER_SIZE} 1\ne 1 1\n")
    @example(f"p ssbve 1 {MAX_HEADER_SIZE} 1\ne 1 1\n")
    @example(f"p ssve {MAX_HEADER_SIZE} 1\ne 1 2\n")
    @settings(max_examples=20, deadline=None)
    def test_short_texts_exit_with_a_documented_code(self, text):
        # One child at a time, each with its own limit; the limit is set in
        # the child, so this process keeps its own.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out = subprocess.run(
                [sys.executable, "-c", _BOUNDED_CHILD,
                 str(self.ADDRESS_SPACE), path],
                env=_child_env(OPENBLAS_NUM_THREADS="1"),
                capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        codes = [int(c) for c in out.stdout.split()]
        assert len(codes) == 3 and set(codes) <= {0, 2, 3, 4}, out.stderr


class TestCertifyCli:
    def test_certify_sdp_valid(self, tmp_path):
        out = tmp_path / "sdp.json"
        code = run(["--seed", "1", "--out", str(out), "certify", "--kind",
                    "sdp", "--n", "1280", "--s", "384", "--dl", "2",
                    "--k", "4"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] is True
        assert rep["kind"] == "sdp"

    def test_certify_sa_small_fails_cardinality(self, tmp_path):
        # beta*sqrt(n)/4 < 1 at this scale: verification must report failure
        # through the exit code.
        out = tmp_path / "sa.json"
        code = run(["--seed", "1", "--out", str(out), "certify", "--kind",
                    "sa", "--n", "256", "--s", "16", "--dl", "8",
                    "--mode", "sampled:200"])
        assert code == 2
        rep = json.loads(out.read_text())
        assert rep["passed"] is False

    def test_certify_sa_report_shows_every_family(self, tmp_path):
        # 8332 constraint instances, 8320 of them cardinality ones, in
        # class rows few enough that all are written; their counts add up
        # to the instances.
        out = tmp_path / "sa.json"
        assert run(["--seed", "1", "certify", "--kind", "sa", "--n", "4096",
                    "--s", "64", "--dl", "32", "--rounds", "1",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        ids = [row["id"] for row in rep["checks"]]
        assert rep["passed"] and rep["num_checks"] == 8332
        assert len(ids) < 200
        assert sum(row["count"] for row in rep["checks"]) == 8332
        assert any(i.startswith("edges-") for i in ids)
        assert "bounds-level1" in ids and "bounds-top-level-classes" in ids

    def test_certify_sa_exhaustive_budget_exit_code(self, tmp_path, capsys):
        # Two rounds on 256 + 16 vertices: 37129 base sets to enumerate.
        out = tmp_path / "sa.json"
        assert run(["--out", str(out), "certify", "--kind", "sa", "--n",
                    "256", "--s", "16", "--dl", "4", "--rounds", "2"]) == 3
        err = capsys.readouterr().err
        assert err == ("budget exceeded: exhaustive base-set count 37129 "
                       "exceeds 20000\n")
        assert not out.exists()

    def test_certify_sdp_bad_divisibility(self):
        assert run(["certify", "--kind", "sdp", "--n", "100", "--s", "7",
                    "--dl", "2"]) == 4

    @pytest.mark.parametrize("sizes", [("1", "1", "2"), ("2", "1", "3"),
                                       ("4", "2", "6")])
    def test_certify_sa_more_rounds_than_vertices(self, tmp_path, capsys,
                                                  sizes):
        # rounds + 1 > n + s: the samplers draw every vertex instead of
        # more than exist.
        n, s, rounds = sizes
        out = tmp_path / "sa.json"
        assert run(["--out", str(out), "certify", "--kind", "sa", "--n", n,
                    "--s", s, "--dl", "1", "--rounds", rounds]) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err
        rep = json.loads(out.read_text())
        assert rep["params"]["rounds"] == int(rounds)
        assert "property_checks" in rep

    def test_certify_check_instance_sets_exit_code(self, tmp_path):
        # The certificate verifies, but this sparse instance fails the
        # optimum and degree checks: the instance rows fail the run.
        out = tmp_path / "sdp.json"
        assert run(["--seed", "2", "--out", str(out), "certify", "--kind",
                    "sdp", "--n", "1280", "--s", "384", "--dl", "2", "--k",
                    "4", "--check-instance"]) == 2
        rep = json.loads(out.read_text())
        assert rep["passed"] is True
        inst = rep["instance_checks"]
        assert inst["passed"] is False
        assert sorted(r["id"] for r in inst["checks"] if r["slack"] > 0) == [
            "item1-optimum-lb", "item2-degree-bounds"]


class TestSsveCli:
    def test_ssve_brute(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("p ssve 9 2\n" + "".join(
            f"e {a} {b}\n" for a, b in
            [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (1, 4)]))
        out = tmp_path / "out.json"
        assert run(["--out", str(out), "ssve", "--input", str(path),
                    "--oracle", "brute"]) == 0
        rep = json.loads(out.read_text())
        assert rep["schema"] == 1
        assert len(rep["chosen"]) <= 2

    @pytest.mark.parametrize("header", ["p ssve 0 0", "p ssve 4 -1"])
    def test_ssve_budget_below_one(self, tmp_path, header):
        path = tmp_path / "g.txt"
        path.write_text(header + "\n")
        assert run(["ssve", "--input", str(path)]) == 4

    def test_ssve_sweep_budget(self, tmp_path, capsys):
        # Dense 20000 x 20000 arrays would need about 3 GiB.
        path = tmp_path / "g.txt"
        path.write_text("p ssve 20000 1\ne 1 2\n")
        assert run(["ssve", "--input", str(path), "--oracle", "sweep"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: n=20000 exceeds the sweep budget 4096\n")

    def test_ssve_unsupported_regime(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("p ssve 4 3\ne 1 2\n")
        assert run(["ssve", "--input", str(path)]) == 4


class TestGapcalcCli:
    def test_exact_rational(self, capsys):
        assert run(["gapcalc", "--r", "16", "--eps", "0",
                    "--regime", "by_n"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gap_exponent"]["exact"] == "9/16"

    def test_float_eps(self, capsys):
        assert run(["gapcalc", "--r", "4", "--eps", "0.1",
                    "--regime", "by_m"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gap_exponent"]["value"] == pytest.approx(
            1 / 1.9 - 1 / 3.6 - 1 / 8)


class TestBench:
    def test_oracle_small_deterministic(self, tmp_path):
        a = run_benchmark("oracle_small", seeds=3)
        b = run_benchmark("oracle_small", seeds=3)
        assert a == b
        assert a["schema"] == 1
        assert all(r["results"]["exact"]["ratio"] == 1.0 for r in a["rows"])
        assert [r["seed"] for r in a["rows"]] == [0, 1, 2]

    def test_planted_suite_small(self):
        rep = run_benchmark("planted", seeds=2,
                            planted_cfg=dict(n=1024, gamma=0.1, r_degree=10,
                                             branch_cap=1024))
        assert rep["fraction_within_4x"] == 1.0

    def test_table_rendering(self):
        rep = run_benchmark("oracle_small", seeds=2)
        table = format_table(rep)
        assert "suite: oracle_small" in table

    def test_bench_cli(self, tmp_path, capsys):
        assert run(["--format", "table", "bench", "--suite", "oracle_small",
                    "--seeds", "2"]) == 0
        assert "max ratios" in capsys.readouterr().out

    def test_gap_certs_suite(self):
        rep = run_benchmark("gap_certs", seeds=1)
        assert rep == {
            "schema": 1, "suite": "gap_certs", "rows": [
                {"seed": 0, "kind": "sdp", "n": 1280, "s": 384, "d_l": 2,
                 "k": 4, "passed": True, "objective": 36.0,
                 "gap_ratio": 2 / 36},
                {"seed": 0, "kind": "sdp", "n": 1280, "s": 384, "d_l": 2,
                 "k": 8, "passed": True, "objective": 36.0,
                 "gap_ratio": 4 / 36},
                {"seed": 0, "kind": "sa", "n": 4096, "s": 64, "d_l": 32,
                 "rounds": 1, "passed": True, "objective": 2.0,
                 "gap_ratio": 0.25}],
            "all_passed": True, "min_sa_gap_ratio": 0.25}
        assert format_table(rep) == (
            "suite: gap_certs  (schema 1)\n"
            " seed  kind  passed    objective  gap_ratio\n"
            "    0   sdp    True      36.0000     0.0556\n"
            "    0   sdp    True      36.0000     0.1111\n"
            "    0    sa    True       2.0000     0.2500\n")

    def test_planted_table(self):
        rep = {"schema": 1, "suite": "planted", "fraction_within_4x": 0.5,
               "rows": [{"seed": 3, "planted_expansion": 0.25,
                         "solved_expansion": 0.5, "ratio": 2.0}]}
        assert format_table(rep) == (
            "suite: planted  (schema 1)\n"
            " seed    planted     solved    ratio\n"
            "    3    0.25000    0.50000    2.000\n"
            "fraction within 4x: 0.5\n")

    def test_writes_report_file(self, tmp_path):
        out = tmp_path / "bench.json"
        assert run(["--out", str(out), "bench", "--suite", "oracle_small",
                    "--seeds", "2"]) == 0
        assert json.loads(out.read_text())["schema"] == 1
