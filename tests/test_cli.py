"""CLI flows, file formats, exit codes, and JSON reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlrc
from qlrc.cli import main
from qlrc.errors import ParseError, QlrcError
from qlrc.files import dumps_code, load_code, loads_code, save_code
from qlrc.gf import GF
from qlrc.code import LinearCode
from qlrc.symp import SymplecticCode


def run(*argv):
    return main(list(argv))


def test_code_file_round_trip_is_byte_identical(tmp_path, hamming74):
    p = tmp_path / "ham.code"
    save_code(hamming74, p)
    text = p.read_text()
    assert text.splitlines()[0] == "q=2 p=2 m=1 poly=2"
    back = load_code(p)
    assert back == hamming74
    assert dumps_code(back) == text


def test_symplectic_file_round_trip(tmp_path, steane):
    p = tmp_path / "steane.code"
    save_code(steane, p)
    lines = p.read_text().splitlines()
    assert lines[1] == "layout=symplectic n=7"
    assert lines[2] == "n=14 k=6"
    back = load_code(p)
    assert isinstance(back, SymplecticCode) and back == steane


def test_gf4_file_header(tmp_path):
    C = LinearCode.from_rows(GF(2, 2), [[1, 2, 3]])
    p = tmp_path / "c.code"
    save_code(C, p)
    assert p.read_text().splitlines()[0] == "q=4 p=2 m=2 poly=7"
    assert load_code(p) == C


def test_loads_rejects_malformed():
    with pytest.raises(ParseError):
        loads_code("q=4 p=2 m=2 poly=7\n")
    with pytest.raises(ParseError):
        loads_code("q=4 p=2 m=3 poly=7\nn=2 k=1\n1 1\n")
    with pytest.raises(ParseError):
        loads_code("q=2 p=2 m=1 poly=2\nn=3 k=1\n1 1\n")
    with pytest.raises(ParseError):
        loads_code("q=2 p=0 m=1 poly=2\nn=3 k=1\n1 1 1\n")
    with pytest.raises(ParseError):
        loads_code("q=2 p=2 m=1000000000 poly=2\nn=3 k=1\n1 1 1\n")
    with pytest.raises(ParseError):
        loads_code("q=2 p=2 m=1 poly=2\nlayout=symplectic n=2\n")
    with pytest.raises(ParseError):
        loads_code("q=2 p=2 m=1 poly=2\nn=-3 k=0\n")
    # poly= outside [p^m, 2p^m) is not a monic degree-m modulus
    with pytest.raises(ParseError, match="poly=15 does not encode"):
        loads_code("q=4 p=2 m=2 poly=15\nn=2 k=1\n1 1\n")
    with pytest.raises(ParseError, match="poly=-9 does not encode"):
        loads_code("q=4 p=2 m=2 poly=-9\nn=2 k=1\n1 1\n")
    with pytest.raises(ParseError, match="expected 1 generator rows, found 2"):
        loads_code("q=2 p=2 m=1 poly=2\nn=3 k=1\n1 1 1\n1 0 1\n")
    # generator rows of rank below k would load a smaller code
    with pytest.raises(ParseError, match="rank 1, not k=2"):
        loads_code("q=2 p=2 m=1 poly=2\nn=3 k=2\n1 1 0\n1 1 0\n")
    with pytest.raises(ParseError, match="rank 0, not k=1"):
        loads_code("q=2 p=2 m=1 poly=2\nn=3 k=1\n0 0 0\n")
    with pytest.raises(ParseError, match="rank 1, not k=2"):
        loads_code("q=2 p=2 m=1 poly=2\nlayout=symplectic n=2\nn=4 k=2\n1 0 1 0\n1 0 1 0\n")


def test_construct_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "rect.code"
    assert run("construct", "affine:q=5,n1=5,n2=5,delta=rect:3,4",
               "-o", str(out)) == 0
    text1 = out.read_text()
    assert "claimed quantum: [[25,15,2]]_5" in capsys.readouterr().out
    # re-save what we load: byte identical canonical generators
    code = load_code(out)
    save_code(code, out)
    assert out.read_text() == text1
    rep = tmp_path / "rep.json"
    assert run("verify", str(out), "--mode", "quantum", "--form", "euclidean",
               "-r", "4", "-d", "2", "--json", str(rep)) == 0
    data = json.loads(rep.read_text())
    assert data["schema"] == 1
    assert data["verdict"] == "certified"
    assert data["optimality"] == "optimal pure"
    assert {b["bound"] for b in data["bounds"]} == {"quantum-singleton", "quantum-r-lrc"}
    assert set(data["certificate"]["sets"]) == {str(i) for i in range(1, 26)}


def test_exit_codes(tmp_path, capsys):
    steane_path = tmp_path / "steane.code"
    assert run("construct", "steane", "-o", str(steane_path)) == 0
    assert run("verify", str(steane_path), "--mode", "quantum",
               "--form", "symplectic", "-r", "6", "-d", "2") == 0
    assert run("verify", str(steane_path), "--mode", "quantum",
               "--form", "symplectic", "-r", "2", "-d", "2") == 1
    assert run("construct", "bogus:q=1", "-o", str(tmp_path / "x")) == 3
    assert run("verify", str(tmp_path / "missing.code"),
               "-r", "2", "-d", "2") == 3
    capsys.readouterr()


def test_verify_classical_mode(tmp_path, capsys):
    p = tmp_path / "ham.code"
    assert run("construct", "hamming:m=3,q=2", "-o", str(p)) == 0
    assert run("verify", str(p), "--mode", "classical", "-r", "3", "-d", "2") == 0
    out = capsys.readouterr().out
    assert "classical [7,4,3]_2" in out
    assert run("verify", str(p), "--mode", "classical", "-r", "1", "-d", "2") == 1


def test_weights_command(tmp_path, capsys):
    steane_path = tmp_path / "steane.code"
    ham_path = tmp_path / "ham.code"
    run("construct", "steane", "-o", str(steane_path))
    run("construct", "hamming:m=3,q=2", "-o", str(ham_path))
    capsys.readouterr()
    assert run("weights", str(steane_path), "--kind", "gsw", "--dual",
               "--t-max", "4") == 0
    assert "(3, 3, 5, 5)" in capsys.readouterr().out
    assert run("weights", str(ham_path), "--kind", "ghw") == 0
    assert "(3, 5, 6, 7)" in capsys.readouterr().out
    assert run("weights", str(ham_path), "--kind", "ghw", "--dual") == 0
    assert "(4, 6, 7)" in capsys.readouterr().out


def test_construct_grs_with_search(tmp_path, capsys):
    p = tmp_path / "grs.code"
    assert run("construct", "grs:q2=4,n=5,k=3", "-o", str(p), "--hermitian-dc") == 0
    out = capsys.readouterr().out
    assert "[5,3,3]_4" in out
    assert "claimed quantum: [[5,1,3]]_2" in out
    code = load_code(p)
    assert (code.n, code.k) == (5, 3)


def test_construct_css_descriptor(tmp_path, capsys):
    ham = tmp_path / "ham.code"
    run("construct", "hamming:m=3,q=2", "-o", str(ham))
    out = tmp_path / "css.code"
    assert run("construct", f"css:@{ham},@{ham}", "-o", str(out)) == 0
    text = capsys.readouterr().out
    assert "claimed quantum: [[7,1,3]]_2" in text
    assert isinstance(load_code(out), SymplecticCode)


def test_verify_css_form_with_pair(tmp_path, capsys):
    ham = tmp_path / "ham.code"
    run("construct", "hamming:m=3,q=2", "-o", str(ham))
    assert run("verify", str(ham), "--mode", "quantum", "--form", "css",
               "--pair", str(ham), "-r", "6", "-d", "2") == 0
    assert run("verify", str(ham), "--mode", "quantum", "--form", "css",
               "-r", "2", "-d", "2") == 1
    capsys.readouterr()
    # the pair must be a classical code nested with the first: an input error
    steane = tmp_path / "steane.code"
    run("construct", "steane", "-o", str(steane))
    rep7 = tmp_path / "rep7.code"
    rep7.write_text("q=2 p=2 m=1 poly=2\nn=7 k=1\n1 1 1 1 1 1 1\n")
    capsys.readouterr()
    for pair, message in ((steane, "css form needs classical code files"),
                          (rep7, "need C2^perp_e inside C1")):
        assert run("verify", str(ham), "--mode", "quantum", "--form", "css",
                   "--pair", str(pair), "-r", "1", "-d", "9") == 3
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("cert, rc, out", [
    ('{"r": 1, "delta": 2, "sets": {"1": [1, 2], "2": [1, 2]}}', 0, "verdict: certified"),
    ('{"r": 7, "delta": 9, "sets": {"1": [1, 2], "2": [1, 2]}}', 1,
     "verdict: refuted (certificate is for (r, delta) = (7, 9), not (1, 2))"),
    ('{"r": 1, "delta": 2, "sets": {"1": [1, 1, 2], " +2": [1, 2]}}', 3, ""),
], ids=["matching", "other-parameters", "coerced-keys-and-members"])
def test_verify_checks_what_the_certificate_says(tmp_path, capsys, cert, rc, out):
    """The [2,1] repetition code: a certificate is read as written, and one
    made for another (r, delta) does not certify -r 1 -d 2."""
    (tmp_path / "rep.code").write_text("q=2 p=2 m=1 poly=2\nn=2 k=1\n1 1\n")
    (tmp_path / "cert.json").write_text(cert)
    assert run("verify", str(tmp_path / "rep.code"), "-r", "1", "-d", "2",
               "--certificate", str(tmp_path / "cert.json")) == rc
    assert out in capsys.readouterr().out


def test_verify_with_certificate_file(tmp_path, capsys):
    from qlrc.files import save_certificate
    from qlrc.locality import verify_rdelta_lrc
    from qlrc.constructions import hamming_code

    ham = hamming_code(3, 2)
    cert = verify_rdelta_lrc(ham, 3, 2).certificate
    cpath = tmp_path / "cert.json"
    save_certificate(cert, cpath)
    hpath = tmp_path / "ham.code"
    save_code(ham, hpath)
    assert run("verify", str(hpath), "--mode", "classical", "-r", "3", "-d", "2",
               "--certificate", str(cpath)) == 0
    capsys.readouterr()


HAM_FILE = "q=2 p=2 m=1 poly=2\nn=3 k=1\n1 1 1\n"


@pytest.mark.parametrize("inputs, argv", [
    ({"c.code": "q=2 p=2 m=1 poly=2\nk=1\n1 1 1\n"},
     ["verify", "c.code", "-r", "1", "-d", "2"]),
    ({"c.code": "q=2 p=2 m=1 poly=2\nn=3 k=1\n1 x 1\n"},
     ["verify", "c.code", "-r", "1", "-d", "2"]),
    ({"c.code": "q=2 p=2 m=1 poly=2\nlayout=symplectic\nn=2 k=1\n1 0\n"},
     ["verify", "c.code", "--mode", "quantum", "-r", "1", "-d", "2"]),
    ({"c.code": HAM_FILE, "cert.json": '{"delta": 2, "sets": {"1": [1, 2]}}'},
     ["verify", "c.code", "-r", "1", "-d", "2", "--certificate", "cert.json"]),
    ({}, ["construct", "affine:n1=5,n2=5,delta=rect:3,4", "-o", "out.code"]),
    ({}, ["construct", "grs:q2=4,n=x,k=2", "-o", "out.code"]),
    ({"d.txt": "1 2 3\n"}, ["construct", "affine:q=5,n1=5,n2=5,delta=custom:@d.txt", "-o", "o"]),
    ({"c.code": HAM_FILE}, ["construct", "css:@c.code,@c.code,@c.code", "-o", "out.code"]),
], ids=["dims-without-n", "non-integer-entry", "layout-without-n", "certificate-without-r",
        "affine-without-q", "grs-n-not-integer", "custom-delta-bad-line", "css-three-files"])
def test_bad_input_exits_3_with_error_line(tmp_path, capsys, monkeypatch, inputs, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    assert run(*argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["verify", "--mode", "quantum", "--form", "euclidean", "-r", "4", "-d", "2",
      "--budget", "24"], "C(25,1) supports exceed budget 24"),
    (["verify", "-r", "4", "-d", "2", "--budget", "10"], "C(25,1) supports exceed budget 10"),
    (["weights", "--kind", "ghw", "--t-max", "2", "--budget", "10"],
     "C(25,1) subsets exceed budget 10"),
], ids=["quantum-bridge-distance", "classical-distance", "ghw"])
def test_budget_exhaustion_exits_2_inconclusive(tmp_path, capsys, argv, message):
    path = str(tmp_path / "r5.code")
    assert run("construct", "affine:q=5,n1=5,n2=5,delta=rect:3,4", "-o", path) == 0
    capsys.readouterr()
    assert run(argv[0], path, *argv[1:]) == 2
    assert capsys.readouterr().err == f"inconclusive: {message}\n"


def run_subprocess(tmp_path, argv, timeout):
    """``python -m qlrc.cli argv`` in tmp_path, killed after ``timeout`` s."""
    env = {**os.environ, "PYTHONPATH": str(Path(qlrc.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "qlrc.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=timeout)


HUGE_Q = 2305843009213693951     # 2^61 - 1, a prime far above gf.MAX_FIELD_SIZE


@pytest.mark.parametrize("argv", [
    ["verify", "big.code", "-r", "1", "-d", "2"],
    ["construct", f"grs:q2={HUGE_Q},n=3,k=2", "-o", "out.code"],
], ids=["code-file-header", "descriptor"])
def test_huge_field_size_exits_3_before_any_factoring(tmp_path, argv):
    """Rejected before a primality or factor loop runs; a subprocess with a
    timeout turns a regression into a failure rather than a hang."""
    (tmp_path / "big.code").write_text(f"q={HUGE_Q} p={HUGE_Q} m=1 poly=1\nn=1 k=1\n1\n")
    proc = run_subprocess(tmp_path, argv, 60)
    assert (proc.returncode, proc.stderr) == (
        3, f"error: field size q={HUGE_Q} exceeds the supported limit 1048576\n")


@pytest.mark.parametrize("k, budget, rc, err", [
    (3, "1000", 3, "error: no [12,3] code contains its Hermitian dual: that needs 2k >= n\n"),
    (6, "100", 2, "inconclusive: trying 101 multiplier tuples exceeds budget 100\n"),
], ids=["2k-below-n", "over-budget"])
def test_hermitian_dc_search_ends(tmp_path, k, budget, rc, err):
    """The multiplier search over 15^12 tuples refuses 2k < n and stops at
    the budget; a subprocess under a timeout turns a hang into a failure."""
    proc = run_subprocess(tmp_path, ["construct", f"grs:q2=16,n=12,k={k}", "--hermitian-dc",
                                     "-o", "h.code", "--budget", budget], 30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, "", err)
    assert not (tmp_path / "h.code").exists()


def test_grs_over_gf4096_verifies_without_field_tables(tmp_path):
    """No q x q table is built: the [10,5]_4096 (5, 2) verify certifies in
    well under 20 s (it took 30-45 s when the kernels tabulated GF(4096))."""
    assert run("construct", "grs:q2=4096,n=10,k=5", "-o", str(tmp_path / "g.code")) == 0
    proc = run_subprocess(tmp_path, ["verify", "g.code", "-r", "5", "-d", "2"], 20)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["classical [10,5,6]_4096",
                                        "  bound classical-singleton: lhs=11 rhs=11 (attained)",
                                        "verdict: certified"]


def test_unexpected_exception_exits_4_with_traceback(tmp_path, capsys, monkeypatch):
    from qlrc import files

    def boom(path):
        raise RuntimeError("simulated bug")

    monkeypatch.setattr(files, "load_code", boom)
    assert run("verify", str(tmp_path / "c.code"), "-r", "1", "-d", "2") == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: simulated bug" in err


def _certificate_paths():
    """(code, verify flags, valid certificate, wrong sets) per quantum path."""
    from qlrc.code import dual_euclidean
    from qlrc.constructions import hamming_code
    from qlrc.locality import verify_rdelta_lrc
    from qlrc.qlocality import verify_quantum_rdelta_lrc

    ham = hamming_code(3, GF(2))
    simplex = dual_euclidean(ham)
    self_dual = LinearCode.from_rows(GF(2), [[1, 1, 0, 0], [0, 0, 1, 1]])
    pairs = {i: [i, i % 7 + 1] for i in range(1, 8)}
    return {
        "css": (ham, ["--form", "css", "--pair", "{code}", "-r", "6", "-d", "2"],
                verify_quantum_rdelta_lrc((ham, ham), "css", 6, 2).certificate, pairs),
        "bridge": (ham, ["--form", "euclidean", "-r", "3", "-d", "2"],
                   verify_rdelta_lrc(ham, 3, 2).certificate, pairs),
        # d(C^perp) = 2 < delta: the bridge verifies the quantum side directly
        "direct": (self_dual, ["--form", "euclidean", "-r", "2", "-d", "3"],
                   verify_quantum_rdelta_lrc(self_dual, "euclidean", 2, 3).certificate,
                   {1: [1, 2, 3], 2: [1, 2, 3], 3: [1, 2, 3], 4: [2, 3, 4]}),
        "self-orthogonal": (simplex, ["--form", "euclidean", "-r", "3", "-d", "2"],
                            verify_quantum_rdelta_lrc(simplex, "euclidean", 3, 2).certificate,
                            pairs),
    }


@pytest.mark.parametrize("path", ["css", "bridge", "direct", "self-orthogonal"])
def test_quantum_verify_reads_the_certificate(tmp_path, capsys, path):
    from qlrc.files import save_certificate
    from qlrc.code import IndexSet
    from qlrc.locality import LocalityCertificate

    code, flags, valid, wrong_sets = _certificate_paths()[path]
    cpath = tmp_path / "c.code"
    save_code(code, cpath)
    argv = ["verify", str(cpath), "--mode", "quantum"] + [f.format(code=cpath) for f in flags]
    wrong = LocalityCertificate.of(code.n, valid.r, valid.delta,
                                   {i: IndexSet.of(code.n, J) for i, J in wrong_sets.items()})
    save_certificate(valid, tmp_path / "valid.json")
    save_certificate(wrong, tmp_path / "wrong.json")
    (tmp_path / "bad.json").write_text('{"delta": 2}')
    capsys.readouterr()
    assert run(*argv, "--certificate", str(tmp_path / "missing.json")) == 3
    assert run(*argv, "--certificate", str(tmp_path / "bad.json")) == 3
    report = tmp_path / "report.json"
    assert run(*argv, "--certificate", str(tmp_path / "valid.json"), "--json", str(report)) == 0
    data = json.loads(report.read_text())
    assert data["certificate"] == valid.to_json()
    if path in ("bridge", "direct"):
        assert data["via"] == path
    assert run(*argv, "--certificate", str(tmp_path / "wrong.json")) == 1
    assert "certified set for coordinate" in capsys.readouterr().out
    other = LocalityCertificate(valid.n, valid.r + 1, valid.delta, valid.sets)
    save_certificate(other, tmp_path / "other.json")
    assert run(*argv, "--certificate", str(tmp_path / "other.json")) == 1
    assert (f"certificate is for (r, delta) = ({valid.r + 1}, {valid.delta}), "
            f"not ({valid.r}, {valid.delta})") in capsys.readouterr().out


def test_t_max_zero_is_a_usage_error(tmp_path, capsys):
    """--t-max 0 is out of range (exit 3), not "use the whole hierarchy"."""
    steane_path = tmp_path / "steane.code"
    ham_path = tmp_path / "ham.code"
    run("construct", "steane", "-o", str(steane_path))
    run("construct", "hamming:m=3,q=2", "-o", str(ham_path))
    capsys.readouterr()
    assert run("weights", str(ham_path), "--kind", "ghw", "--t-max", "0") == 3
    assert capsys.readouterr().err == "error: t_max must be in 1..4\n"
    assert run("weights", str(steane_path), "--kind", "gsw", "--t-max", "0") == 3
    assert capsys.readouterr().err == "error: t_max=0 outside 1..6\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_non_positive_budget_is_a_usage_error(tmp_path, capsys, budget):
    ham_path = str(tmp_path / "ham.code")
    assert run("construct", "hamming:m=3,q=2", "-o", ham_path) == 0
    capsys.readouterr()
    assert run("verify", ham_path, "-r", "3", "-d", "2", "--budget", budget) == 3
    assert f"argument --budget: must be at least 1, got {budget}" in capsys.readouterr().err
    out = tmp_path / "s.code"
    assert run("construct", "steane", "-o", str(out), "--budget", budget) == 3
    assert f"argument --budget: must be at least 1, got {budget}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("q, rect, r, k, singleton",
                         [(8, "6,7", 7, 48, 66), (9, "7,8", 8, 63, 83)])
def test_delta2_frontier_certified_via_the_bridge(tmp_path, capsys, q, rect, r, k, singleton):
    """The GF(8) and GF(9) rectangle codes: d(C^perp) by information sets,
    the (r, 2) table from the dual words of weight <= r + 1, both bounds attained."""
    path = str(tmp_path / "f.code")
    assert run("construct", f"affine:q={q},n1={q},n2={q},delta=rect:{rect}", "-o", path) == 0
    capsys.readouterr()
    assert run("verify", path, "--mode", "quantum", "--form", "euclidean",
               "-r", str(r), "-d", "2") == 0
    out = capsys.readouterr().out
    assert f"quantum [[{q * q},{k},2]]_{q}" in out
    assert f"verified via: bridge (dual distance {q})" in out
    assert f"bound quantum-singleton: lhs={singleton} rhs={singleton} (attained)" in out
    assert f"bound quantum-r-lrc: lhs={k} rhs={k} (attained)" in out
    assert "verdict: certified" in out


@pytest.mark.parametrize("q, family, r, k, d",
                         [(8, "rect:5,7", 6, 32, 3), (7, "step2:4,3", 5, 19, 4)])
def test_delta3_frontier_certified_via_the_bridge(tmp_path, capsys, q, family, r, k, d):
    """GF(8) rect:5,7 and GF(7) step2:4,3: the (r, 3) search over unions of
    the dual words of weight <= r + 2 certifies the claimed locality, and the
    quantum Singleton-like bound is attained."""
    path = str(tmp_path / "f.code")
    assert run("construct", f"affine:q={q},n1={q},n2={q},delta={family}", "-o", path) == 0
    assert f"claimed locality: ({r},3)\n" in capsys.readouterr().out
    assert run("verify", path, "--mode", "quantum", "--form", "euclidean",
               "-r", str(r), "-d", "3") == 0
    out = capsys.readouterr().out
    assert f"quantum [[{q * q},{k},{d}]]_{q}" in out
    assert "verified via: bridge" in out
    assert "optimality: optimal pure" in out
    singleton = q * q + 2
    assert f"bound quantum-singleton: lhs={singleton} rhs={singleton} (attained)" in out
    assert out.endswith("verdict: certified\n")


def test_full_rectangle_claims_nothing_and_verify_checks_r_delta_first(tmp_path, capsys):
    """The full 5 x 5 box would claim delta = 1: it is built bare, and both
    verifies refuse (5, 1) before any distance, its dual being the zero code."""
    path = str(tmp_path / "z.code")
    assert run("construct", "affine:q=5,n1=5,n2=5,delta=rect:4,4", "-o", path) == 0
    assert capsys.readouterr().out == f"wrote classical code: [25,25,1]_5 -> {path}\n"
    for mode in (["--mode", "quantum", "--form", "euclidean"], ["--mode", "classical"]):
        assert run("verify", path, *mode, "-r", "5", "-d", "1") == 3
        assert capsys.readouterr() == ("", "error: need r >= 1 and delta >= 2, got (5, 1)\n")


@pytest.mark.parametrize("r, rc, out, tail", [
    (6, 0, "verdict: certified\n",
     {"verdict": "certified", "certificate": {"r": 6, "delta": 2, "sets": {
         "1": [1, 2, 4, 7], "2": [1, 2, 4, 7], "3": [1, 3, 4, 6], "4": [1, 2, 4, 7],
         "5": [1, 2, 5, 6], "6": [1, 2, 5, 6], "7": [1, 2, 4, 7]}}}),
    (2, 1, "verdict: refuted (all sets of size <= 3 through coordinate 1 fail)\n",
     {"verdict": "refuted", "reason": "all sets of size <= 3 through coordinate 1 fail"}),
], ids=["certified", "refuted"])
def test_css_verify_output_is_pinned(tmp_path, capsys, r, rc, out, tail):
    """No benchmark op runs --form css, so its stdout, exit code and JSON
    report bytes (keys in order, no bounds key) are pinned here."""
    ham = tmp_path / "ham.code"
    assert run("construct", "hamming:m=3,q=2", "-o", str(ham)) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run("verify", str(ham), "--mode", "quantum", "--form", "css", "--pair", str(ham),
               "-r", str(r), "-d", "2", "--json", str(report)) == rc
    assert capsys.readouterr() == (out, "")
    expected = {"schema": 1, "mode": "quantum", "form": "css", "r": r, "delta": 2, "seed": 0}
    assert report.read_text() == json.dumps({**expected, **tail}, indent=2) + "\n"


def test_symplectic_distance_skip_output_is_pinned(tmp_path, capsys):
    """No benchmark op runs the stabilizer distance out of budget, so the
    construct and verify lines it prints are pinned here."""
    steane = tmp_path / "steane.code"
    assert run("construct", "steane", "-o", str(steane), "--budget", "5") == 0
    assert capsys.readouterr() == (
        f"wrote symplectic code: n=7 dim=6 -> {steane}\n"
        "stabilizer distance skipped (budget)\n"
        "claimed quantum: [[7,1,3]]_2\n", "")
    report = tmp_path / "report.json"
    assert run("verify", str(steane), "--mode", "quantum", "-r", "6", "-d", "2",
               "--budget", "7", "--json", str(report)) == 2
    assert capsys.readouterr() == (
        "stabilizer code [[7,1,?]]_2 (distance skipped: budget)\n"
        "verdict: inconclusive (budget 7 exhausted during set search)\n", "")
    assert json.loads(report.read_text()) == {
        "schema": 1, "mode": "quantum", "form": "symplectic", "r": 6, "delta": 2, "seed": 0,
        "bounds": [], "verdict": "inconclusive",
        "reason": "budget 7 exhausted during set search"}


@pytest.mark.parametrize("argv, message", [
    (["verify", "c.code", "--mode", "classical", "--form", "symplectic", "-r", "1", "-d", "2"],
     "--form applies to --mode quantum"),
    (["verify", "c.code", "-r", "1", "-d", "2", "--pair", "does-not-exist.code"],
     "--pair applies to --form css"),
    (["verify", "c.code", "--mode", "quantum", "--form", "euclidean", "-r", "1", "-d", "2",
      "--pair", "c.code"], "--pair applies to --form css"),
    (["construct", "steane", "--hermitian-dc", "-o", "out.code"],
     "--hermitian-dc applies to grs: descriptors"),
    (["construct", "hamming:m=3,q=2", "--hermitian-dc", "-o", "out.code"],
     "--hermitian-dc applies to grs: descriptors"),
], ids=["form-in-classical-mode", "pair-in-classical-mode", "pair-without-css",
        "hermitian-dc-steane", "hermitian-dc-hamming"])
def test_option_outside_its_scope_exits_3(tmp_path, capsys, monkeypatch, argv, message):
    """An option that the requested path would never read is refused, not ignored."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.code").write_text(HAM_FILE)
    assert run(*argv) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out.code").exists()


TERNARY_7_4_FILE = ("q=3 p=3 m=1 poly=3\nn=7 k=4\n1 0 0 0 1 1 2\n0 1 0 0 2 2 0\n"
                    "0 0 1 0 1 2 1\n0 0 0 1 2 0 1\n")


@pytest.mark.parametrize("pair", [("h2", "g3"), ("g3", "h2"), ("h2", "h15")],
                         ids=["gf2-gf3", "gf3-gf2", "length-7-15"])
def test_css_construct_across_fields_or_lengths_exits_3(tmp_path, capsys, monkeypatch, pair):
    """The pair is checked for one field and one length before any nesting
    test, which over the wrong field crashed or answered wrongly."""
    monkeypatch.chdir(tmp_path)
    assert run("construct", "hamming:m=3,q=2", "-o", "h2.code") == 0
    assert run("construct", "hamming:m=4,q=2", "-o", "h15.code") == 0
    (tmp_path / "g3.code").write_text(TERNARY_7_4_FILE)
    capsys.readouterr()
    assert run("construct", "css:@{}.code,@{}.code".format(*pair), "-o", "out.code") == 3
    assert capsys.readouterr() == ("", "error: pair must share field and length\n")
    assert not (tmp_path / "out.code").exists()


@pytest.mark.parametrize("text, argv", [
    ("q=2 p=2 m=1 poly=2\nn=2 k=1\n1 1\n", []),
    ("q=2 p=2 m=1 poly=2\nlayout=symplectic n=2\nn=4 k=1\n1 0 0 0\n", ["--mode", "quantum"]),
], ids=["classical", "symplectic"])
def test_code_shorter_than_delta_is_refuted_for_its_length(tmp_path, capsys, text, argv):
    """No set of delta coordinates exists when n < delta, whatever r is."""
    (tmp_path / "c.code").write_text(text)
    assert run("verify", str(tmp_path / "c.code"), *argv, "-r", "1", "-d", "3") == 1
    out, err = capsys.readouterr()
    assert out.endswith("verdict: refuted (n=2 below the minimum set size delta=3)\n")
    assert err == ""


@pytest.mark.parametrize("text, argv", [
    ("q=2 p=2 m=1 poly=2\nn=3 k=0\n", ["--kind", "ghw"]),
    ("q=2 p=2 m=1 poly=2\nlayout=symplectic n=3\nn=6 k=0\n", ["--kind", "gsw"]),
    ("q=2 p=2 m=1 poly=2\nn=2 k=2\n1 0\n0 1\n", ["--kind", "ghw", "--dual"]),
    ("q=2 p=2 m=1 poly=2\nlayout=symplectic n=1\nn=2 k=2\n1 0\n0 1\n", ["--kind", "gsw", "--dual"]),
    ("q=2 p=2 m=1 poly=2\nn=3 k=0\n", ["--kind", "ghw", "--t-max", "1"]),
], ids=["ghw", "gsw", "ghw-dual-of-full", "gsw-dual-of-full", "ghw-with-t-max"])
def test_weights_of_a_zero_code_exit_3(tmp_path, capsys, text, argv):
    (tmp_path / "c.code").write_text(text)
    assert run("weights", str(tmp_path / "c.code"), *argv) == 3
    assert capsys.readouterr() == ("", "error: the zero code has no weight hierarchy\n")


@pytest.mark.parametrize("delta, k", [("rect:4,3", 15), ("step2:3,1", 11), ("step2s:3,1", 11)])
def test_gf5_families_certify_their_claimed_locality(tmp_path, capsys, delta, k):
    """The 5 x 5 grid codes of the rectangle along the second axis and of
    both stepped sets: the claimed (4, 2) is certified through the bridge,
    and both quantum bounds are attained."""
    path = str(tmp_path / "f.code")
    assert run("construct", f"affine:q=5,n1=5,n2=5,delta={delta}", "-o", path) == 0
    assert "claimed locality: (4,2)\n" in capsys.readouterr().out
    assert run("verify", path, "--mode", "quantum", "--form", "euclidean",
               "-r", "4", "-d", "2") == 0
    out = capsys.readouterr().out
    assert "verified via: bridge" in out
    assert "bound quantum-singleton: lhs=27 rhs=27 (attained)" in out
    assert f"bound quantum-r-lrc: lhs={k} rhs={k} (attained)" in out
    assert out.endswith("verdict: certified\n")


def test_custom_delta_file_builds_the_bare_set(tmp_path, capsys):
    """A custom exponent file gives the code of those monomials and no claims."""
    pairs = tmp_path / "delta.txt"
    pairs.write_text("# the 4 x 5 rectangle\n" + "".join(
        f"{a} {b}\n" for a in range(4) for b in range(5)))
    custom, rect = str(tmp_path / "custom.code"), str(tmp_path / "rect.code")
    assert run("construct", f"affine:q=5,n1=5,n2=5,delta=custom:@{pairs}", "-o", custom) == 0
    assert "claimed" not in capsys.readouterr().out
    assert run("construct", "affine:q=5,n1=5,n2=5,delta=rect:3,4", "-o", rect) == 0
    assert load_code(custom) == load_code(rect)


E9_FILE = ("q=2 p=2 m=1 poly=2\nn=9 k=5\n1 0 0 0 0 0 0 0 1\n0 1 0 0 0 1 1 1 0\n"
           "0 0 1 0 0 1 0 1 0\n0 0 0 1 0 0 1 1 0\n0 0 0 0 1 1 1 0 0\n")
H7_FILE = "q=4 p=2 m=2 poly=7\nn=7 k=4\n1 0 0 0 0 3 3\n0 1 1 0 0 0 0\n0 0 0 1 0 1 2\n0 0 0 0 1 3 2\n"


@pytest.mark.parametrize("text, form, r, head", [
    (E9_FILE, "euclidean", "8", "carrier: euclidean dual-containing, quantum [[9,1,3]]_2\n"),
    (H7_FILE, "hermitian", "6", "carrier: hermitian dual-containing, quantum [[7,1,3]]_2\n"),
], ids=["euclidean-gf2", "hermitian-gf4"])
def test_impure_carrier_prints_its_distance_and_no_optimality(tmp_path, capsys, text, form, r,
                                                              head):
    """d(C) = d(C^perp) = 2, but every weight-2 word of C lies in C^perp, so
    Q(C) has d = 3 > d(C): impure, and no optimality label applies."""
    (tmp_path / "c.code").write_text(text)
    rep = tmp_path / "rep.json"
    assert run("verify", str(tmp_path / "c.code"), "--mode", "quantum", "--form", form,
               "-r", r, "-d", "2", "--json", str(rep)) == 0
    out = capsys.readouterr().out
    assert out.startswith(head + "purity: d(C minus dual)=3 = d(C)=2: False\n")
    assert "optimality: undefined (non-pure)\n" in out
    assert json.loads(rep.read_text())["purity"] == {
        "pure": False, "d_code": 2, "d_dual": 2, "d_quantum": 3}


def test_css_pair_under_another_degree_one_modulus_is_one_field(tmp_path, capsys, monkeypatch):
    """x + 1 and x are both moduli of GF(3): the files load as one field."""
    monkeypatch.chdir(tmp_path)
    assert run("construct", "hamming:m=3,q=3", "-o", "h.code") == 0
    text = (tmp_path / "h.code").read_text()
    (tmp_path / "hb.code").write_text(text.replace("poly=3", "poly=4", 1))
    assert load_code("hb.code") == load_code("h.code")
    assert dumps_code(load_code("hb.code")) == text
    capsys.readouterr()
    assert run("construct", "css:@h.code,@hb.code", "-o", "css.code") == 0
    assert "claimed quantum: [[13,7,3]]_3\n" in capsys.readouterr().out


def test_hamming_size_is_charged_to_the_budget_before_any_loop(tmp_path):
    """The 2^100 - 1 columns of m = 100 once exhausted memory; the k * n
    generator entries are charged first, so it exits 2 at once."""
    proc = run_subprocess(tmp_path, ["construct", "hamming:m=100,q=2", "-o", "h.code"], 30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("inconclusive: the m=100 Hamming code over GF(2) has more generator "
                           "entries than budget 67108864\n")
    assert run("construct", "hamming:m=3,q=2", "-o", str(tmp_path / "h.code"),
               "--budget", "27") == 2          # [7,4]: 28 entries
    assert run("construct", "hamming:m=3,q=2", "-o", str(tmp_path / "h.code"),
               "--budget", "28") == 0


@pytest.mark.parametrize("argv, lines", [
    # C(9,3) erasure sets exceed the budget; d(C) = 2 needs only C(9,2)
    (["construct", "css:@e9.code,@e9.code", "--budget", "50"],
     ["stabilizer distance skipped (budget)", "claimed quantum: [[9,1,>=2]]_2"]),
    (["construct", "affine:q=5,n1=5,n2=5,delta=rect:3,4", "--budget", "3"],
     ["wrote classical code: [25,20,?]_5 -> out.code", "claimed locality: (4,2)",
      "claimed quantum: [[25,15,2]]_5"]),
    # no family claims a rectangle of exponent 0: the bare set, no claims
    (["construct", "affine:q=5,n1=5,n2=5,delta=rect:0,0"],
     ["wrote classical code: [25,1,25]_5 -> out.code"]),
], ids=["css-distance-over-budget", "distance-over-budget", "unclaimed-rectangle"])
def test_construct_reports_what_it_could_not_measure(tmp_path, capsys, monkeypatch, argv, lines):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e9.code").write_text(E9_FILE)
    assert run(*argv, "-o", "out.code") == 0
    assert capsys.readouterr().out.splitlines()[-len(lines):] == lines


def test_verify_of_a_code_neither_dual_containing_nor_self_orthogonal_exits_3(tmp_path, capsys):
    (tmp_path / "c.code").write_text("q=2 p=2 m=1 poly=2\nn=3 k=1\n1 0 0\n")
    assert run("verify", str(tmp_path / "c.code"), "--mode", "quantum", "-r", "1", "-d", "2") == 3
    assert capsys.readouterr() == (
        "", "error: code is neither euclidean dual-containing nor self-orthogonal\n")


_VALUE = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(
    ["", "x", "1.5", "0x3", "symplectic", "=", "4096", "1048577", "9" * 5000]))
_TOKEN = st.one_of(_VALUE, st.tuples(st.sampled_from(["q", "p", "m", "poly", "n", "k", "layout"]),
                                     _VALUE).map("=".join))
_VALID_FILES = [dumps_code(c) for c in (
    LinearCode.from_rows(GF(2), [[1, 0, 0, 1, 1], [0, 1, 0, 1, 0]]),
    LinearCode.from_rows(GF(2, 2), [[1, 2, 3]]), LinearCode.from_rows(GF(3, 2), [[1, 5, 8, 0]]),
    LinearCode.zero(GF(5), 3), SymplecticCode.from_rows(GF(3), [[1, 0, 2, 1]]))]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loads_code_raises_only_qlrc_errors(data):
    """A valid code file after up to four random edits (a token replaced, a
    line dropped, repeated or inserted) loads, or raises a QlrcError (exit 3
    on the CLI), never another exception."""
    lines = data.draw(st.sampled_from(_VALID_FILES)).splitlines()
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, len(lines)))
        edit = data.draw(st.sampled_from(["token", "drop", "repeat", "insert"]))
        if edit == "insert" or i == len(lines):
            lines.insert(i, " ".join(data.draw(st.lists(_TOKEN, max_size=4))))
        elif edit == "token":
            tokens = lines[i].split() or [""]
            tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(_TOKEN)
            lines[i] = " ".join(tokens)
        else:
            lines[i:i + 1] = [lines[i]] * (2 if edit == "repeat" else 0)
    try:
        code = loads_code("\n".join(lines))
    except QlrcError:
        return
    assert isinstance(code, (LinearCode, SymplecticCode))
