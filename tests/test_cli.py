import hashlib
import json
import time

import pytest

from liouville_lab.cli import run


@pytest.fixture
def capture(capsys):
    def _run(argv):
        code = run(argv)
        out = capsys.readouterr().out
        return code, out
    return _run


REMARK_O0 = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
REMARK_O1 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


@pytest.fixture
def remark_files(tmp_path):
    p0 = tmp_path / "o0.json"
    p1 = tmp_path / "o1.json"
    p0.write_text(json.dumps(REMARK_O0))
    p1.write_text(json.dumps(REMARK_O1))
    return str(p0), str(p1)


def test_cotame_remark_pair(capture, remark_files):
    p0, p1 = remark_files
    code, out = capture(["cotame", "--omega0", p0, "--omega1", p1, "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "liouville-lab/1"
    assert rep["verdict"] == "pass"
    assert "J" in rep["detail"]
    assert min(rep["detail"]["taming_margins"]) > 0


def test_cotame_negative_pair(capture, tmp_path):
    p0 = tmp_path / "o0.json"
    p1 = tmp_path / "o1.json"
    p0.write_text(json.dumps(REMARK_O0))
    p1.write_text(json.dumps([[-x for x in row] for row in REMARK_O0]))
    code, out = capture(["cotame", "--omega0", str(p0), "--omega1", str(p1),
                         "--json"])
    assert code == 1
    assert json.loads(out)["detail"]["cotamed_exists"] is False


def test_pencil_reduce(capture, remark_files):
    p0, p1 = remark_files
    code, out = capture(["pencil-reduce", "--omega0", p0, "--omega1", p1,
                         "--json"])
    assert code == 0
    blocks = json.loads(out)["detail"]["blocks"]
    assert blocks == [{"type": "complex", "mu": 0.0, "nu": 1.0, "chain": 1}]


def test_verify_pair_exact(capture):
    code, out = capture(["verify-pair", "--preset", "totreal:2", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "positive"
    assert rep["certificate"] == "positive-exact"


def test_verify_contact(capture):
    code, out = capture(["verify-contact", "--preset", "totreal:2", "--json"])
    assert code == 0
    assert json.loads(out)["detail"]["top_coefficient"] == {"num": 2, "den": 1}
    code, out = capture(["verify-contact", "--preset", "totreal:2",
                         "--form", "alpha_minus", "--json"])
    assert code == 1  # negative volume for the minus form


def test_verify_contact_liouville_volume(capture):
    code, out = capture(["verify-contact", "--preset", "aff_c",
                         "--form", "liouville", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["detail"]["checked"] == "liouville-volume"
    assert rep["detail"]["top_coefficient"] == {"num": 2, "den": 1}


def test_numfield_pipeline(capture):
    code, out = capture(["numfield", "--poly", "-2,0,1", "--monodromy",
                         "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["detail"]["monodromy"] == [[[3, 4], [2, 3]]]
    assert rep["detail"]["liouville_certificate"] == "positive-exact"
    assert rep["detail"]["units"]["positive_generators"] == [[3, 2]]


def test_giroux_torsion(capture):
    code, out = capture(["giroux-torsion", "--pair", "totreal:1", "--k", "2",
                         "--grid", "64", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["detail"]["min_value"] > 0
    assert "orientation" in rep


def test_reeb(capture):
    code, out = capture(["reeb", "--pair", "sol:2,1,1,1", "--s", "1.5707963",
                         "--json"])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["detail"]["u"] - 1.0) < 1e-6
    assert rep["detail"]["residual_closure"] <= 1e-8


def test_lutz_check(capture):
    code, out = capture(["lutz-check", "--pair", "sol:2,1,1,1", "--k", "2",
                         "--tau", "0.5", "--grid", "64", "--json"])
    assert code == 0
    assert json.loads(out)["detail"]["max_relative_error"] <= 1e-8


def test_cutoff_search(capture):
    code, out = capture(["cutoff", "--pair", "sol:2,1,1,1", "--grid", "64",
                         "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["detail"]["refined_min"] > 0


def test_cutoff_fixed_constant(capture):
    code, out = capture(["cutoff", "--pair", "sol:2,1,1,1", "--c", "2.0",
                         "--grid", "64", "--json"])
    assert code == 0
    assert json.loads(out)["detail"]["min_value"] > 0


def test_pencil_reduce_flags_chains(capture, tmp_path):
    import numpy as np
    from liouville_lab import symplin as sl
    a0m, a1m = sl._model_with_chain_eps([sl.RealBlock(2.0, 2)], 1e-3)
    rng = np.random.default_rng(1)
    p = rng.standard_normal((4, 4))
    p0 = tmp_path / "c0.json"
    p1 = tmp_path / "c1.json"
    p0.write_text(json.dumps((p.T @ a0m @ p).tolist()))
    p1.write_text(json.dumps((p.T @ a1m @ p).tolist()))
    code, out = capture(["pencil-reduce", "--omega0", str(p0),
                         "--omega1", str(p1), "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["detail"]["experimental_chains"] is True


def test_geiges(capture):
    code, out = capture(["geiges", "--n", "4", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["detail"]["geiges_pair"] is True
    assert rep["detail"]["isomorphism_residual"] <= 1e-10
    assert rep["detail"]["traces"] == [0, 0, 0]


def test_suite_subcommand(capture):
    code, out = capture(["suite", "--name", "cayley", "--trials", "10",
                         "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["detail"]["mismatches"] == 0
    assert rep["detail"]["seeds"] == [0]


def test_reports_are_byte_identical(capture):
    args = ["numfield", "--poly", "-2,0,1", "--json"]
    _, out1 = capture(args)
    _, out2 = capture(args)
    assert out1 == out2
    args = ["suite", "--name", "cocompatible", "--trials", "20", "--json",
            "--seed", "3"]
    _, out1 = capture(args)
    _, out2 = capture(args)
    assert out1 == out2


# sha256 of default --json reports of exact commands, pinned before the
# d-of-a-blade table replaced the unit-Form construction of d; the geiges
# command is left out because its residual comes from a float eigensolver
GOLDEN_REPORTS = [
    ("verify-pair totreal:1",
     "b2acd25baffaffd791681dab01f1e26e275812ca70eb657b99e76c57509d74ef"),
    ("verify-pair totreal:2",
     "7ca032488c76aff10202a2c027ad1053abd544447cf3b807f5b3798d81796a4f"),
    ("verify-pair totreal:3",
     "6cd629cffb1e289b3534354a7e4c5d8b1165b9b44613308d8831e634c5262839"),
    ("verify-pair totreal:4",
     "ea4999fcddde81fdf3088b6835c27a169787d526d7e076e7bb8206f93fe8bc94"),
    ("verify-pair totreal:5",
     "81d642208ac473ff20689f1db3f779da5ef665c0a8d39b0f72022b7d80f48fca"),
    ("verify-pair grs1:2,0",
     "02bbddc78a668cf7bd311fc85a6c3dcb550799e3b5351574dc0301e7bcbb0bdc"),
    ("verify-pair grs1:3,0",
     "d9d18b9d5c21e598daa5e4c4b08268b59bd9d40ec5fe230dafd797ee476683bd"),
    ("verify-pair grs1:4,0",
     "5494405060bfb1891d721e2ecac383962d70500aea87ce0ee17b008a0169b231"),
    ("verify-pair geiges:3",
     "281e95b5e60485a7b04786a80a4f02231243e5aef683a851bc1da93b8e01b7da"),
    ("verify-pair geiges:4",
     "b977842c19c44685140751735ec90c3aeb26b3b98409e264031b6b17939dabe8"),
    ("verify-pair geiges:5",
     "1d5833b275e7adaae6567d01be71e4161edd4e6dd8cf2e439fb6d2d7303757cb"),
    ("verify-pair sol:2,1,1,1",
     "94fe360dab3a99a0a2b5ad486797a7abaca296ae8401e6b54d2142e540272e03"),
    ("verify-pair sol:3,2,1,1",
     "d569dd90026d1bbf58604d04766530d6661bbe61110a56dc914c55b3d248b4a1"),
    ("verify-contact totreal:3 alpha_plus",
     "6d670c2e4d38bb4316898c61dfecb45daa49068279dd37c7fb40ce89ce469c61"),
    ("verify-contact aff_c liouville",
     "199f2c0a95f48bc089c002d01c4f2d663e8513908bf901ed6d5a9ceab0252f1c"),
]


@pytest.mark.parametrize("case, digest", GOLDEN_REPORTS)
def test_exact_reports_match_golden_bytes(capture, case, digest):
    command, preset, *form = case.split()
    argv = [command, "--preset", preset, "--json"]
    code, out = capture(argv + (["--form", *form] if form else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_numfield_torsion_from_the_main_unit_search(capture):
    # X^4 + 3 is totally complex and its free unit -2 - 2X - X^2 lies
    # outside |coords| <= 1; a second torsion search in that box once
    # ended in "unit rank 0 below Dirichlet rank 1"
    from liouville_lab._poly import int_det

    code, out = capture(["numfield", "--poly", "3,0,0,0,1", "--box", "2",
                         "--monodromy", "--json"])
    assert code == 0
    detail = json.loads(out)["detail"]
    assert detail["units"]["rank"] == 1
    assert detail["units"]["torsion_order"] == 2
    assert detail["lattice_rank"] == 3
    assert all(int_det(m) == 1 for m in detail["monodromy"])


@pytest.mark.parametrize("poly", ["2,0,-4,0,1", "4,0,-6,0,1", "3,0,-6,0,1"])
def test_numfield_rank_filter_takes_the_span(capture, poly):
    # totally real quartics whose shortest units have dependent logs: a
    # filter that projected onto each chosen log in turn kept a third
    # generator of log rank 2 and the lattice check raised ArithmeticError
    from liouville_lab._poly import int_det

    code, out = capture(["numfield", "--poly", poly, "--monodromy", "--json"])
    assert code == 0
    detail = json.loads(out)["detail"]
    assert detail["units"]["rank"] == 3
    assert detail["lattice_rank"] == 3
    assert len(detail["monodromy"]) == 3
    assert all(int_det(m) == 1 for m in detail["monodromy"])


def test_seed_is_recorded(capture):
    code, out = capture(["suite", "--name", "interpolation", "--trials", "5",
                         "--seed", "7", "--json"])
    assert code == 0
    assert json.loads(out)["detail"]["seeds"] == [7]


def test_every_command_reports_its_seed(capture):
    base = ["giroux-torsion", "--pair", "sol:2,1,1,1", "--grid", "64",
            "--json"]
    code, out = capture(base + ["--seed", "5"])
    assert code == 0
    assert json.loads(out)["seed"] == 5
    _, default = capture(base)
    _, zero = capture(base + ["--seed", "0"])
    assert json.loads(default)["seed"] == 0 and default == zero


def test_threads_flag_is_gone(capture):
    assert run(["giroux-torsion", "--pair", "sol:2,1,1,1",
                "--threads", "2"]) == 2


def test_usage_errors_exit_2(capture):
    assert run(["not-a-command"]) == 2
    assert run(["verify-pair"]) == 2                   # missing flag
    assert run(["verify-pair", "--preset", "grs1:0,1"]) == 2  # no pair
    assert run(["numfield", "--poly", "1,2,3"]) == 2   # not monic
    assert run(["suite", "--name", "wrong"]) == 2


def test_human_readable_output(capture):
    code, out = capture(["verify-pair", "--preset", "totreal:2"])
    assert code == 0
    assert "verdict: positive" in out


def test_timing_flag_adds_elapsed(capture):
    code, out = capture(["verify-pair", "--preset", "totreal:2", "--json",
                         "--timing"])
    assert code == 0
    assert "elapsed_ms" in json.loads(out)


def test_pencil_reduce_thirteen_digit_eigenvalue(capture):
    # the rational-root search once enumerated divisors of the constant
    # term and ran for more than 30 s on this pencil
    prime = 1000000000039
    omega1 = json.dumps([[0, str(prime)], [str(-prime), 0]])
    t0 = time.perf_counter()
    code, out = capture(["pencil-reduce", "--omega0", "[[0, 1], [-1, 0]]",
                         "--omega1", omega1, "--json"])
    assert time.perf_counter() - t0 < 2.0
    assert code == 0
    rep = json.loads(out)
    assert rep["certificate"] == "exact"
    assert rep["detail"]["blocks"] == [
        {"type": "real", "lambda": float(prime), "chain": 1}]
