import hashlib
import json
import random
import time
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liouville_lab import _poly
from liouville_lab import symplin as sl
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
    rep = json.loads(out)
    assert rep["detail"]["blocks"] == [
        {"type": "complex", "mu": 0.0, "nu": 1.0, "chain": 1}]
    # rational input, but the spectrum +-i is not rational: reduced in floats
    assert rep["certificate"] == "grid"


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
    a0m, a1m = sl._model_matrices([sl.RealBlock(2.0, 2)], 1e-3)
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


def test_pencil_reduce_labels_a_rational_jordan_pencil_grid(capture):
    ms = sl._model_matrices([sl.RealBlock(Q(2), 2)], eps=1)
    o0, o1 = (json.dumps([[str(Q(x)) for x in row] for row in m.tolist()])
              for m in ms)
    code, out = capture(["pencil-reduce", "--omega0", o0, "--omega1", o1,
                         "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["certificate"] == "grid"
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


# suite seeds at which the former sampler, which retried Cayley draws
# scaled in the Euclidean norm, gave up with RuntimeError
@pytest.mark.parametrize("name, trials, seed",
                         [("cayley", 200, 600), ("interpolation", 100, 24)])
def test_sampler_suites_finish_where_the_retrying_sampler_gave_up(
        capture, name, trials, seed):
    code, out = capture(["suite", "--name", name, "--trials", str(trials),
                         "--seed", str(seed), "--json"])
    assert code == 0
    assert json.loads(out)["detail"]["mismatches"] == 0


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


# sha256 of the numfield and geiges reports, default and --json, pinned
# before `run` became their one emit path; the geiges residual comes from a
# float eigensolver, so its digests hold for one LAPACK build
GOLDEN_NUMFIELD_GEIGES_REPORTS = [
    ("numfield --poly -2,0,1",
     "b7fc3e9afef3ee05888aa91422adc857b15c461e865ac1c0f329e2a141e11c21"),
    ("numfield --poly -2,0,1 --json",
     "4764a4f2da897b55710852debed2f1989ac2fedbb7a1f4b9abeb82bd56d0d026"),
    ("numfield --poly -2,0,1 --monodromy",
     "114a7458ed948594ac2631fea2f5f2b1862a07fd1a0a8aafee1a4ea4ae1835b7"),
    ("numfield --poly -2,0,1 --monodromy --json",
     "eda238055af0409f08713df27de38cbffe8eea9fdccc166139c24635bf561d46"),
    ("numfield --poly 1,0,1",
     "21a5cac889deab18259bd842899c961135771260dcbabc8cc073b5ac42a85acf"),
    ("numfield --poly 1,0,1 --json",
     "a949af48617c2de34d0e16b9b77220339e3beb5d8366a46b38ab8450a4c285f6"),
    ("numfield --poly -2,0,0,1",
     "38ea5dedaa882e537d8d577e0f9d9e109811ea5e834d6a872be5d4a62e2426ab"),
    ("numfield --poly -2,0,0,1 --json",
     "e1ab9a59792db0b0ecafedeee332eae4be39c56ac98cf9569b56270c2fd22700"),
    ("numfield --poly 3,0,0,0,1 --box 2",
     "0b484674925ff2eeee2ffb9260fca617e00fae0ffc712503e5c509a3651c7a4c"),
    ("numfield --poly 3,0,0,0,1 --box 2 --json",
     "c731fbcaa41b3392ed553b2bbe3855929d7a247341eb33491510f3303e931473"),
    ("geiges --n 1",
     "a0857f7366349beda438cba6f35335271805ccd4b6443470b9c51858cc3d04d6"),
    ("geiges --n 1 --json",
     "587d8f078cd74e1c95250f6140d7fde63ad41776a64b5e030d7e7846a552f698"),
    ("geiges --n 2",
     "e6addfd455fc03b9e7f31b802feed14421073e66aba5fc0ff0da13a1b8141a90"),
    ("geiges --n 2 --json",
     "32a1f71bdb360f9a86480dd3b80cdc8c30a45c2d1856eea2ee0f6adc0d91e3ae"),
    ("geiges --n 3",
     "4ea28dc8dd58c79fe7f52bc7b0fa4d98342d6a924fecc6096e0687ca1edf1c2e"),
    ("geiges --n 3 --json",
     "80c7fdbef6a722ddb504022ff4fd4977920b3edab231d3cc8978f4d3e8b76a57"),
    ("geiges --n 4",
     "552793e128c88ee74dc70e61735a3e9895b4da894093ffae30094f50aaa27aa8"),
    ("geiges --n 4 --json",
     "30b89b6c302f515df185ff17f88b950143e1ed4ebeb3857f100a780939367869"),
    ("geiges --n 5",
     "7fdb31f3c99a86deea7df645912501171c1685934445409ebb337af5228d52de"),
    ("geiges --n 5 --json",
     "d16f4d2e053006ebb1459be9d61676550ba7c88b0e9a42bf947a72fd6176f9d7"),
]


@pytest.mark.parametrize("case, digest", GOLDEN_NUMFIELD_GEIGES_REPORTS)
def test_numfield_and_geiges_reports_match_golden_bytes(capture, case,
                                                        digest):
    code, out = capture(case.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def grouped_model(real, complex_pairs=()):
    """Exact model pair in the grouped layout: one (v, w) pair per real
    eigenvalue, then (v1, v2, w1, w2) per complex pair (mu, nu)."""
    size = 2 * len(real) + 4 * len(complex_pairs)
    a0 = [[Q(0)] * size for _ in range(size)]
    a1 = [[Q(0)] * size for _ in range(size)]
    at = 0
    for lam in real:
        a0[at][at + 1], a0[at + 1][at] = Q(1), Q(-1)
        a1[at][at + 1], a1[at + 1][at] = Q(lam), -Q(lam)
        at += 2
    for mu, nu in complex_pairs:
        rot = ((mu, nu), (-nu, mu))
        for i in range(2):
            a0[at + i][at + 2 + i], a0[at + 2 + i][at + i] = Q(1), Q(-1)
            for j in range(2):
                a1[at + i][at + 2 + j] = Q(rot[i][j])
                a1[at + 2 + j][at + i] = -Q(rot[i][j])
        at += 4
    return a0, a1


def congruence(p, m):
    """P^T M P, exactly."""
    n = len(p)
    mp = [[sum(m[i][k] * p[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(p[k][i] * mp[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def rational_pencil(seed, real, complex_pairs=()):
    """Inline JSON of an integer congruence of the grouped model pair."""
    a0, a1 = grouped_model(real, complex_pairs)
    rng = random.Random(seed)
    while True:
        p = [[rng.randint(-2, 2) for _ in a0] for _ in a0]
        if _poly.frac_det(p) != 0:
            break
    return [json.dumps([[str(x) for x in row] for row in congruence(p, m)])
            for m in (a0, a1)]


def float_pencil(seed, blocks):
    """Inline JSON of a float congruence P^T M P of a grouped model pair, P
    standard normal from the seed; ("real", lam, m) is a chain of length m
    with couplings w1(v_i, w_(i+1)) = 1e-3 (the default eps), and
    ("complex", mu, nu) one 4x4 block."""
    size = sum(2 * b[2] if b[0] == "real" else 4 for b in blocks)
    a0 = np.zeros((size, size))
    a1 = np.zeros((size, size))
    at = 0
    for kind, x, y in blocks:
        if kind == "real":
            for i in range(y):
                a0[at + i, at + y + i] = 1.0
                a1[at + i, at + y + i] = x
                if i + 1 < y:
                    a1[at + i, at + y + i + 1] = 1e-3
            at += 2 * y
        else:
            a0[at:at + 2, at + 2:at + 4] = np.eye(2)
            a1[at:at + 2, at + 2:at + 4] = [[x, y], [-y, x]]
            at += 4
    p = np.random.default_rng(seed).standard_normal((size, size))
    out = []
    for m in (a0, a1):
        m = p.T @ (m - m.T) @ p
        out.append(json.dumps(((m - m.T) / 2).tolist()))
    return out


# sha256 of default --json reports of pencil-reduce and cotame, pinned
# before the exact pencil path moved to Hessenberg charpolys, row-vector
# congruences and the elimination Pfaffian; the matrices are passed inline
# so that no temporary path enters the report
PENCILS = {
    "real4": rational_pencil(1, [Q(1, 2), 3]),
    "real6": rational_pencil(2, [2, 2, Q(1, 3)]),
    "real8": rational_pencil(3, [Q(1, 2), 3, Q(5, 3), Q(7, 4)]),
    "complex4": rational_pencil(4, [], [(Q(1, 2), Q(3, 2))]),
    "negative4": rational_pencil(5, [-2, 3]),
    "prime": ["[[0, 1], [-1, 0]]",
              "[[0, 1000000000039], [-1000000000039, 0]]"],
    # float pencils, pinned before real and complex blocks shared one
    # chain extractor, pairing solve, model builder and J builder
    "float-real6": float_pencil(1, [("real", 0.5, 1), ("real", 1.5, 1),
                                    ("real", 3.0, 1)]),
    "float-complex8": float_pencil(2, [("real", 2.0, 1),
                                       ("complex", -0.5, 1.25),
                                       ("complex", 1.0, 0.75)]),
    "float-chain4": float_pencil(3, [("real", 2.0, 2)]),
    "float-mixed8": float_pencil(4, [("real", 3.0, 2),
                                     ("complex", -1.0, 1.5)]),
    "float-negative4": float_pencil(5, [("real", -2.0, 1), ("real", 3.0, 1)]),
}
GOLDEN_PENCIL_REPORTS = [
    ("pencil-reduce real4", 0,
     "462ec48c4e3e85ae9429d136cd3000e2b0fdbb13d3bbe5a8c543da0810fda93d"),
    ("cotame real4", 0,
     "2880c2a82d9af5467dfa1a4af4a76f0ca11be215a8c28367ba094c686d272b20"),
    ("pencil-reduce real6", 0,
     "3c0761ddee649340b0a364798ec5be1265858fb6c49129cf12d3b131641ba66c"),
    ("cotame real6", 0,
     "0d46a2f026b9a76297e98794081ac3bec39e8bc3a651f673252aed265080d878"),
    ("pencil-reduce real8", 0,
     "ddc8eefb9df90c49c63326f18ebd3a746fb2210a6a78152639c7bc132390ba53"),
    ("cotame real8", 0,
     "c811f047eb122c88d9ca8796c1bc8325b318661723cac2438093a5beb42ece0c"),
    # a rational pencil with an irrational spectrum: reduced in floats,
    # so labelled "grid"
    ("pencil-reduce complex4", 0,
     "cade843a37ab3f53292235d71810fcf9157e6bca7a5b75228a6a45c1e3574dc4"),
    ("cotame complex4", 0,
     "04c8e0c59cd47508e2e223fe92be8c373922419992fb39feeaf65cf560404f82"),
    ("pencil-reduce negative4", 0,
     "495b5b51e67ba274baac2afc32118452230acbbeb12a5c0eea6cccc8ed0a3b3c"),
    ("cotame negative4", 1,
     "0663f6a04bbda85be99c79f328f93aa4a4cac17bf8c7e37fa6553af3ef6e7bc2"),
    ("pencil-reduce prime", 0,
     "6c13ff6071edb344e349cb21759277a4b6edaaa07131a071059a52cd15fe8bc5"),
    ("cotame prime", 0,
     "9c76ae30173a4b0dfe8147beffe534981bce331b93ae8945e724e54bc8f4f31e"),
    # the float cotame reports are labelled "numeric" (they were
    # "randomized", though the float path draws nothing)
    ("pencil-reduce float-real6", 0,
     "86c95ec5778a68c206dc2159f1c8d766801170a76893e0868b58f74f3832fa07"),
    ("cotame float-real6", 0,
     "8f5065e60e6f760600b56cb9c9914020e4591442b4701611cfd66ff41c021778"),
    ("pencil-reduce float-complex8", 0,
     "de4326addf7076d1e5fd21579870ab68225650c974d21177475b4f8073871941"),
    ("cotame float-complex8", 0,
     "95bdf7305f153d9fb7c2382eb45215cff0f2e1ec768198c9243f95eb2d5ce7dd"),
    ("pencil-reduce float-chain4", 0,
     "0e3162891e695b2891f5be4632b123fad668275f13f4b378cf1b2e21ed176243"),
    ("cotame float-chain4", 0,
     "001dbe81cddf51b548257c59c890827d71919ce0c4b51d63368b803688a36156"),
    ("pencil-reduce float-mixed8", 0,
     "e075589e876f44b337842222c1139f7510b9eddbff57558cbe6cf15c8efca984"),
    ("cotame float-mixed8", 0,
     "d3c5075dd943947195e73aa7befad27fbdf331a42865d24255c62e814b29ab34"),
    ("pencil-reduce float-negative4", 0,
     "f20f65e1c99f90cbc8c6bd764bf73453a72e1b33609d33a79fe29641c5da1f91"),
    ("cotame float-negative4", 1,
     "44d33033ad6182636e904ceb786cf07edd2019c9dd54d3866497df116f8feff6"),
    ("suite appendix-equivalence", 0,
     "d088b03d82957a94c11750d2e55b857ad48cade934f91e80325da666d4c73589"),
]


@pytest.mark.parametrize("case, exit_code, digest", GOLDEN_PENCIL_REPORTS)
def test_pencil_reports_match_golden_bytes(capture, case, exit_code, digest):
    command, name = case.split()
    if command == "suite":
        argv = [command, "--name", name, "--dims", "4,6,8,10"]
    else:
        o0, o1 = PENCILS[name]
        argv = [command, "--omega0", o0, "--omega1", o1]
    code, out = capture(argv + ["--json"])
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


RATIONAL_EIGENVALUES = [Q(1, 2), Q(2, 3), Q(1), Q(5, 4), Q(2), Q(7, 3),
                        Q(3), Q(-1, 2), Q(-2)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_reduce_then_reassemble_round_trip(data):
    # rational pencils with rational spectrum (repeats allowed) take the
    # exact path; its basis entries are rationals of small denominator, so
    # the exact basis is recovered from the reported floats and transports
    # w0 onto the block model exactly and w1 within omega1_residual
    real = data.draw(st.lists(st.sampled_from(RATIONAL_EIGENVALUES),
                              min_size=1, max_size=4))
    n = 2 * len(real)
    p = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                    max_size=n), min_size=n, max_size=n))
    assume(_poly.frac_det(p) != 0)
    m0, m1 = grouped_model(real)
    a0, a1 = sl.SkewForm(congruence(p, m0)), sl.SkewForm(congruence(p, m1))
    red = sl.simultaneous_reduce(a0, a1)
    assert red.eps == 0.0 and red.omega0_residual == 0.0
    assert sorted(b.eigenvalue for b in red.blocks) == sorted(real)
    basis = [[Q(float(x)).limit_denominator(10 ** 6) for x in row]
             for row in red.basis]
    assert all(float(x) == y for row, frow in zip(basis, red.basis)
               for x, y in zip(row, frow))
    model0, model1 = grouped_model([b.eigenvalue for b in red.blocks])
    assert congruence(basis, a0.matrix) == model0
    t1 = congruence(basis, a1.matrix)
    assert max(abs(float(x - y)) for r, s in zip(t1, model1)
               for x, y in zip(r, s)) <= red.omega1_residual


@st.composite
def chain_pencils(draw):
    """(seed, blocks) for `float_pencil`: up to two real chains of length 1
    or 2 at distinct eigenvalues and one complex block, in any order."""
    lams = draw(st.lists(st.sampled_from([-2.0, -0.5, 0.5, 1.5, 3.0]),
                         max_size=2, unique=True))
    blocks = [("real", lam, draw(st.integers(1, 2))) for lam in lams]
    blocks.insert(draw(st.integers(0, len(blocks))),
                  ("complex", draw(st.sampled_from([-1.0, 0.5, 1.0])),
                   draw(st.sampled_from([0.75, 1.25, 1.5]))))
    return draw(st.integers(0, 2 ** 16)), blocks


@settings(derandomize=True, max_examples=100, deadline=None)
@given(chain_pencils())
def test_float_chain_pencils_reassemble_from_their_reduction(drawn):
    seed, blocks = drawn
    a0, a1 = (np.array(json.loads(m)) for m in float_pencil(seed, blocks))
    red = sl.simultaneous_reduce(sl.SkewForm(a0), sl.SkewForm(a1), 1e-3)
    assert red.omega0_residual <= sl.OMEGA0_GATE
    assert red.omega1_residual <= sl.OMEGA1_GATE * red.eps
    assert sorted(b.chain_length for b in red.blocks
                  if isinstance(b, sl.RealBlock)) == \
        sorted(m for kind, _, m in blocks if kind == "real")
    # the model pair with its chain couplings, carried back by basis^-1,
    # is the input pair to the relative accuracy the reduction gates on
    inv = np.linalg.inv(red.basis)
    for a, model in zip((a0, a1), sl._model_matrices(red.blocks, red.eps)):
        err = np.max(np.abs(inv.T @ model @ inv - a)) / np.max(np.abs(a))
        assert err <= (sl.OMEGA0_GATE if a is a0 else 1e-6)


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


FLOAT_REMARK = [json.dumps([[float(x) for x in row] for row in m])
                for m in (REMARK_O0, REMARK_O1)]


# each of these once passed on vacuous sampling (5 samples from --grid -4,
# error 0.0 from --grid -5, one sample from --grid 0, "trials: -3"), searched
# an empty unit box (--box 0 and -3 reported "unit rank 0 below Dirichlet
# rank 1") or ended in a traceback (ArithmeticError from --tol 0,
# RetryExhaustedError from a float pencil at --eps 0)
@pytest.mark.parametrize("argv", [
    "giroux-torsion --pair sol:2,1,1,1 --grid -4",
    "giroux-torsion --pair sol:2,1,1,1 --grid 0",
    "lutz-check --pair sol:2,1,1,1 --grid -5",
    "cutoff --pair totreal:3 --grid 0",
    "suite --name cayley --trials -3",
    "suite --name cocompatible --trials 0",
    "reeb --pair sol:2,1,1,1 --s 1.5707963 --tol 0",
    "reeb --pair sol:2,1,1,1 --s 1.5707963 --tol -1",
    "cotame --eps 0",
    "pencil-reduce --eps 0",
    "cotame --eps nan",
    "numfield --poly -2,0,1 --box 0",
    "numfield --poly -2,0,1 --box -3",
])
def test_vacuous_sampling_arguments_are_usage_errors(capsys, argv):
    argv = argv.split()
    flag = argv[-2]
    if argv[0] in ("cotame", "pencil-reduce"):
        argv += ["--omega0", FLOAT_REMARK[0], "--omega1", FLOAT_REMARK[1]]
    assert run(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: must be positive, got " in captured.err


@pytest.mark.parametrize("dims, message", [
    ("0", "input error: dimension must be even and between 2 and 12\n"),
    ("-2", "input error: dimension must be even and between 2 and 12\n"),
    ("4,6,14", "input error: dimension must be even and between 2 and 12\n"),
    ("4,4", "usage error: --dims repeats a dimension: 4,4\n"),
    ("6,4,6", "usage error: --dims repeats a dimension: 6,4,6\n"),
])
def test_appendix_suite_rejects_bad_dims(capsys, dims, message):
    # a dimension below 2 once reached numpy ("zero-size array to reduction
    # operation maximum"), and a repeated one ran its draws twice while
    # per_dim reported it once
    code = run(["suite", "--name", "appendix-equivalence", "--trials", "5",
                "--dims", dims, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message


def test_appendix_suite_passes_at_dim_2(capture):
    # a 2 x 2 skew member has two equal singular values, so its collapse is
    # measured against the size of its terms, not its largest singular
    # value (which read 28 false mismatches here)
    code, out = capture(["suite", "--name", "appendix-equivalence", "--trials",
                         "100", "--dims", "2", "--seed", "331", "--json"])
    assert code == 0
    detail = json.loads(out)["detail"]
    assert (detail["trials"], detail["mismatches"], detail["per_dim"]) == (
        100, 0, {"2": 0})
    assert detail["worst_margin"] > 0


def test_human_readable_output(capture):
    code, out = capture(["verify-pair", "--preset", "totreal:2"])
    assert code == 0
    assert "verdict: positive" in out


def test_timing_flag_is_a_usage_error(capsys):
    # reports carry no elapsed time, so there is no flag to ask for one
    assert run(["verify-pair", "--preset", "totreal:2", "--json",
                "--timing"]) == 2
    assert capsys.readouterr().out == ""


# rank 2: a degenerate form of the remark pair's dimension
SINGULAR_4 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


@pytest.mark.parametrize("kind", [int, float], ids=["rational", "float"])
@pytest.mark.parametrize("command", ["cotame", "pencil-reduce"])
@pytest.mark.parametrize("which", [0, 1])
def test_degenerate_pencil_is_an_input_error(capsys, command, which, kind):
    # integer entries make a rational pencil, float entries a float one;
    # both name the degenerate form
    forms = [REMARK_O0, REMARK_O1]
    forms[which] = SINGULAR_4
    forms = [[[kind(x) for x in row] for row in m] for m in forms]
    code = run([command, "--omega0", json.dumps(forms[0]),
                "--omega1", json.dumps(forms[1]), "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"input error: omega_{which} is degenerate\n"


@pytest.mark.parametrize("matrix, error", [
    ('{"a": 1}', "KeyError('matrix')"),
    ('[[{"num": 1}]]', "KeyError('den')"),
    ('[[{"num": 1, "den": 0}]]', "ZeroDivisionError('Fraction(1, 0)')"),
    ("5", "TypeError(\"'int' object is not iterable\")"),
    ("[[0, 1], [-1, null]]", "TypeError(\"float() argument must be a string "
                             "or a real number, not 'NoneType'\")"),
])
@pytest.mark.parametrize("which", [0, 1])
def test_malformed_matrix_json_is_an_input_error(capsys, matrix, error,
                                                 which):
    forms = [json.dumps(REMARK_O0), json.dumps(REMARK_O1)]
    forms[which] = matrix
    code = run(["cotame", "--omega0", forms[0], "--omega1", forms[1],
                "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"input error: malformed matrix: {error}\n"


@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_cutoff_constant_must_be_finite(capsys, c):
    # a grid over a non-finite interval is all NaN and has no minimum
    assert run(["cutoff", "--pair", "totreal:2", f"--c={c}", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"input error: cutoff constant must be finite, got {float(c)}\n")


@pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
def test_reeb_parameter_must_be_finite(capfd, s):
    # nan once reached LAPACK, which printed "On entry to DLASCL parameter
    # number 4 had an illegal value" before "SVD did not converge", and inf
    # ended in "math domain error"
    assert run(["reeb", "--pair", "totreal:1", f"--s={s}", "--json"]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"input error: Reeb parameter s must be finite, got {float(s)}\n")


@pytest.mark.parametrize("pair", ["totreal:2", "sol:2,1,1,1", "geiges:2",
                                  "totreal:3"])
@pytest.mark.parametrize("c", ["400", "1e200"])
def test_cutoff_constant_beyond_float64_is_an_input_error(capsys, pair, c):
    # e^(c+1) overflows from c = 709, and the top coefficients from c = 354
    # (235 for totreal:3); no verdict may rest on the samples that survive
    assert run(["cutoff", "--pair", pair, f"--c={c}", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"input error: cutoff constant {float(c)} overflows float64 on the "
        "grid: ")


def mixed_pencil(name):
    """A PENCILS entry with omega_1 given in floats: a rational omega_0 and
    a float omega_1."""
    o0, o1 = PENCILS[name]
    return o0, json.dumps([[float(Q(x)) for x in row]
                           for row in json.loads(o1)])


# sha256 of default --json reports of mixed pencils, the only CLI route
# into the exact is_nondegenerate, pinned while it was a Pfaffian
GOLDEN_MIXED_PENCIL_REPORTS = [
    ("cotame real4",
     "38de67352f1257aa9ce214a5293be990af3fd3b1e702452a2a97371d9bc5725f"),
    ("pencil-reduce real4",
     "5316c8da17d4454df5788d409495d9f49651d1077da392ca59ba613787bdbee5"),
    ("cotame real8",
     "fcc6bbc2e8e46515e3c16c87a2d296207ed4d44bc5223c606a45c4ced3e60d60"),
    ("pencil-reduce real8",
     "94cf96fe763e8abb000eeaaa83770af416f678a4e37162dc0bf1c65b75fd9d98"),
]


@pytest.mark.parametrize("case, digest", GOLDEN_MIXED_PENCIL_REPORTS)
def test_mixed_pencil_reports_match_golden_bytes(capture, case, digest):
    command, name = case.split()
    o0, o1 = mixed_pencil(name)
    code, out = capture([command, "--omega0", o0, "--omega1", o1, "--json"])
    assert code == 0
    if command == "cotame":
        assert json.loads(out)["certificate"] == "numeric"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_mixed_pencil_with_a_degenerate_rational_omega0(capsys, tmp_path):
    p0 = tmp_path / "o0.json"
    p1 = tmp_path / "o1.json"
    p0.write_text(json.dumps(SINGULAR_4))
    p1.write_text(json.dumps([[float(x) for x in row] for row in REMARK_O1]))
    for command in ("cotame", "pencil-reduce"):
        code = run([command, "--omega0", str(p0), "--omega1", str(p1),
                    "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "input error: omega_0 is degenerate\n"


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


# sha256 of reports of the families commands, default and --json, pinned
# before the library profiles and the torsion family were cached per
# process; each runs twice, so the second run reads the caches
GOLDEN_FAMILY_REPORTS = [
    ("reeb --s 1.5707963 @ sol:2,1,1,1",
     "21ba65a6f807358fbf03b32ce774c08884e160e9d18c17b16e80ee0f475ee6e5"),
    ("reeb --s 1.5707963 --json @ sol:2,1,1,1",
     "701e0b9ce78a266943bf2cdf88c1db64281a16483a464f0309c107e1d7d16a68"),
    ("reeb --k 2 --s -2.25 @ sol:2,1,1,1",
     "eef707f61ffa0e2c0ac6f76af5db35def97561913d3f35f4c6e8cce37e2f657a"),
    ("reeb --k 2 --s -2.25 --json @ sol:2,1,1,1",
     "ee39b1fc65a40b960005bf08934e65a9f5241813ef27609675b26e277d8e3de2"),
    ("giroux-torsion --k 2 --grid 256 @ sol:2,1,1,1",
     "4802dc5712b4a60d39424cf287fad9f6c462ba1b815b9906cbdc0f6dd19e4dd4"),
    ("giroux-torsion --k 2 --grid 256 --json @ sol:2,1,1,1",
     "b1fd7a527f8ad9bc8c672184293dc5ef08b95640d458cc85d29207c89b38bdd4"),
    ("lutz-check --k 2 --tau 0.375 --grid 128 @ sol:2,1,1,1",
     "f63ec026cf74d5cd842b6731a204bbdfb66b5e22d706b81ff21706597b98e628"),
    ("lutz-check --k 2 --tau 0.375 --grid 128 --json @ sol:2,1,1,1",
     "d08b7aeadb16c4a5cdf02fca9931d9cefea7cc6a6cb87cfd66fbf40134dd2560"),
    ("cutoff --grid 64 @ sol:2,1,1,1",
     "d9ad2f44e76cca33c2e9625ccf122764a03eb96abbb04da381950a2691ed7e68"),
    ("cutoff --grid 64 --json @ sol:2,1,1,1",
     "865fdc2aaa8b4999f3242bfe86a0541e5a6d427ac7e271751285baa0551e7bd7"),
    ("cutoff --profile cubic --grid 64 @ sol:2,1,1,1",
     "5d26e6279c92ac9a04bcc32a715cf8ee98602d345341c4d1586fed096270be59"),
    ("cutoff --profile cubic --grid 64 --json @ sol:2,1,1,1",
     "5cb8236a46acd55772913eed6a20df9273525b0e1c87e28ffbf7bf25e085366c"),
    ("reeb --s 1.5707963 @ totreal:2",
     "21ba65a6f807358fbf03b32ce774c08884e160e9d18c17b16e80ee0f475ee6e5"),
    ("reeb --s 1.5707963 --json @ totreal:2",
     "6590f30c7a1f117477a4dc6ac4fc8306638d5e45b0570c7869cf38f2f85916bf"),
    ("reeb --k 2 --s -2.25 @ totreal:2",
     "eef707f61ffa0e2c0ac6f76af5db35def97561913d3f35f4c6e8cce37e2f657a"),
    ("reeb --k 2 --s -2.25 --json @ totreal:2",
     "3e444d7ad82eeff350743204ed21a7c6b8d85a6b57f204437fee2f76e6f5e507"),
    ("giroux-torsion --k 2 --grid 256 @ totreal:2",
     "780333b3dff910249a220948b0c8440b29af7fda0c02903cc9af66d2b73789d5"),
    ("giroux-torsion --k 2 --grid 256 --json @ totreal:2",
     "d59c3386265fd9c3cfff17dd52116b2ccff954dc7fb2ed9c0d624d5427a3b781"),
    ("lutz-check --k 2 --tau 0.375 --grid 128 @ totreal:2",
     "f63ec026cf74d5cd842b6731a204bbdfb66b5e22d706b81ff21706597b98e628"),
    ("lutz-check --k 2 --tau 0.375 --grid 128 --json @ totreal:2",
     "5f82574892e74e42400a106c9dbb224b55d8b29b00c56202acf384cd5b673317"),
    ("cutoff --grid 64 @ totreal:2",
     "d9ad2f44e76cca33c2e9625ccf122764a03eb96abbb04da381950a2691ed7e68"),
    ("cutoff --grid 64 --json @ totreal:2",
     "017a2c44da6169224962d991b20f4e27a03fc846dcea83bd4d4eeb39d37d8b8e"),
    ("cutoff --profile cubic --grid 64 @ totreal:2",
     "5d26e6279c92ac9a04bcc32a715cf8ee98602d345341c4d1586fed096270be59"),
    ("cutoff --profile cubic --grid 64 --json @ totreal:2",
     "61fc28b5e3a8db706e050d862249cae540fd55d300d651fc7d45b45a01dcf6b1"),
    ("reeb --s 1.5707963 @ totreal:3",
     "e15cfb216ec9af0dd7f94ea17eee532c980764b28ecf735cf76862de204655fc"),
    ("reeb --s 1.5707963 --json @ totreal:3",
     "f2c5d8c3b54935868e5031165152b2b5ce0c7fec0dd5ea559149e1b7fce859be"),
    ("reeb --k 2 --s -2.25 @ totreal:3",
     "e5fcdfc508228983e68b0cc09474f65b255946f2b18fb1654835ee9575e1660f"),
    ("reeb --k 2 --s -2.25 --json @ totreal:3",
     "c988ffcdf5e297273ef0194b0c9f53426d1e776b777c81f6361d3bf8b3a77d02"),
    ("giroux-torsion --k 2 --grid 256 @ totreal:3",
     "cd156acbd999d82de32cfd9b6ba41d22389539c0ab356aa9f00be580699c962a"),
    ("giroux-torsion --k 2 --grid 256 --json @ totreal:3",
     "ba3d8f220746d4a5c1df0cc9bdc4e3416e4ec6bf6559b323f2bbfffc24443984"),
    ("lutz-check --k 2 --tau 0.375 --grid 128 @ totreal:3",
     "bdffbb7d4049cded052a6dd03e0d169c0a3aa47d00cf850f45e83e3c612ae19c"),
    ("lutz-check --k 2 --tau 0.375 --grid 128 --json @ totreal:3",
     "a0980b3b31fd98e5c3279fd1c4b8eeb3c843c0a18868900d809f20abb3df3255"),
    ("cutoff --grid 64 @ totreal:3",
     "95a231cb0773c1c7fe01a4b93d45e99c218796cb24b04ee8b5e087790f6c30e0"),
    ("cutoff --grid 64 --json @ totreal:3",
     "977f77faa7a3ace730a24bc05a094aff9ba8e405d9b46e9ef30688a7ba3bdbd1"),
    ("cutoff --profile cubic --grid 64 @ totreal:3",
     "444f3dbb7c82ad7e218e73b4c1889e84195a3c3ad1c179661d73df92093a1a78"),
    ("cutoff --profile cubic --grid 64 --json @ totreal:3",
     "d05c916bf71e2dc3be4fa3396fea380b5cd5655098ae620fde896c6b2088ae32"),
    ("reeb --s 1.5707963 @ geiges:2",
     "e3d43ed4ce4dacd7159c73ee807259ac7fada9fe1147f6add87e8b356e3d2448"),
    ("reeb --s 1.5707963 --json @ geiges:2",
     "f3c56c8cb8e261bb3324e4143a115e2d641b07660eee7e9159bb0c34b002813c"),
    ("reeb --k 2 --s -2.25 @ geiges:2",
     "572b0db48d4a5859917a29b3426d23af5f9d71c1f6aa5acd058e74f47a34c686"),
    ("reeb --k 2 --s -2.25 --json @ geiges:2",
     "52ff0743754da22c7921dface25d1faeb2a07be341ab7249bb95cc17b79348a7"),
    ("giroux-torsion --k 2 --grid 256 @ geiges:2",
     "259a5c560e99fd189d56caaaa833fc9390e970bbe3737addb7f2f802ed276054"),
    ("giroux-torsion --k 2 --grid 256 --json @ geiges:2",
     "7f62e7d2508ec4be6fd2c4e2a49e76556f94bdcf85b7cc83edba79839ada127e"),
    ("lutz-check --k 2 --tau 0.375 --grid 128 @ geiges:2",
     "1f4d56c19be968df99ba02e9c84351e72d1f33767d871b0abc982e70c4b816f5"),
    ("lutz-check --k 2 --tau 0.375 --grid 128 --json @ geiges:2",
     "92a20ea1beaed18e27ba88576a5f97d2fd96e72868fe68d8453906f63f2b43d0"),
    ("cutoff --grid 64 @ geiges:2",
     "a681679fb1e9ed5c1de2dc24be609a41bc138f4e3d4b51b64b204f81e495d01a"),
    ("cutoff --grid 64 --json @ geiges:2",
     "293f0af10fc6cda55a0a0487cd9f5838e4f2d49f7a45b3ff022b210f044c853c"),
    ("cutoff --profile cubic --grid 64 @ geiges:2",
     "ac2d7c5cbb72dd461f414104b1457657d83c7d0c7a8fa6bc00a7f07f53634ede"),
    ("cutoff --profile cubic --grid 64 --json @ geiges:2",
     "7fbe2aa1fa594889e8a95ecaf2b166c28d7d35df64e2f3485c2b610cf842c7cb"),
]


@pytest.mark.parametrize("case, digest", GOLDEN_FAMILY_REPORTS)
def test_family_reports_match_golden_bytes(capture, case, digest):
    argv, pair = case.split(" @ ")
    command, *rest = argv.split()
    for _ in range(2):
        code, out = capture([command, "--pair", pair, *rest])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `suite --name cocompatible --trials 2000 --json`, pinned while
# the suite still ran trial by trial
GOLDEN_COCOMPATIBLE_REPORTS = [
    (0, "4fa809380dff081b9a56a7e755a9ab10e9febbec3254069bf8917f2beb68c997"),
    (331, "3bab69fa95d96e91a2c1c170e88ba4d180b9c8d19730b41f6e4c6a68062720ec"),
    (600, "dc0f46b1d4d029e8185e60c00411bb7439ed38794d8900118421bb3820e7edbf"),
    (12345,
     "76dd9ea1eee3d80c98a47855cf6008212599cd24e0f93bd69e2cd5304053b490"),
]


@pytest.mark.parametrize("seed, digest", GOLDEN_COCOMPATIBLE_REPORTS)
def test_cocompatible_reports_match_golden_bytes(capture, seed, digest):
    code, out = capture(["suite", "--name", "cocompatible", "--trials",
                         "2000", "--seed", str(seed), "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `suite --name appendix-equivalence --trials 100 --dims 4,6,8,10
# --json` at two bench suite seeds, pinned while the suite, the existence
# test and the construction each still computed B and its eigenvalues
GOLDEN_APPENDIX_REPORTS = [
    (331, "f8471453a0a4a4047ce0140002378a945ecd078d7df01ecaac95ede6872df1a9"),
    (600, "55ed03574d22df322d5737d82a0406f4c947d6afaa0a196ee6f1c5ec81fe1383"),
]


@pytest.mark.parametrize("seed, digest", GOLDEN_APPENDIX_REPORTS)
def test_appendix_reports_match_golden_bytes(capture, seed, digest):
    code, out = capture(["suite", "--name", "appendix-equivalence",
                         "--trials", "100", "--dims", "4,6,8,10",
                         "--seed", str(seed), "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `suite --name cayley --trials 200 --json` and `suite --name
# interpolation --trials 100 --json`, pinned while both suites still ran
# trial by trial
GOLDEN_SAMPLER_REPORTS = [
    ("cayley", 0,
     "3bd7de988eb5b0e23eb2923fba5fac13b4dcdf8439d833bb1e82ecb0a90d30c9"),
    ("cayley", 24,
     "628b16f23f0e21a7b89b43ec23bab6715988d5e3b0a8bd72939481fe3c89f865"),
    ("cayley", 331,
     "9ca513c969aa3862a9f86539dd5fda79ab39681b8c0f0a6b9eeae5495c28405e"),
    ("cayley", 600,
     "7860b748e1804b5edfd35a1aaeff66e46136f9a00876ca8c853c391f28bfd5c6"),
    ("interpolation", 0,
     "0515d8d633046c404173145a5aa79e1d726c8bf065b99e7d06ffdb83b8c8a627"),
    ("interpolation", 24,
     "3288848b6c575567a9e8ca94ee79a5e3fd35960fc392df08ba936b0419aa44f6"),
    ("interpolation", 331,
     "f2ad33a2fa09be489700f49aedc49769dcbfdaad5b1129a8bd6d6376939913f0"),
    ("interpolation", 600,
     "84f6ecb38d313d9fb9b3f53702942a52e4ee1535e60b1d6b1d29b3eb7004123c"),
]


@pytest.mark.parametrize("name, seed, digest", GOLDEN_SAMPLER_REPORTS)
def test_sampler_suite_reports_match_golden_bytes(capture, name, seed,
                                                  digest):
    trials = {"cayley": 200, "interpolation": 100}[name]
    code, out = capture(["suite", "--name", name, "--trials", str(trials),
                         "--seed", str(seed), "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_numfield_names_only_the_tolerance_it_applies(capture):
    code, out = capture(["numfield", "--poly", "-2,0,1", "--json"])
    assert code == 0
    # numfield.norm and its 1e-6 embedding check are not on this path
    assert list(json.loads(out)["tolerances"]) == ["hyperplane"]


@pytest.mark.parametrize("name, exact0, exact1, kind", [
    ("real4", True, True, "exact-pre/numeric-J"),
    ("real4", True, False, "numeric"),
    ("real4", False, True, "numeric"),
    ("float-real6", False, False, "numeric"),
])
def test_cotame_is_exact_pre_only_for_two_exact_forms(capture, name, exact0,
                                                      exact1, kind):
    forms = [json.loads(m) for m in PENCILS[name]]
    for m, exact in zip(forms, (exact0, exact1)):
        for row in m:
            row[:] = [x if exact else float(Q(x)) for x in row]
    code, out = capture(["cotame", "--omega0", json.dumps(forms[0]),
                         "--omega1", json.dumps(forms[1]), "--json"])
    assert code == 0
    assert json.loads(out)["certificate"] == kind
