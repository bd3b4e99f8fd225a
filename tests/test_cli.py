import io
import json
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from test_golden import COMMANDS, GOLDEN

from conefourier import brion, cli, interpolation, pk_via_triangulation
from conefourier.cli import main
from conefourier.errors import MalformedInputError, RankDeficientError
from conefourier.geometry import maximal_minors
from conefourier.serialize import cone_from_json, family_from_json, format_rational

SQUARE_CONE = json.dumps(
    {
        "apex": ["0", "0", "0"],
        "generators": [["1", "0", "1"], ["0", "1", "1"], ["-1", "0", "1"], ["0", "-1", "1"]],
    }
)
FAN_CONE = json.dumps({"apex": ["0", "0"], "generators": [["1", "0"], ["1", "1"], ["0", "1"]]})
UNIT_SQUARE = json.dumps({"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]})


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_validate_reports_fan_redundancy(capsys):
    code, out = run(capsys, "validate", FAN_CONE)
    assert code == 0
    report = json.loads(out)
    assert report["pointed"] is True
    assert report["general_position"] is True
    assert report["redundant_generators"] == [2]


def test_validate_reports_redundancy_in_a_rational_plane(capsys):
    # rank 2 in d = 3: (1, 1, 0) and (1/2, 1/3, 0) lie inside the quadrant of the first two
    cone = json.dumps({"apex": [0, 0, 0], "generators": [[1, 0, 0], [0, 1, 0], [1, 1, 0], ["1/2", "1/3", 0]]})
    code, out = run(capsys, "validate", cone)
    assert code == 0
    report = json.loads(out)
    assert report["general_position"] is False
    assert report["redundant_generators"] == [3, 4]


def test_validate_sample_beyond_shell_is_domain_error():
    # d = 2 has 20 distinct primitive rays in the sampler's shell
    result = subprocess.run(
        [sys.executable, "-m", "conefourier", "validate", "--sample", "2", "30"],
        capture_output=True,
        timeout=30,
        check=False,
    )
    assert result.returncode == 1
    err = json.loads(result.stdout)
    assert err["code"] == "Dimension"
    assert err["context"] == {"dimension": 2, "generators": 30, "rays_found": 20}


def test_validate_leaves_the_simplex_unimported():
    """validate reads pointedness off the double description: the
    feasibility simplex module is never imported on the way."""
    script = (
        "import contextlib, io, sys\n"
        "import conefourier.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = conefourier.cli.main(['validate', '--sample', '3', '6', '--seed', '1'])\n"
        "print(code, 'conefourier.feasibility' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.split() == ["0", "False"]


def test_validate_sample_never_in_general_position_is_domain_error():
    # 20 rays drawn from the d = 3 shell all but never avoid three in one
    # plane; the sampler used to redraw them without end
    result = subprocess.run(
        [sys.executable, "-m", "conefourier", "validate", "--sample", "3", "20", "--seed", "0"],
        capture_output=True,
        timeout=60,
        check=False,
    )
    assert result.returncode == 1
    err = json.loads(result.stdout)
    assert err["code"] == "Dimension"
    assert err["context"] == {"dimension": 3, "generators": 20, "draws": 1000}


def test_validate_not_pointed_is_domain_error(capsys):
    cone = json.dumps({"apex": ["0", "0"], "generators": [["1", "0"], ["-1", "0"]]})
    code, out = run(capsys, "validate", cone)
    assert code == 1
    err = json.loads(out)
    assert err["code"] == "NotPointed"
    assert set(err) == {"code", "message", "context"}


def test_transform_square_cone(capsys):
    code, out = run(capsys, "transform", SQUARE_CONE, "--method", "interpolation")
    assert code == 0
    poly = json.loads(out)
    assert poly["degree"] == 1
    assert poly["terms"] == [{"exponents": [0, 0, 1], "coefficient": "4"}]


def test_transform_methods_match(capsys):
    code_a, out_a = run(capsys, "transform", SQUARE_CONE, "--method", "triangulation")
    code_b, out_b = run(capsys, "transform", SQUARE_CONE, "--method", "interpolation")
    assert code_a == code_b == 0
    assert json.loads(out_a) == json.loads(out_b)


def test_transform_verbose_dumps_system(capsys):
    code, out = run(capsys, "transform", SQUARE_CONE, "--verbose")
    assert code == 0
    data = json.loads(out)
    system = data["system"]
    assert system["unknowns"] == 3 and system["rank"] == 3
    assert [row["rhs"] for row in system["rows"]] == ["4", "0", "-4", "4", "0", "4"]
    assert system["skipped"] == []
    assert len(system["pivots"]) == 3


def test_transform_non_generic_triangulation_fails(capsys):
    cone = json.dumps(
        {
            "apex": ["0", "0", "0"],
            "generators": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]],
        }
    )
    code, out = run(capsys, "transform", cone, "--method", "triangulation")
    assert code == 1
    assert json.loads(out)["code"] == "NotGeneric"


def test_cone_of_rank_below_d_sweeps_no_minor_table(capsys, monkeypatch):
    """Rank 15 in d = 16, the 17 generators (t, ..., t^14, 0) for t = -8..8:
    every command reads the all-zero minor table that the cone's one
    elimination proves, and none runs the Laplace sweep."""
    cone = json.dumps({"apex": [0] * 16, "generators": [[t**k for k in range(15)] + [0] for t in range(-8, 9)]})
    calls = []

    def counting(rows):
        calls.append(rows)
        return maximal_minors(rows)

    monkeypatch.setattr("conefourier.cones.maximal_minors", counting)
    code, out = run(capsys, "validate", cone)
    assert code == 0 and json.loads(out)["general_position"] is False
    for argv, expected in [
        (["transform"], "RankDeficient"),
        (["transform", "--method", "triangulation"], "NotGeneric"),
        (["compare"], "NotGeneric"),
    ]:
        code, out = run(capsys, *argv, cone)
        assert code == 1 and json.loads(out)["code"] == expected
    code, out = run(capsys, "vervan", cone, "--random", "2")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 2 and all(json.loads(line)["pass"] is True for line in lines)
    assert calls == []


TWO_RAYS = '"generators": [[1, 0], [0, 1]]'
NEEDS_D_AND_N = "--sample needs D >= 2 and N >= D"


@pytest.mark.parametrize(
    "argv, status, code, message",
    [
        (["validate", '{"apex": [true, 0], %s}' % TWO_RAYS], 2, "MalformedInput", "expected a rational, got True"),
        (["validate", '{"apex": [null, 0], %s}' % TWO_RAYS], 2, "MalformedInput", "expected a rational, got NoneType"),
        (["validate", '{"apex": "0", %s}' % TWO_RAYS], 2, "MalformedInput", "expected an array of rationals, got str"),
        (["validate", "[[1, 0], [0, 1]]"], 2, "MalformedInput", "cone input must be a JSON object"),
        (["validate", "{%s}" % TWO_RAYS], 2, "MalformedInput", 'cone input needs "apex" and "generators" keys'),
        (
            ["validate", '{"apex": [0, 0], "generators": []}'],
            2,
            "MalformedInput",
            '"generators" must be a non-empty array of vectors',
        ),
        (["brion-eval", '{"xi": ["1/2"]}'], 2, "MalformedInput", 'polytope input needs a "vertices" key'),
        (
            ["brion-eval", '{"vertices": []}', "--xi", '["1/2"]'],
            2,
            "MalformedInput",
            '"vertices" must be a non-empty array of points',
        ),
        (
            ["vervan", SQUARE_CONE, "--family", '{"1": [1, 2]}'],
            2,
            "MalformedInput",
            "family must be an array of index arrays",
        ),
        (["validate"], 2, "MalformedInput", "an input is required: a file path, '-' for stdin, or inline JSON"),
        (
            ["validate", SQUARE_CONE, "--sample", "3", "5"],
            2,
            "MalformedInput",
            "give either an input or --sample, not both",
        ),
        (["validate", "--sample", "1", "3"], 2, "MalformedInput", NEEDS_D_AND_N),
        (["transform", "--sample", "3", "2"], 2, "MalformedInput", NEEDS_D_AND_N),
        (
            ["vervan", SQUARE_CONE, "--family", "[[1,2],[2,3],[3,4]]", "--random", "2"],
            2,
            "MalformedInput",
            "give either --family or --random, not both",
        ),
        (
            ["brion-eval", UNIT_SQUARE],
            2,
            "MalformedInput",
            'an evaluation point is required: --xi or a "xi" key in the input',
        ),
        (["bench", "--dims", "2,x"], 2, "MalformedInput", "bad --dims value '2,x'"),
        (["bench", "--dims", "2,1"], 2, "MalformedInput", "--dims needs integers >= 2"),
        (["validate", '{"apex": [], "generators": [[]]}'], 1, "Dimension", "cone needs a positive ambient dimension"),
        (
            ["brion-eval", '{"vertices": [[0, 0], [1]]}', "--xi", '["1/2", "1/3"]'],
            1,
            "Dimension",
            "vertices have mixed dimensions",
        ),
        (
            ["brion-eval", '{"vertices": [[0, 0], [1, 0], [0, 1], [1, 0]]}', "--xi", '["1/2", "1/3"]'],
            1,
            "DegenerateVertex",
            "duplicate vertex in input",
        ),
    ],
)
def test_input_checks_on_the_wire(capsys, argv, status, code, message):
    """Each check of the input, met by the command that reads it: the exit
    code and the whole error object."""
    got, out = run(capsys, *argv)
    assert got == status
    assert json.loads(out) == {"code": code, "message": message, "context": {}}


def test_vervan_family_of_mixed_sizes_is_its_own_error(capsys):
    code, out = run(capsys, "vervan", SQUARE_CONE, "--family", "[[1,2],[3],[2,3]]", "--family", "[[1,2],[2,3],[3,4]]")
    assert code == 1
    first, second = map(json.loads, out.splitlines())
    assert first == {"code": "Dimension", "message": "family mixes diagonals of different sizes", "context": {}}
    assert second["pass"] is True


def test_compare_sampled_cone(capsys):
    code, out = run(capsys, "compare", "--sample", "3", "5", "--seed", "7")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["triangulation"] == data["interpolation"]
    assert "cone" in data


def test_vervan_explicit_family(capsys):
    code, out = run(capsys, "vervan", SQUARE_CONE, "--family", "[[1,2],[2,3],[3,4]]")
    assert code == 0
    record = json.loads(out.strip())
    assert record["fills"] is True
    assert record["minor"] == "4" and record["expected_abs"] == "4"
    assert record["pass"] is True


def test_vervan_random_families(capsys):
    code, out = run(capsys, "vervan", "--sample", "3", "5", "--seed", "3", "--random", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(json.loads(line)["pass"] for line in lines)


def test_vervan_failure_context_is_one_based(capsys):
    family = "[[1,2,3],[1,2,4],[1,2,5],[3,4,5]]"
    code, out = run(capsys, "vervan", "--sample", "4", "5", "--seed", "1", "--family", family)
    assert code == 1
    err = json.loads(out)
    assert err["code"] == "VerificationFailure"
    assert err["context"]["family"] == [[1, 2, 3], [1, 2, 4], [1, 2, 5], [3, 4, 5]]


def test_vervan_out_of_range_diagonal_is_one_based(capsys):
    code, out = run(capsys, "vervan", SQUARE_CONE, "--family", "[[1,2],[1,3],[2,9]]")
    assert code == 1
    err = json.loads(out)
    assert err["code"] == "Dimension"
    assert err["message"] == "diagonal indices (2, 9) out of range"
    assert err["context"] == {"diagonal": [2, 9], "generators": 4}


def test_vervan_random_reports_every_family(capsys):
    code, out = run(capsys, "vervan", "--sample", "4", "6", "--seed", "2", "--random", "40")
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 40
    errors = [line for line in lines if "code" in line]
    assert errors and all(set(e) == {"code", "message", "context"} for e in errors)
    assert all(line["pass"] for line in lines if "code" not in line)


def test_vervan_needs_family_or_random(capsys):
    code, out = run(capsys, "vervan", SQUARE_CONE)
    assert code == 2
    for k in ("0", "-2"):
        code, out = run(capsys, "vervan", SQUARE_CONE, "--random", k)
        assert code == 2
        err = json.loads(out)
        assert err["code"] == "MalformedInput" and "K >= 1" in err["message"]


def test_vervan_rejects_boolean_index(capsys):
    with pytest.raises(MalformedInputError):
        family_from_json([[True, 2], [1, 3], [2, 3]])
    code, out = run(capsys, "vervan", SQUARE_CONE, "--family", "[[true, 2], [1, 3], [2, 3]]")
    assert code == 2
    assert json.loads(out)["code"] == "MalformedInput"


def test_brion_eval_unit_square(capsys):
    code, out = run(capsys, "brion-eval", UNIT_SQUARE, "--xi", '["1/2","1/2"]')
    assert code == 0
    value = json.loads(out)
    assert abs(value["re"] - (-0.405285)) <= 1e-6
    assert abs(value["im"]) <= 1e-9


def test_brion_eval_verbose_terms(capsys):
    code, out = run(capsys, "brion-eval", UNIT_SQUARE, "--xi", '["1/3","1/5"]', "--verbose")
    assert code == 0
    data = json.loads(out)
    assert len(data["terms"]) == 4
    total = sum(t["re"] for t in data["terms"]) + 1j * sum(t["im"] for t in data["terms"])
    assert abs(total - (data["re"] + 1j * data["im"])) <= 1e-12


@pytest.mark.parametrize("xi", ['["1/3"]', '["1/3","1/2","1"]'])
def test_brion_eval_point_of_wrong_length(capsys, xi):
    triangle = '{"vertices":[[0,0],[1,0],[0,1]]}'
    code, out = run(capsys, "brion-eval", triangle, "--xi", xi)
    assert code == 1
    err = json.loads(out)
    assert err["code"] == "Dimension"
    assert err["context"] == {"dimension": 2, "length": len(json.loads(xi))}


WRONG_LENGTH = """{
  "code": "Dimension",
  "message": "evaluation point has length %d, expected the polytope's dimension 2",
  "context": {
    "dimension": 2,
    "length": %d
  }
}
"""


@pytest.mark.parametrize(
    "argv, length",
    [
        (['{"vertices":[[0,0],[1,0],[0,1]]}', "--xi", '["1/3"]'], 1),
        (['{"vertices":[[0,0],[1,0],[0,1]]}', "--xi", '["1/3","1/2","1"]'], 3),
        (['{"vertices":[[0,0],[1,0],[0,1]],"xi":["1"]}'], 1),
    ],
)
def test_brion_eval_point_checked_before_the_facet_search(capsys, monkeypatch, argv, length):
    calls = []
    monkeypatch.setattr("conefourier.cli.polytope_combinatorics", lambda *a, **k: calls.append(a))
    code, out = run(capsys, "brion-eval", *argv)
    assert (code, out) == (1, WRONG_LENGTH % (length, length))
    assert calls == []


@pytest.mark.parametrize(
    "xi, vertex",
    [
        (["1/1" + "0" * 200, "2/1" + "0" * 200], ["0", "0"]),
        (["1" + "0" * 400, "3"], ["1", "0"]),
    ],
)
def test_brion_eval_float_overflow_is_a_domain_error(capsys, xi, vertex):
    code, out = run(capsys, "brion-eval", UNIT_SQUARE, "--xi", json.dumps(xi))
    assert code == 1
    err = json.loads(out)
    assert err["code"] == "FloatOverflow"
    assert err["context"] == {"vertex": vertex}


def test_brion_eval_singular_point(capsys):
    code, out = run(capsys, "brion-eval", UNIT_SQUARE, "--xi", '["0","1/3"]')
    assert code == 1
    assert json.loads(out)["code"] == "SingularEvaluationPoint"


@pytest.mark.parametrize("method", brion.METHODS)
def test_brion_eval_tags_a_failing_cone_with_its_vertex(capsys, monkeypatch, method):
    """A cone solve that fails at the third vertex is re-raised with the
    1-based vertex in its context, and brion-eval prints that context."""
    pipeline = f"pk_via_{method}"
    compute = getattr(brion, pipeline)
    calls = []

    def third_cone_fails(cone):
        calls.append(cone)
        if len(calls) == 3:
            raise RankDeficientError("rank 0 for 1 unknown", rank=0, unknowns=1)
        return compute(cone)

    monkeypatch.setattr(brion, pipeline, third_cone_fails)
    square = brion.polytope_combinatorics(json.loads(UNIT_SQUARE)["vertices"])
    with pytest.raises(RankDeficientError) as info:
        brion.polytope_transform(square, method=method)
    assert info.value.context["vertex"] == 3
    calls.clear()
    code, out = run(capsys, "brion-eval", UNIT_SQUARE, "--xi", '["1/3","1/5"]', "--method", method)
    assert code == 1
    err = json.loads(out)
    assert err["code"] == "RankDeficient"
    assert err["context"] == {"rank": 0, "unknowns": 1, "vertex": 3}


def test_malformed_json_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, "transform", str(bad))
    assert code == 2
    assert json.loads(out)["code"] == "MalformedInput"


def test_non_utf8_input_is_usage_error(capsys, tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    code, out = run(capsys, "validate", str(binary))
    assert code == 2
    err = json.loads(out)
    assert err["code"] == "MalformedInput" and "cannot read" in err["message"]


def test_non_utf8_stdin_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8"))
    code, out = run(capsys, "validate", "-")
    assert code == 2
    assert json.loads(out)["code"] == "MalformedInput"


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    code, out = run(capsys, "transform", SQUARE_CONE, "--output", str(target))
    assert code == 2
    err = json.loads(out)
    assert err["code"] == "MalformedInput" and "cannot write" in err["message"]
    assert not target.parent.exists()


def test_float_input_rejected(capsys):
    cone = '{"apex": [0.5, 0], "generators": [["1","0"],["0","1"]]}'
    code, out = run(capsys, "transform", cone)
    assert code == 2
    err = json.loads(out)
    assert err["code"] == "MalformedInput"
    assert "3/4" in err["message"]


def test_bench_csv_shape(capsys):
    code, out = run(capsys, "bench", "--seed", "1", "--dims", "2", "--max-extra", "1", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,d,triangulation_seconds,interpolation_seconds"
    assert len(lines) == 3
    rows = [line.split(",") for line in lines[1:]]
    assert [r[:2] for r in rows] == [["2", "2"], ["3", "2"]]


def test_bench_json_matches(capsys):
    code, out = run(capsys, "bench", "--seed", "1", "--dims", "2,3", "--max-extra", "0")
    assert code == 0
    records = json.loads(out)
    assert all(r["match"] for r in records)


@pytest.mark.parametrize("option, value", [("--max-extra", "-1"), ("--trials", "0"), ("--trials", "-3")])
def test_bench_rejects_empty_sweeps(capsys, option, value):
    code, out = run(capsys, "bench", "--seed", "1", "--dims", "2", option, value)
    assert code == 2
    err = json.loads(out)
    assert err["code"] == "MalformedInput" and option in err["message"]


@pytest.mark.parametrize("csv", [False, True])
def test_bench_mismatch_exits_one(capsys, monkeypatch, csv):
    from conefourier.polynomials import HomogeneousPolynomial

    monkeypatch.setattr(
        "conefourier.cli.pk_via_interpolation",
        lambda cone: HomogeneousPolynomial.zero(cone.dimension, cone.num_generators - cone.dimension),
    )
    code, out = run(capsys, "bench", "--seed", "1", "--dims", "2", "--max-extra", "1", *(["--csv"] if csv else []))
    assert code == 1
    if not csv:
        assert [r["match"] for r in json.loads(out)] == [False, False]


def test_bench_gives_each_pipeline_a_fresh_cone(capsys, monkeypatch):
    """Neither pipeline reads minors or duals the other one computed, nor
    those of the sampler's general-position test."""
    from conefourier import pk_via_interpolation, pk_via_triangulation

    seen = []

    def recording(name, pipeline):
        def run_pipeline(cone):
            seen.append((name, cone, "_minors" in vars(cone), "_elimination" in vars(cone)))
            return pipeline(cone)

        return run_pipeline

    monkeypatch.setattr("conefourier.cli.pk_via_triangulation", recording("triangulation", pk_via_triangulation))
    monkeypatch.setattr("conefourier.cli.pk_via_interpolation", recording("interpolation", pk_via_interpolation))
    code, _ = run(capsys, "bench", "--seed", "1", "--dims", "2,3", "--max-extra", "2", "--trials", "2")
    assert code == 0
    assert [pipeline for pipeline, *_ in seen] == ["triangulation", "interpolation"] * 12
    assert len({id(cone) for _, cone, _, _ in seen}) == 24
    assert all(not table and not elimination for _, _, table, elimination in seen)


def test_transform_verbose_reports_scale_of_rational_cone(capsys):
    cone = '{"apex": ["0", "0"], "generators": [["1/2", "0"], ["1", "1/3"], ["0", "1"]]}'
    code, out = run(capsys, "transform", cone, "--verbose")
    assert code == 0
    data = json.loads(out)
    # rows on the integer generators (1, 0), (3, 1), (0, 1), whose numerator is 6 * p_K
    assert data["system"]["scale"] == "6"
    assert [row["rhs"] for row in data["system"]["rows"]] == ["1", "0", "-3"]
    assert [t["coefficient"] for t in data["polynomial"]["terms"]] == ["1/2", "1/6"]
    code, out = run(capsys, "transform", SQUARE_CONE, "--verbose")
    assert "scale" not in json.loads(out)["system"]


def test_output_file(capsys, tmp_path):
    target = tmp_path / "poly.json"
    code, out = run(capsys, "transform", SQUARE_CONE, "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["degree"] == 1


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(SQUARE_CONE))
    code, out = run(capsys, "transform", "-")
    assert code == 0
    assert json.loads(out)["degree"] == 1


@pytest.mark.parametrize("method", ["interpolation", "triangulation"])
def test_transform_eliminates_exactly_only_under_verbose(capsys, monkeypatch, method):
    """The exact pivots behind the --verbose system dump cost far more than
    the solve, so a plain transform never runs the exact elimination."""
    calls = []
    eliminate = interpolation._eliminate

    def counting(system):
        calls.append(system)
        return eliminate(system)

    monkeypatch.setattr(interpolation, "_eliminate", counting)
    code, plain = run(capsys, "transform", "--sample", "5", "10", "--seed", "1", "--method", method)
    assert code == 0 and calls == []
    code, verbose = run(capsys, "transform", "--sample", "3", "6", "--seed", "1", "--method", method, "--verbose")
    assert code == 0 and (len(calls) >= 1) is (method == "interpolation")
    assert set(json.loads(plain)) == {"cone", "polynomial"}
    dump = "system" if method == "interpolation" else "triangulation"
    assert set(json.loads(verbose)) == {"cone", "polynomial", dump}



def test_main_builds_the_parser_once(capsys, monkeypatch):
    builds = []
    build = cli.build_parser

    def counting():
        builds.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    assert run(capsys, "validate", FAN_CONE)[0] == 0
    assert run(capsys, "transform", SQUARE_CONE)[0] == 0
    assert len(builds) == 1
    assert build() is not build()


def test_import_builds_no_parser():
    script = "import conefourier.cli as cli; print(cli._parser.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.split() == ["0"]


def test_appended_families_do_not_cross_calls(capsys):
    code, out = run(capsys, "vervan", SQUARE_CONE, "--family", "[[1,2],[1,3],[1,4]]", "--family", "[[2,3],[2,4],[3,4]]")
    assert code == 0 and len(out.splitlines()) == 2
    code, out = run(capsys, "vervan", SQUARE_CONE, "--family", "[[1,2],[2,3],[3,4]]")
    assert code == 0
    assert [json.loads(line)["family"] for line in out.splitlines()] == [[[1, 2], [2, 3], [3, 4]]]


def test_options_do_not_cross_calls(capsys, monkeypatch):
    code, out = run(capsys, "transform", SQUARE_CONE, "--method", "triangulation", "--verbose")
    assert code == 0 and "triangulation" in json.loads(out)
    calls, interpolate = [], cli.pk_via_interpolation
    monkeypatch.setattr(cli, "pk_via_interpolation", lambda cone: calls.append(cone) or interpolate(cone))
    code, out = run(capsys, "transform", SQUARE_CONE)
    assert code == 0 and len(calls) == 1
    assert set(json.loads(out)) == {"dimension", "degree", "terms"}


def test_usage_error_and_version_leave_the_parser_usable(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["transform", "--method", "nope"])
    usage = capsys.readouterr().err
    assert "invalid choice: 'nope'" in usage
    for _ in range(2):
        assert main(["transform", "--method", "nope"]) == 2
        assert capsys.readouterr() == ("", usage)
    code, out = run(capsys, "--version")
    assert (code, out) == (0, f"conefourier {cli.__version__}\n")
    for commands in (COMMANDS, COMMANDS[::-1]):
        for name, argv, status in commands:
            assert run(capsys, *argv) == (status, (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")), name


def test_handlers_are_looked_up_at_call_time(capsys, monkeypatch):
    assert run(capsys, "validate", FAN_CONE)[0] == 0
    monkeypatch.setattr(cli, "cmd_validate", lambda args: f"patched {args.input}\n")
    assert run(capsys, "validate", FAN_CONE) == (0, f"patched {FAN_CONE}\n")


def test_json_integer_past_the_digit_limit_is_usage_error(capsys):
    cone = '{"apex":[0,0],"generators":[[1,0],[1%s,1]]}' % ("0" * 5000)
    code, out = run(capsys, "validate", cone)
    assert code == 2
    err = json.loads(out)
    assert err["code"] == "MalformedInput" and "4300 digits" in err["message"]


def exponent_cone(value: str) -> str:
    return '{"apex":[0,0],"generators":[[1,0],["%s",1]]}' % value


def test_rational_exponent_within_the_digit_limit_parses(capsys):
    code, out = run(capsys, "validate", exponent_cone("1e3"))  # the generator (1000, 1)
    assert code == 0 and json.loads(out)["witness"] == ["1", "-999"]
    assert run(capsys, "validate", exponent_cone("1e4300"))[0] == 0


@pytest.mark.parametrize("value, exponent", [("1e20000", "20000"), ("1E-4301", "-4301")])
def test_rational_exponent_past_the_digit_limit_is_usage_error(capsys, value, exponent):
    """Exponent notation scales by 10**exponent, so an exponent past the
    digit limit is refused before the value is built."""
    code, out = run(capsys, "validate", exponent_cone(value))
    assert code == 2
    assert json.loads(out) == {
        "code": "MalformedInput",
        "message": f"cannot parse rational '{value}': exponent {exponent} exceeds the limit (4300 digits)",
        "context": {},
    }


def test_deeply_nested_json_is_usage_error(capsys):
    code, out = run(capsys, "validate", "[" * 100000 + "]" * 100000)
    assert code == 2
    err = json.loads(out)
    assert err["code"] == "MalformedInput" and "recursion" in err["message"]


def parse_exact(text: str) -> Fraction:
    numerator, _, denominator = text.partition("/")
    return Fraction(int(Decimal(numerator)), int(Decimal(denominator or "1")))


@pytest.mark.parametrize("method", brion.METHODS)
def test_transform_prints_results_past_the_digit_limit(capsys, method):
    """3001-digit generators, within the input limit, give coefficients of
    6001 digits, printed exactly."""
    big = json.dumps({"apex": ["0", "0"], "generators": [["1", str(10**3000)], [str(3 * 10**3000), "1"], ["1", "1"]]})
    code, out = run(capsys, "transform", big, "--method", method)
    assert code == 0
    terms = json.loads(out)["terms"]
    assert max(len(t["coefficient"]) for t in terms) > 4300
    expected = pk_via_triangulation(cone_from_json(json.loads(big)))
    assert [parse_exact(t["coefficient"]) for t in terms] == [c for _, c in expected.terms()]


@pytest.mark.parametrize(
    "value",
    [Fraction(-(10**5000) - 7, 3), Fraction(7, 10**4400 + 1), -(10**4400), Fraction(5, 8)],
    ids=["numerator", "denominator", "int", "small"],
)
def test_format_rational_is_exact_at_any_size(value):
    text = format_rational(value)
    assert parse_exact(text) == value
    assert cli._jsonable([Fraction(value)]) == [text]
