import json
import tracemalloc

import pytest

from adelcat import cli
from adelcat.catfile import ParseError, parse_session, print_spec
from adelcat.cli import Session, parse_representation, run_command
from adelcat.provers import verify_certificate

SNAKE_SRC = """
category snake {
  objects a b c d;
  arrows alpha: a -> b; beta: b -> c; gamma: c -> d;
  relations alpha*beta*gamma = 0;
}
object K = (alpha | beta*gamma);
object C = (alpha*beta | gamma);
let ab = alpha*beta;
"""


@pytest.fixture()
def snake_file(tmp_path):
    path = tmp_path / "snake.cat"
    path.write_text(SNAKE_SRC)
    return str(path)


@pytest.fixture()
def session():
    return Session(parse_session(SNAKE_SRC))


class TestParser:
    def test_round_trip(self):
        spec = parse_session(SNAKE_SRC).category
        assert parse_session(print_spec(spec)).category == spec

    def test_round_trip_with_two_sided_relation(self):
        src = """
        category five {
          objects b c f g;
          arrows beta: b -> c; epsilon: b -> f; zeta: c -> g; iota: f -> g;
          relations beta*zeta = epsilon*iota;
        }
        """
        spec = parse_session(src).category
        assert parse_session(print_spec(spec)).category == spec
        assert len(spec.relations[0]) == 2  # moved to one side

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_session("category x {\n  objects a b\n}")
        assert "3:" in str(err.value)

    def test_non_decimal_digit_reported_with_position(self, tmp_path, capsys):
        # "²".isdigit() is true, but int("²") fails: it must be a plain
        # unexpected character, located like any other syntax error
        path = tmp_path / "sq.cat"
        path.write_text("category sq {\n  objects a b;\n  arrows f: a -> b;\n"
                        "  relations \u00b2*f = 0;\n}\n")
        code = run_command(["kernel", "f", "--source", "a", "--target", "b",
                            "--category", str(path)])
        assert code == 2
        assert capsys.readouterr().err == "error: 4:13: unexpected character '\u00b2'\n"

    def test_cyclic_quiver_rejected(self):
        src = """
        category loop {
          objects a b;
          arrows f: a -> b; g: b -> a;
        }
        """
        from adelcat.quivercat import CyclicQuiverError
        with pytest.raises(CyclicQuiverError):
            Session(parse_session(src))

    def test_non_parallel_relation_rejected(self):
        src = """
        category bad {
          objects a b c;
          arrows f: a -> b; g: b -> c;
          relations f = g;
        }
        """
        from adelcat.quivercat import RelationError
        with pytest.raises(RelationError):
            Session(parse_session(src))

    def test_integer_coefficients(self, session):
        lin = session.parse_expr_text("2*alpha*beta - alpha*beta")
        assert lin == session.cat.lin("a", "c", [1])

    def test_zero_via_cancellation(self, session):
        assert session.parse_mat_text("alpha*beta - alpha*beta").is_zero()
        lin = session.parse_expr_text("alpha*beta - alpha*beta")
        assert lin == session.cat.lin("a", "c", [0])

    def test_let_names_resolve(self, session):
        assert session.parse_expr_text("ab") == session.cat.lin("a", "c", [1])

    def test_identity_factor(self, session):
        lin = session.parse_expr_text("id(b)*beta")
        assert lin == session.cat.lin("b", "c", [1])

    def test_object_forms(self, session):
        assert session.parse_object_text("b").middle.summands == ("b",)
        assert session.parse_object_text("emb(b)").middle.summands == ("b",)
        assert session.parse_object_text("zero").middle.summands == ()
        k = session.parse_object_text("K")
        assert k.middle.summands == ("b",)
        triple = session.parse_object_text("(alpha | beta*gamma)")
        assert triple == k
        ker_style = session.parse_object_text("(| beta)")
        assert ker_style.rel_source.summands == ()
        cok_style = session.parse_object_text("(beta |)")
        assert cok_style.corel_target.summands == ()

    def test_mismatched_triple(self, session):
        from adelcat.quivercat import RelationError
        with pytest.raises(RelationError):
            session.parse_object_text("(alpha | gamma)")

    @pytest.mark.parametrize("form", ["b", "emb(b)", "zero", "K", "(alpha | beta*gamma)",
                                      "(| beta)", "(beta |)"])
    def test_object_line_and_argument_agree(self, form):
        named = Session(parse_session(SNAKE_SRC + f"object X = {form};\n"))
        assert named.objects["X"] == named.parse_object_text(form)

    @pytest.mark.parametrize("text, message", [
        ("(alpha | ", r"^1:10: expected 'name', found 'eof'$"),
        ("(|)", r"^1:1: a triple needs at least one side$"),
        ("  nope", r"^1:3: unknown object 'nope'$"),
        ("emb(zz)", r"^1:5: unknown vertex 'zz'$"),
        ("b c", r"^1:3: expected 'eof', found 'c'$"),
    ], ids=["open-triple", "empty-triple", "unknown-object", "unknown-vertex", "trailing"])
    def test_object_argument_error_has_position(self, session, text, message):
        with pytest.raises(ParseError, match=message):
            session.parse_object_text(text)

    @pytest.mark.parametrize("text, col, message", [
        ("alpha*foo", 7, "unknown arrow 'foo'"),
        ("id(q)", 4, "unknown vertex 'q'"),
        ("2*ab - ba", 8, "unknown arrow 'ba'"),
    ], ids=["arrow", "identity", "let"])
    def test_expression_argument_error_has_position(self, session, text, col, message):
        with pytest.raises(ParseError, match=f"^1:{col}: {message}$"):
            session.parse_expr_text(text)
        with pytest.raises(ParseError, match=f"^1:{col + 1}: {message}$"):
            session.parse_object_text(f"({text} |)")

    @pytest.mark.parametrize("argv, err", [
        (["kernel", "alpha*foo", "--source", "a", "--target", "b"],
         "error: 1:7: unknown arrow 'foo'\n"),
        (["kernel", "id(q)", "--source", "a", "--target", "a"],
         "error: 1:4: unknown vertex 'q'\n"),
    ], ids=["arrow", "identity"])
    def test_unknown_name_in_an_argument_exits_two(self, snake_file, capsys, argv, err):
        assert run_command(argv + ["--category", snake_file]) == 2
        assert capsys.readouterr().err == err

    def test_unknown_name_in_a_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cat"
        path.write_text(SNAKE_SRC + "let g = f*h;\n")
        assert run_command(["kernel", "beta", "--source", "b", "--target", "c",
                            "--category", str(path)]) == 2
        assert capsys.readouterr().err == "error: 10:9: unknown arrow 'f'\n"

    def test_unknown_arrow_endpoint_in_a_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cat"
        path.write_text("category s {\n  objects a;\n  arrows f: a -> b;\n}\n")
        assert run_command(["kernel", "f", "--source", "a", "--target", "b",
                            "--category", str(path)]) == 2
        assert capsys.readouterr().err == "error: 3:18: unknown vertex 'b'\n"

    def test_end_of_input_after_comment_has_position(self):
        with pytest.raises(ParseError,
                           match=r"^2:22: expected objects/arrows/relations, found 'eof'$"):
            parse_session("category x {\n  objects a b; # note")


class TestRepresentationFiles:
    def test_parse_and_validate(self, session):
        text = """
        # snake with multiplication by two
        rank a = 1
        rank b = 1
        rank c = 1
        rank d = 1
        matrix alpha = [[2]]
        """
        rep = parse_representation(session, text)
        assert rep.matrices["alpha"].to_rows() == [[2]]
        assert rep.matrices["beta"].is_zero()

    def test_malformed_matrix(self, session):
        with pytest.raises(ParseError):
            parse_representation(session, "rank a = 1\nmatrix alpha = [[oops]]")

    def test_unknown_line(self, session):
        with pytest.raises(ParseError):
            parse_representation(session, "ranks a = 1")

    @pytest.mark.parametrize("text, message", [
        ("rank a = 1\n# comment\nrank zz = 5\n", r"^3:1: unknown vertex 'zz'$"),
        ("rank a = 1\nmatrix zeta = [[1]]\n", r"^2:1: unknown arrow 'zeta'$"),
    ], ids=["vertex", "arrow"])
    def test_unknown_name_rejected_at_its_line(self, session, text, message):
        with pytest.raises(ParseError, match=message):
            parse_representation(session, text)

    @pytest.mark.parametrize("text, message", [
        ("rank a = 1\nrank b = 1\nrank a = 2\n", r"^3:1: repeated rank line for 'a'$"),
        ("rank a = 1\nrank b = 1\nmatrix alpha = [[1]]\n\nmatrix alpha = [[2]]\n",
         r"^5:1: repeated matrix line for 'alpha'$"),
    ], ids=["rank", "matrix"])
    def test_repeated_line_rejected_at_its_line(self, session, text, message):
        with pytest.raises(ParseError, match=message):
            parse_representation(session, text)

    @pytest.mark.parametrize("text, message", [
        ("rank a = -1\n", r"^1:1: negative rank for vertex 'a'$"),
        ("matrix alpha = [[1, 2]]\n# after the matrix\nrank a = 1\nrank b = 1\n",
         r"^1:1: matrix for arrow 'alpha' has shape \(1, 2\), expected \(1, 1\)$"),
        ("matrix alpha = [[1.7]]\n", r"^1:1: bad matrix literal for 'alpha'$"),
        ("matrix alpha = [['3']]\n", r"^1:1: bad matrix literal for 'alpha'$"),
        ("matrix alpha = [[True]]\n", r"^1:1: bad matrix literal for 'alpha'$"),
        ("rank a = 1\nmatrix alpha = [[1], [1, 2]]\n", r"^2:1: bad matrix literal for 'alpha'$"),
    ], ids=["negative-rank", "wrong-shape", "float", "string", "bool", "ragged"])
    def test_bad_value_rejected_at_its_line(self, session, text, message):
        with pytest.raises(ParseError, match=message):
            parse_representation(session, text)

    @pytest.mark.parametrize("text", ["rank zz = 5\n", "rank a = 1\nrank a = 1\n",
                                      "matrix alpha = [[1]]\nmatrix alpha = [[1]]\n",
                                      "rank a = -1\n",
                                      "rank a = 1\nrank b = 1\nmatrix alpha = [[1, 2]]\n",
                                      # every rank given, so only the matrix is at fault
                                      *("rank a = 1\nrank b = 1\nrank c = 1\nrank d = 1\n"
                                        f"matrix alpha = {m}\n"
                                        for m in ("[[1.7]]", "[['3']]", "[[True]]",
                                                  "[[1], [1, 2]]"))],
                             ids=["unknown-vertex", "repeated-rank", "repeated-matrix",
                                  "negative-rank", "wrong-shape", "float", "string", "bool",
                                  "ragged"])
    def test_rejected_representation_exits_two(self, snake_file, tmp_path, capsys, text):
        rep = tmp_path / "rep.txt"
        rep.write_text(text)
        assert run_command(["eval", "--rep", str(rep), "--category", snake_file]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCommands:
    def test_prove_snake_passes(self, capsys):
        code = run_command(["prove", "snake"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out

    def test_prove_snake_json(self, capsys):
        code = run_command(["prove", "snake", "--json", "--seed", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "prove"
        assert payload["verdict"] is True
        assert payload["inputs"]["seed"] == 0
        assert "timings" not in payload

    def test_json_requires_seed(self, capsys):
        code = run_command(["prove", "snake", "--json"])
        assert code == 2

    def test_json_byte_stability(self, capsys):
        run_command(["sweep", "--range", "-2..2", "--json", "--seed", "7"])
        first = capsys.readouterr().out
        run_command(["sweep", "--range", "-2..2", "--json", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_timings_attached_on_request(self, capsys):
        code = run_command(["prove", "uniqueness", "--json", "--seed", "1", "--timings"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "timings" in payload and "seconds" in payload["timings"]

    def test_sweep_results_map(self, capsys, monkeypatch):
        from adelcat import provers

        calls = []
        sweep = provers.sweep

        def counted_sweep(values):
            calls.append(values)
            return sweep(values)
        monkeypatch.setattr(provers, "sweep", counted_sweep)
        code = run_command(["sweep", "--range", "-3..3", "--json", "--seed", "0"])
        assert code == 0
        assert len(calls) == 1, "the sweep was computed more than once"
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"] == {
            "-3": False, "-2": False, "-1": True, "0": False,
            "1": True, "2": False, "3": False}

    def test_empty_sweep_range_exits_two(self, capsys):
        code = run_command(["sweep", "--range", "3..-3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least one value of s" in captured.err

    def test_mutated_snake_fails_with_exit_one(self, capsys):
        code = run_command(["prove", "snake", "--connecting-scale", "2"])
        assert code == 1

    def test_mutated_snake_json_records_its_scale(self, capsys):
        # an unscaled run records no scale, so its report stays as before
        for scale, code, extra in (("2", 1, {"connecting_scale": 2}), ("1", 0, {})):
            argv = ["prove", "snake", "--connecting-scale", scale, "--json", "--seed", "0"]
            assert run_command(argv) == code
            inputs = json.loads(capsys.readouterr().out)["inputs"]
            assert inputs == {"lemma": "snake", "seed": 0, **extra}

    @pytest.mark.parametrize("lemma", ["five", "uniqueness", "d4"])
    def test_connecting_scale_of_another_lemma_exits_two(self, lemma, capsys):
        assert run_command(["prove", lemma, "--connecting-scale", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --connecting-scale applies to prove snake, "
                                f"not to prove {lemma}\n")

    @pytest.mark.parametrize("argv", [["prove", "snake"], ["sweep"]], ids=["prove", "sweep"])
    def test_builtin_category_commands_refuse_a_category_file(self, argv, tmp_path, capsys):
        assert run_command(argv + ["--category", str(tmp_path / "missing.cat")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --category" in captured.err

    def test_hom_group_dowker(self, snake_file, capsys):
        code = run_command(["hom-group", "K", "C", "--category", snake_file,
                            "--json", "--seed", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariant_factors"] == []
        assert payload["free_rank"] == 1
        assert len(payload["generators"]) == 1

    def test_check_equal(self, snake_file, capsys):
        code = run_command(["check-equal", "beta", "beta",
                            "--source", "K", "--target", "C",
                            "--category", snake_file])
        assert code == 0
        code = run_command(["check-equal", "beta", "0 - beta",
                            "--source", "K", "--target", "C",
                            "--category", snake_file])
        assert code == 1

    def test_check_equal_ships_an_equal_certificate(self, snake_file, session, capsys):
        code = run_command(["check-equal", "ab", "2*ab", "--source", "a", "--target", "(ab |)",
                            "--category", snake_file, "--json", "--seed", "0"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["verdict"] is True
        [cert] = payload["certificates"]
        assert set(cert) == {"kind", "first", "second", "wp"} and cert["kind"] == "equal"
        assert verify_certificate(session.cat, cert)
        cert["second"] = cert["first"]  # ab - ab needs no witness, but this pair is not zero
        assert not verify_certificate(session.cat, cert)

    def test_kernel_cokernel(self, snake_file, capsys):
        code = run_command(["kernel", "beta", "--source", "b", "--target", "c",
                            "--category", snake_file, "--json", "--seed", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["object"]["corel"]["entries"] == [[[1]]]
        code = run_command(["cokernel", "alpha", "--source", "a", "--target", "b",
                            "--category", snake_file])
        assert code == 0

    def test_is_exact(self, snake_file, capsys):
        code = run_command(["is-exact", "id(b)", "beta",
                            "--objects", "(| beta)", "b", "c",
                            "--category", snake_file])
        assert code == 0

    def test_is_exact_composite_error(self, snake_file, capsys):
        code = run_command(["is-exact", "alpha", "beta",
                            "--objects", "a", "b", "c",
                            "--category", snake_file])
        assert code == 2

    def test_predicates(self, snake_file, capsys):
        assert run_command(["is-mono", "id(c)", "--source", "(| gamma)",
                            "--target", "c", "--category", snake_file]) == 0
        assert run_command(["is-epi", "beta", "--source", "b", "--target", "c",
                            "--category", snake_file]) == 1
        assert run_command(["is-iso", "id(b)", "--source", "b", "--target", "b",
                            "--category", snake_file]) == 0

    @pytest.mark.parametrize("argv", [
        ["is-mono", "id(c)", "--source", "(| gamma)", "--target", "c"],
        ["is-epi", "id(c)", "--source", "c", "--target", "(alpha*beta |)"],
        ["is-iso", "id(b)", "--source", "b", "--target", "b"],
    ], ids=["mono", "epi", "iso"])
    def test_positive_predicate_ships_its_certificate(self, snake_file, session, capsys, argv):
        code = run_command(argv + ["--category", snake_file, "--json", "--seed", "0"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["verdict"] is True
        [cert] = payload["certificates"]
        assert cert["kind"] == argv[0][3:]
        assert verify_certificate(session.cat, cert)

    @pytest.mark.parametrize("argv", [
        ["is-mono", "beta", "--source", "b", "--target", "c"],
        ["is-epi", "beta", "--source", "b", "--target", "c"],
        ["is-iso", "beta", "--source", "K", "--target", "C"],
    ], ids=["mono", "epi", "iso"])
    def test_negative_predicate_carries_no_certificate(self, snake_file, capsys, argv):
        code = run_command(argv + ["--category", snake_file, "--json", "--seed", "0"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1 and payload["verdict"] is False
        assert payload["certificates"] == []
        assert run_command(argv + ["--category", snake_file]) == 1
        assert capsys.readouterr().out == f"{argv[0][3:]}: False\nverdict: FAIL\n"

    def test_bare_zero_takes_the_command_objects(self, snake_file, capsys):
        assert run_command(["kernel", "0", "--source", "b", "--target", "c",
                            "--category", snake_file]) == 0
        assert run_command(["is-exact", "0", "beta", "--objects", "a", "b", "c",
                            "--category", snake_file]) == 1
        capsys.readouterr()
        assert run_command(["is-epi", "0", "--source", "b", "--target", "c",
                            "--category", snake_file]) == 1
        assert capsys.readouterr().out == "epi: False\nverdict: FAIL\n"

    def test_bare_zero_without_objects_exits_two(self, snake_file, tmp_path, capsys):
        path = tmp_path / "zero.cat"
        path.write_text(SNAKE_SRC + "let z = 0;\n")
        for argv in (["connecting", "0", "beta", "gamma", "--category", snake_file],
                     ["kernel", "beta", "--source", "b", "--target", "c", "--category", str(path)]):
            assert run_command(argv) == 2
            assert capsys.readouterr().err == (
                "error: cannot infer the endpoints of a bare zero expression\n")

    def test_connecting(self, snake_file, capsys):
        code = run_command(["connecting", "alpha", "beta", "gamma",
                            "--category", snake_file, "--json", "--seed", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["morphism"]["datum"]["entries"] == [[[1]]]

    def test_homology_command(self, snake_file, capsys):
        code = run_command(["homology", "alpha", "beta",
                            "--objects", "a", "b", "c",
                            "--category", snake_file])
        assert code == 0

    def test_eval_command(self, snake_file, tmp_path, capsys):
        rep = tmp_path / "rep.txt"
        rep.write_text("rank a = 1\nrank b = 1\nrank c = 1\nrank d = 1\n"
                       "matrix alpha = [[2]]\n")
        code = run_command(["eval", "--rep", str(rep), "--object", "(alpha |)",
                            "--category", snake_file, "--json", "--seed", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariant_factors"] == [2]
        assert payload["free_rank"] == 0

    def test_eval_invalid_representation(self, snake_file, tmp_path, capsys):
        rep = tmp_path / "rep.txt"
        rep.write_text("rank a = 1\nrank b = 1\nrank c = 1\nrank d = 1\n"
                       "matrix alpha = [[1]]\nmatrix beta = [[1]]\nmatrix gamma = [[1]]\n")
        code = run_command(["eval", "--rep", str(rep), "--category", snake_file])
        assert code == 1

    def test_unknown_morphism_name(self, snake_file, capsys):
        code = run_command(["kernel", "nope", "--source", "b", "--target", "c",
                            "--category", snake_file])
        assert code == 2

    def test_missing_category(self, capsys):
        code = run_command(["kernel", "beta", "--source", "b", "--target", "c"])
        assert code == 2

    @pytest.mark.parametrize("argv", [["hom-group", "a", "b"],
                                      ["kernel", "beta", "--source", "b", "--target", "c"]],
                             ids=["hom-group", "kernel"])
    def test_missing_category_error_has_no_position(self, capsys, argv):
        # a usage error, so its message has no position in any file
        assert run_command(argv) == 2
        assert capsys.readouterr().err == "error: this command needs --category FILE\n"

    def test_unreadable_category_path(self, capsys):
        code = run_command(["kernel", "beta", "--source", "b", "--target", "c",
                            "--category", "/nonexistent/x.cat"])
        assert code == 2

    def test_usage_error_exit_two(self, capsys):
        assert run_command(["kernel"]) == 2
        assert run_command(["frobnicate"]) == 2

    def test_prove_d4(self, capsys):
        assert run_command(["prove", "d4"]) == 0

    def test_parser_tables_agree(self):
        import argparse
        [sub] = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        [lemma] = [a for a in sub.choices["prove"]._actions if a.dest == "lemma"]
        assert set(lemma.choices) == set(cli._LEMMAS)

    def test_claim_commands_are_the_claim_table(self):
        # every is-<kind> command states a claim of the table; zero and
        # equal are claims too, stated by check-equal, not by is-zero/is-equal
        import argparse
        from adelcat.adelman import CLAIMS
        [sub] = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        commands = {c for c in sub.choices if c.startswith("is-")}
        assert commands == {"is-mono", "is-epi", "is-iso", "is-exact"}
        assert {c.removeprefix("is-") for c in commands} | {"zero", "equal"} == set(CLAIMS)

    def test_every_adelcat_error_is_a_value_error(self):
        # run_command turns ValueError into exit 2; any other error class
        # would escape as a traceback
        import importlib
        import pkgutil
        import adelcat
        errors = []
        for info in pkgutil.iter_modules(adelcat.__path__):
            module = importlib.import_module(f"adelcat.{info.name}")
            errors += [obj for obj in vars(module).values()
                       if isinstance(obj, type) and issubclass(obj, BaseException)
                       and obj.__module__ == module.__name__]
        assert len(errors) >= 10
        for error in errors:
            assert issubclass(error, ValueError), error.__qualname__

    def test_consecutive_commands_match_fresh_runs(self, snake_file, capsys):
        first = ["hom-group", "K", "C", "--category", snake_file, "--json", "--seed", "0"]
        second = ["kernel", "beta", "--source", "b", "--target", "c",
                  "--category", snake_file, "--json", "--seed", "3"]
        together = []
        for argv in (first, second):
            code = run_command(argv)
            together.append((code, capsys.readouterr().out))
        alone = []
        for argv in (first, second):
            cli.build_parser.cache_clear()
            code = run_command(argv)
            alone.append((code, capsys.readouterr().out))
        assert together == alone
        assert [code for code, _ in together] == [0, 0]


def _chain_text(n: int, parallel: str = "a") -> str:
    """An n-vertex chain with one arrow per letter of ``parallel`` per step."""
    objects = " ".join(f"v{i}" for i in range(n))
    arrows = " ".join(f"{x}{i}: v{i} -> v{i + 1};"
                      for i in range(n - 1) for x in parallel)
    return f"category chain {{\n  objects {objects};\n  arrows {arrows}\n}}\n"


# x0*x1*...*x12: one of the 2**13 paths from v0 to v13 of the doubled chain
_NEAR_CAP = "*".join(f"x{i}" for i in range(13))


def _commuting_doubled_chain_text(k: int) -> str:
    """The doubled chain on v0..vk whose squares commute: x_i*y_{i+1} = y_i*x_{i+1}."""
    rels = " ".join(f"x{i}*y{i + 1} = y{i}*x{i + 1};" for i in range(k - 1))
    return _chain_text(k + 1, parallel="xy").replace("\n}", f"\n  relations {rels}\n}}")


class TestCommutingDoubledChain:
    """2**8 paths run from v0 to v8, and the commuting squares identify any
    two with as many x arrows: Hom(v0, v8) has 9 coordinates."""

    def test_coordinates_count_the_classes(self):
        from adelcat.catfile import build_category, parse_session
        cat = build_category(parse_session(_commuting_doubled_chain_text(8)).category)
        assert len(cat.paths("v0", "v8")) == 256
        assert cat.dim("v0", "v8") == 9

    def test_hom_group_is_free_of_rank_nine(self, tmp_path, capsys):
        path = tmp_path / "commuting.cat"
        path.write_text(_commuting_doubled_chain_text(8))
        code = run_command(["hom-group", "v0", "v8", "--category", str(path)])
        assert code == 0
        assert capsys.readouterr().out.startswith("Hom group: Z^9 (")


class TestLargeInputs:
    def test_long_chain_kernel(self, tmp_path, capsys):
        path = tmp_path / "deep.cat"
        path.write_text(_chain_text(1100))
        code = run_command(["kernel", "a0", "--source", "v0", "--target", "v1",
                            "--category", str(path)])
        assert code == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_doubled_chain_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "doubled.cat"
        path.write_text(_chain_text(40, parallel="xy"))
        code = run_command(["hom-group", "v0", "v39", "--category", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: more than") and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["check-equal", _NEAR_CAP, _NEAR_CAP], ["kernel", _NEAR_CAP]], ids=["check-equal", "kernel"])
    def test_path_basis_near_the_cap(self, command, tmp_path, capsys):
        # 2**13 = 8192 basis paths from v0 to v13, under MAX_PATH_BASIS
        path = tmp_path / "doubled.cat"
        path.write_text(_chain_text(40, parallel="xy"))
        tracemalloc.start()
        try:
            code = run_command(command + ["--source", "v0", "--target", "v13",
                                          "--category", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak < 64 * 2**20

    def test_path_basis_past_the_cap_exits_two(self, tmp_path, capsys):
        path = tmp_path / "doubled.cat"
        path.write_text(_chain_text(40, parallel="xy"))
        code = run_command(["kernel", _NEAR_CAP + "*x13", "--source", "v0", "--target", "v14",
                            "--category", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: more than 10000 paths from 'v0' to 'v14'\n"

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--range", "0..100000000000000000000"],
         "adelcat sweep: error: argument --range: range has more than 10000 values"),
        (["eval", "--rep", "{rep}", "--category", "{snake}"],
         "error: 1:1: rank for vertex 'a' is above 1000"),
    ], ids=["sweep", "eval-rank"])
    def test_oversized_number_exits_two(self, argv, message, snake_file, tmp_path, capsys):
        # past the platform's index size, and so past the cap: refused while parsing
        rep = tmp_path / "big.rep"
        rep.write_text("rank a = 99999999999999999999\nrank b = 1\nrank c = 1\nrank d = 1\n")
        code = run_command([arg.format(rep=rep, snake=snake_file) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert [line for line in err.splitlines() if "error:" in line] == [message]
        assert "Traceback" not in err

    def test_sweep_range_width_is_capped(self, capsys):
        assert cli._parse_range("1..10000") == (1, cli.MAX_SWEEP_VALUES)
        assert cli._parse_range("3..-3") == (3, -3)  # empty: refused by the sweep itself
        for text in ("0..10000", "0..1000000000", "-1000000000..1000000000"):
            with pytest.raises(cli.argparse.ArgumentTypeError, match="more than 10000 values"):
                cli._parse_range(text)
        assert run_command(["sweep", "--range", "-1000000000..1000000000"]) == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --range: range has more than 10000 values\n")

    def test_representation_rank_is_capped(self, session, snake_file, tmp_path, capsys):
        ranks = "rank b = 1\nrank c = 1\nrank d = 1\n"
        rep = parse_representation(session, f"rank a = {cli.MAX_RANK}\n" + ranks)
        assert rep.matrices["alpha"].shape == (cli.MAX_RANK, 1)
        with pytest.raises(ParseError, match="above 1000"):
            parse_representation(session, ranks + "rank a = 1001\n")
        path = tmp_path / "big.rep"
        path.write_text(ranks + "rank a = 1000000000\n")
        assert run_command(["eval", "--rep", str(path), "--category", snake_file]) == 2
        assert capsys.readouterr().err == "error: 4:1: rank for vertex 'a' is above 1000\n"

    @pytest.mark.parametrize("exc", [RecursionError, MemoryError])
    def test_resource_errors_exit_two(self, exc, snake_file, capsys, monkeypatch):
        def exhausted(*args):
            raise exc()
        monkeypatch.setattr(cli, "hom_group", exhausted)
        code = run_command(["hom-group", "K", "C", "--category", snake_file])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
