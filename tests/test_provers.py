import copy
import functools
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from adelcat import addclosure, adelman, homgroups, provers
from adelcat.adelman import (
    CLAIMS,
    AdelMorphism,
    CompositeNotZeroError,
    WitnessError,
    cokernel,
    compose,
    emb_morphism,
    image,
    is_epi,
    is_equal,
    is_exact,
    is_iso,
    is_mono,
    is_zero_morphism,
    kernel,
    zero_adel_object,
    zero_morphism,
)
from adelcat.provers import (
    category_by_name,
    claim_certificate,
    explore_d4,
    explicit_five_witness,
    explicit_sweep_witness,
    prove_connecting_uniqueness,
    prove_refined_five,
    prove_snake,
    replay_report,
    sweep,
    sweep_report,
    to_json,
    verify_certificate,
)
from adelcat.homgroups import hom_group
from adelcat.quivercat import EndpointError

from adelbench import gen
from test_homgroups import _ladder_pairs


class TestSnakeProver:
    def test_full_run_passes(self):
        report = prove_snake()
        assert report.overall
        assert len(report.checks) >= 30

    def test_reports_are_deterministic(self):
        d1 = prove_snake().to_dict()
        d2 = prove_snake().to_dict()
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_mutated_connecting_fails_at_connecting_positions(self):
        report = prove_snake(connecting_scale=2)
        assert not report.overall
        failing = [c.description for c in report.checks if not c.verdict]
        assert failing == [
            "blue sequence exact at K (connecting source)",
            "blue sequence exact at C (connecting target)",
        ]

    def test_mutation_by_minus_one_still_passes(self):
        assert prove_snake(connecting_scale=-1).overall

    def test_every_passing_check_has_certificate(self):
        report = prove_snake()
        for check in report.checks:
            assert check.verdict
            assert check.certificate is not None


class TestSweep:
    def test_boundary(self):
        results = sweep(range(-3, 4))[1]
        assert results == {-3: False, -2: False, -1: True, 0: False,
                           1: True, 2: False, 3: False}

    def test_explicit_witness_at_plus_minus_one(self, snake_fig):
        for s in (-1, 1):
            via, wp = explicit_sweep_witness(snake_fig, s, snake_fig.connecting.scale(s))
            assert wp.verifies(via.source, via.target, via.datum)

    def test_sweep_builds_each_scaled_morphism_once(self, underlying):
        # the closed-form checks at s = -1, +1 reuse the kernels of the
        # claims (9 runs when each built its own scaled morphism)
        sweep(range(-3, 4))
        assert underlying["KernelResult"] == 7

    def test_explicit_witness_fails_elsewhere(self, snake_fig):
        for s in (-2, 0, 2, 3):
            via, wp = explicit_sweep_witness(snake_fig, s, snake_fig.connecting.scale(s))
            assert not wp.verifies(via.source, via.target, via.datum)

    @pytest.mark.parametrize("run", [sweep, sweep_report], ids=["sweep", "sweep_report"])
    def test_empty_sweep_is_an_error(self, run):
        with pytest.raises(ValueError, match="at least one value of s"):
            run([])

    def test_sweep_report_matches_mutation_hook(self):
        report = sweep_report(range(-3, 4))
        assert report.overall
        for s in range(-3, 4):
            mutated = prove_snake(connecting_scale=s)
            expected_exact = s in (-1, 1)
            conn_checks = [c for c in mutated.checks
                           if "connecting source" in c.description]
            assert conn_checks[0].verdict == expected_exact


class TestUniqueness:
    def test_report(self):
        report = prove_connecting_uniqueness()
        assert report.overall
        descriptions = [c.description for c in report.checks]
        assert any("free of rank one" in d for d in descriptions)
        assert any("up to sign" in d for d in descriptions)


class TestRefinedFive:
    def test_report(self, five_data):
        report = prove_refined_five()
        assert report.overall, [c.description for c in report.checks if not c.verdict]

    def test_explicit_witness_matrices(self, five_data):
        from adelcat.addclosure import identity_mat
        k4 = kernel(five_data.m4)
        wp = explicit_five_witness(five_data)
        assert wp.verifies(k4.obj, k4.obj, identity_mat(k4.obj.middle))

    def test_step_objects_match_explicit_forms(self, five_data):
        assert kernel(five_data.nu).obj == five_data.w2
        assert cokernel(five_data.m3).obj == five_data.w3

    def test_squares_really_commute(self, five_data):
        from adelcat.adelman import compose
        assert is_equal(compose(five_data.top2, five_data.zeta),
                        compose(five_data.eps, five_data.bot2)) is not None


class TestD4:
    def test_exploration_runs(self):
        report = explore_d4()
        assert report.overall

    def test_images_incomparable(self):
        report = explore_d4()
        pairwise = [c for c in report.checks if "pairwise" in c.description][0]
        assert "!<=" in pairwise.summary

    def test_image_embeddings_carry_mono_certificates(self):
        checks = explore_d4().to_dict()["checks"]
        monos = [c for c in checks if c["description"].startswith("embedding of im(")]
        assert len(monos) == 3
        for check in monos:
            assert check["verdict"] and check["certificate"]["kind"] == "mono"
            assert verify_certificate(category_by_name("d4"), check["certificate"])

    def test_each_join_is_compared_with_both_parts(self, monkeypatch):
        compared = []
        real = adelman.subobject_leq
        monkeypatch.setattr(adelman, "subobject_leq",
                            lambda i1, i2: compared.append((i1, i2)) or real(i1, i2))
        assert explore_d4().overall
        session = provers._session("d4")
        images = {lbl: image(emb_morphism(session.arrow(lbl))).emb for lbl in "pqr"}
        wanted = []
        for la, lb in (("p", "q"), ("p", "r"), ("q", "r")):
            join = image(adelman.morphism_from_sum(images[la], images[lb])).emb
            wanted += [(images[la], join), (images[lb], join)]
        assert sum(pair in compared for pair in wanted) == 6

    @pytest.mark.parametrize("key", ["source", "target"])
    def test_endpoint_written_as_a_string_fails_replay(self, key):
        """``"wx"`` names the vertices ``w`` and ``x`` only as a list."""
        report = explore_d4().to_dict()
        corel = next(c["certificate"] for c in report["checks"]
                     if c["certificate"] and c["certificate"]["kind"] == "mono"
                     )["morphism"]["source"]["corel"]
        assert {"source": ["w", "x"], "target": ["w"]}[key] == corel[key]
        assert replay_report(report)
        corel[key] = "".join(corel[key])
        assert replay_report(report) is False


class TestReplay:
    @pytest.mark.parametrize("builder", [
        prove_snake,
        prove_connecting_uniqueness,
        prove_refined_five,
        lambda: sweep_report(range(-2, 3)),
    ])
    def test_replay_accepts_genuine_reports(self, builder):
        report = builder().to_dict()
        json.dumps(report)  # must be serializable
        assert replay_report(report)

    def test_replay_rejects_tampered_witness(self, snake_report, equal_report):
        # the witness pairs of the provers' equal certificates have no
        # entries (their squares commute on the nose), hence equal_report
        for kind, report in (("zero", snake_report), ("equal", equal_report)):
            tampered = copy.deepcopy(report)
            coeffs = next(coeffs for cert in _certs_of_kind(tampered, kind)
                          for sigma in cert["wp"].values()
                          for row in sigma["entries"] for coeffs in row if any(coeffs))
            coeffs[0] += 1
            assert not replay_report(tampered), kind

    def test_replay_rejects_tampered_verdict_on_mono(self):
        report = prove_refined_five().to_dict()
        tampered = copy.deepcopy(report)
        for check in tampered["checks"]:
            cert = check.get("certificate")
            if cert and cert["kind"] == "mono":
                for mat in (cert["kernel_zero_wp"]["sigma1"],
                            cert["kernel_zero_wp"]["sigma2"]):
                    for row in mat["entries"]:
                        for coeffs in row:
                            if coeffs:
                                coeffs[0] += 3
                                assert not replay_report(tampered)
                                return
        pytest.fail("expected a tamperable mono certificate in the refined five report")

    def test_category_lookup(self):
        assert category_by_name("snake").name == "snake"
        with pytest.raises(ValueError):
            category_by_name("heptagon")

    @pytest.mark.parametrize("name", ["snake", "five", "d4"])
    def test_category_lookup_returns_one_category_per_name(self, name):
        assert category_by_name(name) is category_by_name(name) is provers._session(name).cat

    def test_unknown_category_caches_nothing(self):
        cached = provers._session.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown prover category 'heptagon'"):
                category_by_name("heptagon")
        assert provers._session.cache_info().currsize == cached

    def test_figure_objects_are_read_only(self, snake_fig, five_data):
        for objects in (snake_fig.objects, snake_fig.emb, five_data.objects,
                        provers._session("snake").lets):
            with pytest.raises(TypeError):
                objects["K"] = kernel(snake_fig.eps).obj
        assert "K" not in five_data.objects and "K" not in snake_fig.emb

    def test_replay_after_the_prover_runs_what_it_runs_alone(self, underlying):
        # the built-in category is shared, the proof state is not: replay
        # right after the prover runs the constructions it runs in a new process
        report = prove_snake().to_dict()
        underlying.clear()
        assert replay_report(report)
        after_prover = dict(underlying)
        assert min(after_prover.values()) > 0
        assert _in_a_new_process(_COUNTED_REPLAY, json.dumps(report)) == after_prover

    def test_shared_figure_keeps_no_proof_state(self):
        # the snake figure is built once per process; a mutated run and a
        # sweep over it leave the next report as a new process makes it
        assert provers.build_snake_figure() is provers.build_snake_figure()
        prove_snake(connecting_scale=2)
        sweep(range(-3, 4))
        report = prove_snake().to_dict()
        assert _in_a_new_process(_FRESH_SNAKE) == json.loads(json.dumps(report))

    @pytest.mark.parametrize("report, message", [
        ({}, "no category name"),
        ([], "no category name"),
        ({"category": 3, "checks": []}, "no category name"),
        ({"category": "snake"}, "no list of checks"),
        ({"category": "snake", "checks": {}}, "no list of checks"),
        ({"category": "snake", "checks": []}, "empty list of checks"),
        ({"category": "snake", "checks": [1]}, "check 0 has no boolean verdict"),
        ({"category": "snake", "checks": [{"verdict": True}, {"certificate": None}]},
         "check 1 has no boolean verdict"),
        ({"category": "snake", "checks": [{"verdict": "yes"}]},
         "check 0 has no boolean verdict"),
    ], ids=["empty", "not-an-object", "category-not-a-string", "no-checks",
            "checks-not-a-list", "checks-empty", "check-not-an-object", "no-verdict",
            "verdict-not-a-bool"])
    def test_malformed_report_is_a_value_error(self, report, message):
        with pytest.raises(ValueError, match=f"^malformed report: {message}$"):
            replay_report(report)

    @pytest.mark.parametrize("kind, edit", [
        ("mono", lambda cert: cert.update(kind="epi")),  # no cokernel_zero_wp
        ("exact", lambda cert: cert.pop("second")),
        ("equal", lambda cert: cert.update(wp=["sigma1", "sigma2"])),
        ("zero", lambda cert: cert.update(wp=["sigma1", "sigma2"])),
        ("invariants", lambda cert: cert.update(ngens=True)),
        ("invariants", lambda cert: cert.update(free_rank=1.0)),
    ], ids=["mono-relabelled-epi", "exact-without-second", "wp-not-a-dict", "zero-wp-not-a-dict",
            "ngens-a-bool", "free-rank-a-float"])
    def test_malformed_certificate_fails_replay(self, five_report, snake_report,
                                                uniqueness_report, kind, edit):
        report = {"mono": five_report, "invariants": uniqueness_report}.get(kind, snake_report)
        tampered = copy.deepcopy(report)
        cert = next(c["certificate"] for c in tampered["checks"]
                    if c["certificate"] and c["certificate"]["kind"] == kind)
        edit(cert)
        assert replay_report(tampered) is False

    def test_verify_certificate_unknown_kind(self, snake_cat):
        with pytest.raises(ValueError):
            verify_certificate(snake_cat, {"kind": "mystery"})

    @pytest.mark.parametrize("edit", [
        lambda entries: entries[0].append([0]),
        lambda entries: entries.append([[0]]),
        lambda entries: entries[0][0].__setitem__(0, 1.0),
        lambda entries: entries[0][0].__setitem__(0, True),
    ], ids=["extra-entry", "extra-row", "coefficient-a-float", "coefficient-a-bool"])
    def test_malformed_matrix_grid_fails_replay(self, snake_report, edit):
        tampered = copy.deepcopy(snake_report)
        edit(_certs_of_kind(tampered, "exact")[0]["first"]["datum"]["entries"])
        assert replay_report(tampered) is False


@pytest.fixture(scope="module")
def five_report():
    return prove_refined_five().to_dict()


# A replay of the report on stdin in a new process, printing the counts of
# the ``underlying`` fixture.
_COUNTED_REPLAY = """
import json, sys
from conftest import count_constructions
from adelcat import provers
counts = count_constructions()
assert provers.replay_report(json.load(sys.stdin))
print(json.dumps(counts))
"""

# The snake report of a new process.
_FRESH_SNAKE = """
import json
from adelcat import provers
print(json.dumps(provers.prove_snake().to_dict()))
"""


def _in_a_new_process(script: str, stdin: str = ""):
    """The JSON that ``script`` prints, run in a new interpreter that
    imports this checkout and these tests."""
    paths = (Path(provers.__file__).resolve().parent.parent, Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        str(p) for p in (*paths, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script], input=stdin,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def snake_report():
    return prove_snake().to_dict()


@pytest.fixture(scope="module")
def uniqueness_report():
    return prove_connecting_uniqueness().to_dict()


@pytest.fixture(scope="module")
def equal_report(snake_fig):
    """A one-check report whose equal certificate has a nonzero datum to
    witness: the zero composite blue2 * connecting against the zero morphism."""
    composite = compose(snake_fig.blue2, snake_fig.connecting)
    cert = claim_certificate("equal", composite,
                             zero_morphism(composite.source, composite.target))
    return {"category": "snake", "checks": [{"verdict": True, "certificate": cert}]}


def _certs_of_kind(report, kind):
    return [c["certificate"] for c in report["checks"]
            if c["certificate"] and c["certificate"]["kind"] == kind]


class TestZeroTestReplay:
    """Zero, equal, mono, epi, iso and exact certificates replay through one table."""

    def test_certificate_only_for_zero_objects(self, five_data):
        assert claim_certificate("mono", five_data.zeta) is None
        cert = claim_certificate("epi", cokernel(five_data.lam).proj)
        assert set(cert) == {"kind", "morphism", "cokernel_zero_wp"}
        assert verify_certificate(five_data.cat, cert)

    @pytest.mark.parametrize("kind, other", [("mono", "epi"), ("epi", "mono")])
    def test_relabelled_certificate_rejected(self, five_report, five_cat, kind, other):
        [(key, _)] = CLAIMS[kind][1]
        [(other_key, _)] = CLAIMS[other][1]
        certs = _certs_of_kind(five_report, kind)
        assert certs
        for cert in certs:
            assert verify_certificate(five_cat, cert)
            forged = copy.deepcopy(cert)
            forged["kind"] = other
            forged[other_key] = forged.pop(key)
            assert not verify_certificate(five_cat, forged)

    @pytest.mark.parametrize("forge", [
        lambda c: (c["cokernel_zero_wp"], c["kernel_zero_wp"]),  # swapped
        lambda c: (c["kernel_zero_wp"], c["kernel_zero_wp"]),    # one pair valid
    ], ids=["swapped", "kernel-pair-twice"])
    def test_iso_with_misplaced_witnesses_rejected(self, five_report, five_cat, forge):
        certs = _certs_of_kind(five_report, "iso")
        assert len(certs) == 3
        for cert in certs:
            assert verify_certificate(five_cat, cert)
            forged = copy.deepcopy(cert)
            forged["kernel_zero_wp"], forged["cokernel_zero_wp"] = forge(forged)
            assert not verify_certificate(five_cat, forged)

    def test_every_emitted_kind_replays(self, five_report, tmp_path, capsys):
        from adelcat.catfile import parse_session
        from adelcat.cli import Session, run_command
        emitted = []
        for report in (prove_snake().to_dict(), prove_connecting_uniqueness().to_dict(),
                       sweep_report(range(-1, 2)).to_dict(), explore_d4().to_dict()):
            cat = category_by_name(report["category"])
            emitted += [(cat, c["certificate"]) for c in report["checks"] if c["certificate"]]
        emitted += [(category_by_name("five"), c["certificate"])
                    for c in five_report["checks"] if c["certificate"]]
        path = tmp_path / "snake.cat"
        text = ("category snake { objects a b c d; arrows alpha: a -> b; "
                "beta: b -> c; gamma: c -> d; relations alpha*beta*gamma = 0; }")
        path.write_text(text)
        session_cat = Session(parse_session(text)).cat
        k, c = "(alpha | beta*gamma)", "(alpha*beta | gamma)"
        for argv in (["check-equal", "beta", "beta", "--source", k, "--target", c],
                     ["is-exact", "id(b)", "beta", "--objects", "(| beta)", "b", "c"],
                     ["is-mono", "id(c)", "--source", "(| gamma)", "--target", "c"],
                     ["is-epi", "id(c)", "--source", "c", "--target", "(alpha*beta |)"],
                     ["is-iso", "id(b)", "--source", "b", "--target", "b"],
                     ["hom-group", k, c]):
            assert run_command(argv + ["--category", str(path), "--json", "--seed", "0"]) == 0
            emitted += [(session_cat, cert)
                        for cert in json.loads(capsys.readouterr().out)["certificates"]]
        kinds = [cert["kind"] for _, cert in emitted]
        assert set(kinds) == {*CLAIMS, "structural", "invariants"}
        assert kinds.count("exact") == 12 + 2 + 1  # prove snake, sweep, is-exact
        assert kinds.count("equal") == 6 + 1 + 4 + 1  # snake, uniqueness, five, check-equal
        for cat, cert in emitted:
            assert verify_certificate(cat, cert), cert["kind"]

    @pytest.mark.parametrize("forge", [
        lambda c, other: (c["second"], c["first"]),  # swapped
        lambda c, other: (c["first"], other["second"]),  # another check's second
    ], ids=["swapped", "foreign-second"])
    def test_exact_with_noncomposable_morphisms_rejected(self, snake_report, snake_cat, forge):
        certs = _certs_of_kind(snake_report, "exact")
        for cert, other in zip(certs, certs[1:] + certs[:1]):
            forged = copy.deepcopy(cert)
            forged["first"], forged["second"] = forge(forged, other)
            assert not verify_certificate(snake_cat, forged)
        tampered = copy.deepcopy(snake_report)
        cert = next(c["certificate"] for c in tampered["checks"]
                    if c["certificate"]["kind"] == "exact")
        cert["first"], cert["second"] = cert["second"], cert["first"]
        assert not replay_report(tampered)

    def test_zeroed_witness_pairs_rejected(self, snake_report, five_report, equal_report):
        """A zeroed pair verifies only a datum that is zero as a matrix; the
        datum is rebuilt from the morphisms, not read from the certificate.
        The provers' squares commute on the nose, so among their certificates
        only the zero composites of the snake and the sweep have a datum to
        witness."""
        reports = {
            "snake": snake_report, "five": five_report,
            "uniqueness": prove_connecting_uniqueness().to_dict(),
            "sweep": sweep_report(range(-1, 2)).to_dict(),
            "equal": equal_report,
        }
        rejected = Counter()
        for name, report in reports.items():
            cat = category_by_name(report["category"])
            tampered = copy.deepcopy(report)
            certs = _certs_of_kind(tampered, "equal") + _certs_of_kind(tampered, "zero")
            assert certs, name
            for cert in certs:
                fs = [provers.from_json(cat, AdelMorphism, cert[n]) for n in CLAIMS[cert["kind"]][0]]
                [(_, rebuild)] = CLAIMS[cert["kind"]][1]
                datum_is_zero = rebuild(*fs)[2].is_zero()
                for sigma in cert["wp"].values():
                    for row in sigma["entries"]:
                        row[:] = [[0] * len(coeffs) for coeffs in row]
                assert verify_certificate(cat, cert) == datum_is_zero
                rejected[cert["kind"]] += not datum_is_zero
            assert replay_report(tampered) == (name in ("five", "uniqueness")), name
        assert rejected == {"equal": 1, "zero": 6}

    def test_equal_with_foreign_second_rejected(self, snake_report, snake_cat):
        certs = _certs_of_kind(snake_report, "equal")
        forged = 0
        for cert in certs:
            for other in certs:
                if other["second"]["source"] != cert["first"]["source"]:
                    bad = copy.deepcopy(cert)
                    bad["second"] = other["second"]
                    assert verify_certificate(snake_cat, bad) is False
                    forged += 1
        assert forged >= len(certs)

    @pytest.mark.parametrize("report, description, key", [
        (lambda: sweep_report([1]), "closed-form witness pair valid for s = 1", "wp"),
        (lambda: sweep_report([-1]), "closed-form witness pair valid for s = -1", "wp"),
        (prove_refined_five, "step 4: the explicit witness matrices certify the kernel is zero",
         "kernel_zero_wp"),
    ], ids=["sweep-plus-one", "sweep-minus-one", "five-step-4"])
    def test_changed_closed_form_entry_rejected(self, report, description, key):
        report = report().to_dict()
        cat = category_by_name(report["category"])
        [index] = [i for i, c in enumerate(report["checks"]) if c["description"] == description]
        cert = report["checks"][index]["certificate"]
        assert verify_certificate(cat, cert)
        changed = 0
        for sigma in ("sigma1", "sigma2"):
            for i, row in enumerate(cert[key][sigma]["entries"]):
                for j, coeffs in enumerate(row):
                    if coeffs:
                        tampered = copy.deepcopy(report)
                        tampered["checks"][index]["certificate"][key][sigma]["entries"][i][j][0] += 1
                        assert not verify_certificate(cat, tampered["checks"][index]["certificate"])
                        changed += 1
        assert changed >= 4
        assert not replay_report(tampered)

    def test_exact_with_exchanged_witnesses_rejected(self, snake_report, snake_cat):
        for cert in _certs_of_kind(snake_report, "exact"):
            forged = copy.deepcopy(cert)
            forged["composite_wp"], forged["via_wp"] = cert["via_wp"], cert["composite_wp"]
            assert not verify_certificate(snake_cat, forged)

    def test_exact_and_mono_relabelled_rejected(self, snake_fig):
        cat = snake_fig.cat
        f, g = kernel(snake_fig.gamma).emb, snake_fig.gamma
        out = zero_morphism(f.target, zero_adel_object(cat))
        assert is_mono(f) and is_exact(f, g) and not is_mono(g) and not is_exact(f, out)
        exact, mono = claim_certificate("exact", f, g), claim_certificate("mono", f)
        assert verify_certificate(cat, exact) and verify_certificate(cat, mono)
        for key in ("composite_wp", "via_wp"):  # exact relabelled as mono, about g
            forged = {"kind": "mono", "morphism": exact["second"], "kernel_zero_wp": exact[key]}
            assert not verify_certificate(cat, forged)
        composite_wp = to_json(is_zero_morphism(compose(f, out)))
        for first_wp in (mono["kernel_zero_wp"], composite_wp):  # mono relabelled as exact
            forged = {"kind": "exact", "first": mono["morphism"], "second": to_json(out),
                      "composite_wp": first_wp, "via_wp": mono["kernel_zero_wp"]}
            assert not verify_certificate(cat, forged)


# per figure, the arrows whose kernels and cokernels its prover reads
_READ_KERNELS = {"snake": (("eps", "gamma", "beta", "delta"), ("alpha", "delta", "beta", "eps")),
                 "five": (("mu", "nu"), ("lam", "m3"))}


def _figure_morphisms(figure) -> list[AdelMorphism]:
    """The morphisms of a figure: its morphism fields and the embeddings and
    projections of the kernels and cokernels its prover reads."""
    kernels, cokernels = _READ_KERNELS[figure.cat.name]
    return ([v for v in vars(figure).values() if isinstance(v, AdelMorphism)]
            + [kernel(getattr(figure, name)).emb for name in kernels]
            + [cokernel(getattr(figure, name)).proj for name in cokernels])


def test_predicates_agree_with_certificates(snake_fig, five_data):
    predicates = {"mono": is_mono, "epi": is_epi, "iso": is_iso, "exact": is_exact,
                  "zero": lambda f: is_zero_morphism(f) is not None,
                  "equal": lambda f, g: is_equal(f, g) is not None}
    assert set(predicates) == set(CLAIMS)
    pairs = 0
    zero_verdicts, equal_verdicts = set(), set()
    for figure in (snake_fig, five_data):
        morphisms = _figure_morphisms(figure)
        assert len(morphisms) >= 15
        for f in morphisms:
            for kind in ("mono", "epi", "iso"):
                assert predicates[kind](f) == (claim_certificate(kind, f) is not None), kind
        for f in morphisms:
            for g in morphisms:
                if f.target != g.source:
                    continue
                try:
                    verdict = is_exact(f, g)
                except CompositeNotZeroError:
                    with pytest.raises(CompositeNotZeroError):
                        claim_certificate("exact", f, g)
                    continue
                pairs += 1
                assert verdict == (claim_certificate("exact", f, g) is not None)
        # the figures hold no two parallel morphisms, so equality is also
        # decided against negatives and composites
        candidates = morphisms + [-f for f in morphisms] + [
            compose(f, g) for f in morphisms for g in morphisms if f.target == g.source]
        for f in candidates:
            verdict = predicates["zero"](f)
            assert verdict == (claim_certificate("zero", f) is not None)
            zero_verdicts.add(verdict)
            for g in candidates:
                if (f.source, f.target) != (g.source, g.target):
                    for decide in (is_equal, functools.partial(claim_certificate, "equal")):
                        with pytest.raises(EndpointError):
                            decide(f, g)
                    continue
                verdict = predicates["equal"](f, g)
                assert verdict == (claim_certificate("equal", f, g) is not None)
                equal_verdicts.add(verdict)
    assert pairs >= 10
    assert zero_verdicts == equal_verdicts == {True, False}


def test_concurrent_prover_runs_share_values():
    # all values are immutable, so independent provers may run in parallel
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(prove_snake) for _ in range(2)]
        futures.append(pool.submit(prove_connecting_uniqueness))
        futures.append(pool.submit(lambda: sweep(range(-2, 3))[1]))
        results = [f.result() for f in futures]
    assert results[0].overall and results[1].overall and results[2].overall
    assert results[0].to_dict() == results[1].to_dict()
    assert results[3] == {-2: False, -1: True, 0: False, 1: True, 2: False}


def test_uncertified_passes_are_the_known_nine(snake_report, five_report):
    """Every positive answer is to carry a certificate (ROADMAP item 1).
    These nine passing checks predate that and still carry none; a new
    uncertified pass fails here."""
    reports = [snake_report, prove_connecting_uniqueness().to_dict(), five_report,
               explore_d4().to_dict(), sweep_report(range(-3, 4)).to_dict()]
    uncertified = [c["description"] for r in reports for c in r["checks"]
                   if c["verdict"] and c["certificate"] is None]
    assert uncertified == [
        "exactness over s in -3..3 holds exactly at -1 and +1",
        "degenerate evaluation: everything-zero representation",
        "pairwise subobject comparisons computed",
        "binary joins of the image subobjects computed",
    ] + [f"blue sequence exact at K for s = {s}" for s in (-3, -2, 0, 2, 3)]


def _morphism_reads(report):
    """The JSON of every morphism the claim certificates of ``report`` carry."""
    return [cert[name] for check in report["checks"]
            if (cert := check["certificate"]) and cert["kind"] in CLAIMS
            for name in CLAIMS[cert["kind"]][0]]


def _with_copy(report, cert):
    """``report`` with one more passing check that carries ``cert``."""
    extended = copy.deepcopy(report)
    extended["checks"].append({"description": "a copy", "verdict": True, "summary": "",
                               "certificate": cert})
    return extended


def _broken_copy(cat, report):
    """An exact certificate of ``report``, the name of one of its morphisms,
    and a copy of the certificate in which one coefficient of that morphism
    is raised by 1 so that its witness squares no longer commute."""
    for cert in _certs_of_kind(report, "exact"):
        for name in ("first", "second"):
            for part in ("datum", "rel_witness", "corel_witness"):
                for i, row in enumerate(cert[name][part]["entries"]):
                    for j, block in enumerate(row):
                        for k in range(len(block)):
                            bad = copy.deepcopy(cert)
                            bad[name][part]["entries"][i][j][k] += 1
                            try:
                                provers.from_json(cat, AdelMorphism, bad[name])
                            except WitnessError:
                                return cert, name, bad
    raise AssertionError("no edit breaks a witness square")


def _mistyped_copy(cert, coefficient):
    """The name of a morphism of ``cert`` and a copy of ``cert`` in which
    the first datum coefficient of that morphism equal to 1 is written as
    ``coefficient``, which compares equal to 1."""
    bad = copy.deepcopy(cert)
    for name in CLAIMS[cert["kind"]][0]:
        for row in bad[name]["datum"]["entries"]:
            for block in row:
                if 1 in block:
                    block[block.index(1)] = coefficient
                    return name, bad
    raise AssertionError("no datum coefficient is 1")


class TestReplayMemo:
    """Inside one replay, the reader builds each distinct value once.  The
    type checks run before the lookup, a read that raises stores nothing,
    and the table lives only as long as the replay."""

    @pytest.mark.parametrize("coefficient", [True, 1.0], ids=["true", "float"])
    def test_a_mistyped_copy_of_a_read_value_fails(self, snake_report, coefficient):
        cert = _certs_of_kind(snake_report, "exact")[0]
        assert replay_report(_with_copy(snake_report, copy.deepcopy(cert)))
        _, bad = _mistyped_copy(cert, coefficient)
        assert bad == cert  # equal as Python values, not as JSON
        assert replay_report(_with_copy(snake_report, bad)) is False

    def test_a_copy_with_a_broken_witness_square_fails(self, snake_report, snake_cat):
        cert, _, bad = _broken_copy(snake_cat, snake_report)
        assert cert in _certs_of_kind(snake_report, "exact")  # read before the copy
        assert replay_report(_with_copy(snake_report, bad)) is False

    def test_a_read_that_raises_stores_nothing(self, snake_report, snake_cat):
        cert, name, bad = _broken_copy(snake_cat, snake_report)
        mistyped_name, mistyped = _mistyped_copy(cert, True)
        table = {}

        def read(data):
            return provers._read(snake_cat, AdelMorphism, data, table)
        with pytest.raises(WitnessError):
            read(bad[name])
        size = len(table)
        assert not any(isinstance(v, AdelMorphism) for v in table.values())
        with pytest.raises(WitnessError):
            read(bad[name])
        assert len(table) == size
        good = read(cert[name])
        assert read(copy.deepcopy(cert[name])) is good
        for _ in range(2):
            with pytest.raises(WitnessError):
                read(bad[name])
        read(cert[mistyped_name])
        for _ in range(2):
            with pytest.raises(TypeError):
                read(mistyped[mistyped_name])

    def test_outside_a_scope_every_read_builds(self, snake_report, snake_cat):
        # outside a replay, each from_json call reads with a table of its own
        data = _morphism_reads(snake_report)[0]
        first, second = (provers.from_json(snake_cat, AdelMorphism, data) for _ in range(2))
        assert first == second and first is not second and first.datum is not second.datum
        assert all(verify_certificate(snake_cat, c["certificate"])
                   for c in snake_report["checks"] if c["verdict"] and c["certificate"])
        table = {}
        assert (provers._read(snake_cat, AdelMorphism, data, table)
                is provers._read(snake_cat, AdelMorphism, data, table))

    def test_each_replay_reads_into_a_memo_of_its_own(self, snake_report, monkeypatch, underlying):
        seen = []
        real = provers._verify

        def recording(cat, cert, table):
            seen.append((table, len(table)))
            return real(cat, cert, table)
        monkeypatch.setattr(provers, "_verify", recording)
        assert replay_report(snake_report)
        half, built = len(seen), underlying["KernelResult"]
        assert replay_report(snake_report)
        (first, empty1), (second, empty2) = seen[0], seen[half]
        assert first is not second and empty1 == empty2 == 0
        assert all(table is first for table, _ in seen[:half])
        assert all(table is second for table, _ in seen[half:])
        assert first and second  # each held its reads while its replay lasted
        # the second replay reads new morphisms, so it builds their kernels again
        assert built > 0 and underlying["KernelResult"] == 2 * built
        assert "decide_homotopy" not in underlying  # replay decides nothing

    def test_one_validation_per_distinct_morphism(self, snake_report, monkeypatch):
        reads = [json.dumps(d, sort_keys=True) for d in _morphism_reads(snake_report)]
        distinct = set(reads)
        assert len(distinct) < len(reads)
        validated = Counter()
        real = AdelMorphism.__post_init__

        def counting(self):
            validated[json.dumps(to_json(self), sort_keys=True)] += 1
            real(self)
        monkeypatch.setattr(AdelMorphism, "__post_init__", counting)
        assert replay_report(json.loads(json.dumps(snake_report)))
        assert set(validated) == distinct and set(validated.values()) == {1}


class TestConstructionMemoScopes:
    """Each prover call decides the homotopy systems it asks and keeps no
    decision; the figures' arrows keep their kernels and cokernels."""

    @pytest.mark.parametrize("run", [
        prove_snake, prove_connecting_uniqueness, prove_refined_five, explore_d4,
        lambda: sweep(range(0, 2)), lambda: sweep_report(range(0, 2)),
    ], ids=["snake", "uniqueness", "five", "d4", "sweep", "sweep_report"])
    def test_no_memo_after_a_prover_returns(self, run, underlying):
        # a second call decides every system of the first again
        assert run()
        decided = underlying["decide_homotopy"]
        assert run()
        assert decided > 0 and underlying["decide_homotopy"] == 2 * decided
        assert underlying["KernelResult"] > 0

    def test_a_second_snake_builds_only_its_scaled_connecting_kernels(self, underlying):
        # the figure's arrows keep their kernels and cokernels between calls;
        # the one pair built is that of the connecting morphism scaled anew
        prove_snake()
        underlying.clear()
        prove_snake()
        assert underlying["KernelResult"] == underlying["CokernelResult"] == 1

    def test_prove_snake_bytes_after_a_mutated_run_and_a_replay(self, capsys):
        from adelcat.cli import run_command
        from test_output_hashes import EXPECTED
        assert replay_report(prove_snake(connecting_scale=2).to_dict())
        assert run_command(["prove", "snake", "--json", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == EXPECTED["prove snake"]

    def test_prover_scope_memoises(self, underlying):
        # each image and join keeps its kernel and cokernel on its morphism
        explore_d4()
        assert underlying == {"KernelResult": 9, "CokernelResult": 12, "decide_homotopy": 18}

    @pytest.mark.parametrize("run, systems", [
        (prove_snake, 42), (prove_refined_five, 28), (prove_connecting_uniqueness, 15),
        (explore_d4, 18),
    ], ids=["snake", "five", "uniqueness", "d4"])
    def test_witness_squares_share_the_zero_memo(self, run, systems, underlying):
        # make_morphism states its witness squares as zero claims, each
        # decided where it is asked; the figures are built before counting,
        # so this counts the run's own claims
        run()
        assert underlying["decide_homotopy"] == systems

    def test_no_memo_after_a_prover_raises(self, monkeypatch, underlying):
        def broken(name):
            raise RuntimeError("category unavailable")
        with monkeypatch.context() as patch:
            patch.setattr(provers, "_session", broken)
            with pytest.raises(RuntimeError):
                explore_d4()
        assert not underlying  # it raised before deciding anything
        assert all(check.verdict for check in explore_d4().checks)
        assert underlying["decide_homotopy"] == 18


_TRUSTED_RUNS = {
    "snake": prove_snake,
    "snake-k2": lambda: prove_snake(connecting_scale=2),
    "uniqueness": prove_connecting_uniqueness,
    "five": prove_refined_five,
    "sweep": lambda: sweep_report(range(-3, 4)),
    "d4": explore_d4,
}


def _rebuild_figures():
    """Drop the figures that ``build_snake_figure`` and ``build_five_data``
    keep, so that the next prover runs build them."""
    provers.build_snake_figure.cache_clear()
    provers.build_five_data.cache_clear()


def _trusted_results(pairs):
    """Every prover report, the Hom groups of the ladder ``pairs`` with one
    element of each, and the zero tests of that element's kernel and
    cokernel objects.  The built-in figures are built again, under whatever
    the caller has patched."""
    _rebuild_figures()
    reports = {name: run().to_dict() for name, run in _TRUSTED_RUNS.items()}
    groups = [hom_group(x, y) for x, y in pairs]
    elements = [(hg, hg.element(range(1, hg.group.ngens + 1))) for hg in groups]
    zero_tests = [(adelman.zero_object_witness(adelman.kernel(e).obj),
                   adelman.zero_object_witness(adelman.cokernel(e).obj)) for _, e in elements]
    return reports, elements, zero_tests


class TestTrustedDerivations:
    """``adelman._morphism`` builds derived morphisms without checking their
    witness squares; with the validating constructor in its place, every
    prover report and every Hom group comes out the same, and no derived
    morphism is rejected."""

    def test_validated_rebuild_is_identical(self, monkeypatch):
        pairs = _ladder_pairs(47, 10)
        trusted = _trusted_results(pairs)
        validated, rejected = [], []

        def validating(*parts):
            try:
                validated.append(AdelMorphism(*parts))
            except WitnessError as exc:
                rejected.append(exc)
                raise
            return validated[-1]
        monkeypatch.setattr(adelman, "_morphism", validating)
        monkeypatch.setattr(homgroups, "_morphism", validating)
        assert _trusted_results(pairs) == trusted
        assert validated and not rejected


class TestProbeRefutation:
    """``decide_homotopy`` refutes large systems on probe representations
    before it assembles them.  With the probe switched off every report,
    Hom group and zero test comes out the same, and every refutation a probe
    makes is one the full solver makes too."""

    @staticmethod
    def _recording(monkeypatch):
        refuted = []
        probe = addclosure._probe_refutes

        def recording(*system):
            if probe(*system):
                refuted.append(system)
                return True
            return False
        monkeypatch.setattr(addclosure, "_probe_refutes", recording)
        return refuted

    def test_results_are_identical_without_the_probe(self, monkeypatch):
        pairs = _ladder_pairs(47, 10)
        refuted = self._recording(monkeypatch)
        probed = _trusted_results(pairs)
        assert refuted
        monkeypatch.setattr(addclosure, "_probe_refutes", lambda *a: False)
        assert _trusted_results(pairs) == probed

    def test_prover_runs_try_no_probe(self, monkeypatch):
        # every homotopy system of the provers is below the size gate
        gated = []
        monkeypatch.setattr(addclosure, "_probe_refutes", lambda *a: gated.append(a) or False)
        _rebuild_figures()
        for run in _TRUSTED_RUNS.values():
            run()
        assert not gated

    @pytest.mark.parametrize("name", ["ladder", "snake", "five", "ladder^op"])
    def test_every_refutation_is_confirmed(self, name, monkeypatch):
        ladder = gen.ladder_spec(6).category()
        built = {"ladder": ladder, "ladder^op": ladder.opposite()}
        cat = built[name] if name in built else category_by_name(name)
        rng = gen.rng_for(5, "probe-soundness")
        refuted = self._recording(monkeypatch)
        for _ in range(4):
            x, y = (gen.rand_object(rng, cat, gen.rand_shape(rng, cat)) for _ in range(2))
            hg = hom_group(x, y)
            e = hg.element(gen.rand_coeffs(rng, hg.group.ngens))
            adelman.zero_object_witness(adelman.kernel(e).obj)
            adelman.zero_object_witness(adelman.cokernel(e).obj)
            adelman.is_zero_morphism(e)
        assert refuted
        monkeypatch.setattr(addclosure, "_probe_refutes", lambda *a: False)
        for system in refuted:
            assert addclosure.decide_homotopy(*system) is None


class TestTrustedBlocks:
    """``addclosure._mat`` builds derived matrix morphisms without checking
    their blocks; with a checking ``_mat`` in its place, and in place of
    every copy imported elsewhere, every block has its Hom set's number of
    coordinates and pads to a canonical path vector, and every prover report
    and Hom group comes out the same."""

    def test_checked_rebuild_is_identical(self, monkeypatch):
        pairs = _ladder_pairs(47, 10)
        trusted = _trusted_results(pairs)
        unchecked = addclosure._mat
        built, bad = [], []

        def checking(source, target, blocks):
            cat, xs, ys = source.cat, source.summands, target.summands
            shape = type(blocks) is tuple and len(blocks) == len(xs) and all(
                type(row) is tuple and len(row) == len(ys) for row in blocks)
            if not shape:
                bad.append((source, target, blocks))
            for a, row in zip(xs, blocks):
                for b, block in zip(ys, row):
                    if type(block) is not tuple or len(block) != cat.dim(a, b):
                        bad.append((a, b, block))
                    elif (vec := cat.pad(a, b, block)) != cat.hom_group_lin(a, b).canonical_rep(vec):
                        bad.append((a, b, block))
            if bad:
                raise AssertionError(f"malformed block: {bad[-1]!r}")
            built.append(target)
            return unchecked(source, target, blocks)
        copies = [name for name, module in list(sys.modules.items())
                  if name.startswith("adelcat") and getattr(module, "_mat", None) is unchecked]
        assert {"adelcat.addclosure", "adelcat.adelman"} <= set(copies)
        for name in copies:
            monkeypatch.setattr(sys.modules[name], "_mat", checking)
        assert _trusted_results(pairs) == trusted
        assert built and not bad
