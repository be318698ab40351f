import json
import pathlib

import pytest

from ririg.catalog import catalog_load
from ririg.cli import main
from ririg.files import load_algebra, save_algebra
from ririg.fixtures import b2_pair, b2_pair_with_identity, direct_product

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"
PROOFS = pathlib.Path(__file__).resolve().parents[1] / "proofs"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main([str(a) for a in argv] + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_ok(capsys):
    code, out = run(capsys, "check", DATA / "g3delta.alg")
    assert code == 0
    assert "passed: True" in out


def test_check_reports_witness_and_replays(capsys, tmp_path):
    doc = json.loads((DATA / "b2.alg").read_text())
    doc["imp"][1][0] = 1
    bad = tmp_path / "bad.alg"
    bad.write_text(json.dumps(doc))
    code, report = run_json(capsys, "check", bad)
    assert code == 1
    assert report["failures"] == [{"axiom": "residuation",
                                   "witness": [1, 1, 0]}]
    witness = json.dumps(report["failures"][0])
    code, report = run_json(capsys, "check", bad,
                            "--verify-witness", witness)
    assert code == 0 and report["reproduced"] is True
    # the same witness against the sound algebra does not reproduce
    code, _ = run_json(capsys, "check", DATA / "b2.alg",
                       "--verify-witness", witness)
    assert code == 1


def test_filters_and_congruences(capsys):
    code, report = run_json(capsys, "filters", DATA / "g3id.alg")
    assert code == 0
    assert report["filters"] == ["{1}", "{a,1}", "{0,a,1}"]
    code, report = run_json(capsys, "congruences", DATA / "g3id.alg",
                            "--direct")
    assert code == 0
    assert report["count"] == 3 and report["agrees"] is True


def test_gen_filter(capsys):
    code, report = run_json(capsys, "gen-filter", DATA / "g3delta.alg",
                            "--set", "a")
    assert code == 0
    assert report["filter"] == "{0,a,1}"
    assert report["routes-agree"] is True
    code, report = run_json(capsys, "gen-filter", DATA / "g3id.alg",
                            "--set", "a")
    assert report["filter"] == "{a,1}"


def test_simple_and_si(capsys):
    code, report = run_json(capsys, "simple", DATA / "g3delta.alg")
    assert code == 0
    assert report["witnesses"]["a"] == {"blocks": ["m"],
                                        "lambda-exponent": 1,
                                        "lambda-power": 1}
    code, report = run_json(capsys, "simple", DATA / "g3id.alg")
    assert code == 1
    witness = json.dumps(report["witness"])
    code, rep = run_json(capsys, "simple", DATA / "g3id.alg",
                         "--verify-witness", witness)
    assert code == 0 and rep["reproduced"] is True
    code, report = run_json(capsys, "si", DATA / "g3id.alg")
    assert code == 0 and report["witness"] == "a"


@pytest.mark.parametrize("build", [b2_pair, b2_pair_with_identity])
def test_si_lists_the_minimal_filters(capsys, tmp_path, build):
    path = tmp_path / "b2b2.alg"
    save_algebra(build(), path)
    code, report = run_json(capsys, "si", path)
    assert code == 1
    assert report["witness"] == {"elements": ["0", "1", "2"],
                                 "minimal-filters": ["{1,3}", "{2,3}"]}
    code, out = run(capsys, "si", path)
    assert code == 1
    assert "minimal-filters:\n    - {1,3}\n    - {2,3}\n" in out


def test_classify(capsys):
    code, report = run_json(capsys, "classify", DATA / "g3delta.alg")
    assert code == 0
    assert report["chain"] and report["contractive"]
    assert report["in-chain-variety"] and report["fg-intersection-law"]


def test_compatible_routes(capsys):
    code, report = run_json(capsys, "compatible", DATA / "g3id.alg",
                            "--fn", DATA / "fn_g3_step.fn")
    assert code == 0 and report["agree"] is True
    code, report = run_json(capsys, "compatible", DATA / "g3id.alg",
                            "--fn", DATA / "fn_g3_collapse.fn")
    assert code == 1
    witness = report["routes"]["direct"]["witness"]
    code, rep = run_json(capsys, "compatible", DATA / "g3id.alg",
                         "--fn", DATA / "fn_g3_collapse.fn",
                         "--verify-witness", json.dumps(witness))
    assert code == 0 and rep["reproduced"] is True


def test_compatible_random_sweep(capsys):
    code, report = run_json(capsys, "compatible", DATA / "g3delta.alg",
                            "--random", "50", "--seed", "11")
    assert code == 0
    assert report["disagreements"] == [] and report["seed"] == 11


def test_laf(capsys):
    code, report = run_json(capsys, "laf", DATA / "g3id.alg",
                            "--fn", DATA / "fn_g3_step.fn")
    assert code == 0 and report["verified"] is True


def test_laf_refuses_incompatible(capsys):
    code = main(["laf", str(DATA / "g3id.alg"),
                 "--fn", str(DATA / "fn_g3_collapse.fn")])
    assert code == 2


def test_enumerate(capsys, tmp_path):
    out = tmp_path / "c.cat"
    code, report = run_json(capsys, "enumerate", "--max-size", "3",
                            "--modals", "1", "--out", out)
    assert code == 0
    assert report["count"] == 13 and out.exists()


def test_enumerate_refuses_out_of_range_options(capsys, tmp_path):
    out = tmp_path / "c.cat"
    for message, options in (
            ("--max-size must be at least 1", ["--max-size", "0"]),
            ("--max-size must be at least 1", ["--max-size", "-2"]),
            ("--modals must be at least 0",
             ["--max-size", "2", "--modals", "-1"]),
            ("--size-cap must be at least 1",
             ["--max-size", "2", "--size-cap", "0"])):
        assert main(["enumerate", *options, "--out", str(out)]) == 2, options
        assert message in capsys.readouterr().err, options
    assert not out.exists()


def test_prove_with_soundness(capsys):
    code, report = run_json(capsys, "prove", PROOFS / "thm_weakening.prf",
                            "--catalog", DATA / "cat3_m.cat")
    assert code == 0
    assert report["checked"] is True
    assert report["soundness"]["holds"] is True


def test_prove_bad_proof(capsys, tmp_path):
    bad = tmp_path / "bad.prf"
    bad.write_text("1. v0 ; ax1\n")
    code, report = run_json(capsys, "prove", bad)
    assert code == 1
    assert report["witness"]["line"] == 1
    code, rep = run_json(capsys, "prove", bad, "--verify-witness",
                         json.dumps(report["witness"]))
    assert code == 0 and rep["reproduced"] is True


def test_entails(capsys):
    code, report = run_json(capsys, "entails", "--catalog",
                            DATA / "cat3_m.cat", "--assume", "v0 = 1",
                            "--assume", "(v0 -> v1) = 1", "v1 = 1")
    assert code == 0 and report["entailed"] is True


def test_entails_countermodel_replays(capsys):
    code, report = run_json(capsys, "entails", "--catalog",
                            DATA / "cat3_m.cat",
                            "(v0 | (v0 -> bot)) = 1")
    assert code == 1
    witness = json.dumps(report["witness"])
    code, rep = run_json(capsys, "entails", "--catalog",
                         DATA / "cat3_m.cat", "(v0 | (v0 -> bot)) = 1",
                         "--verify-witness", witness)
    assert code == 0 and rep["reproduced"] is True


def test_entails_env_catalog(capsys, monkeypatch):
    monkeypatch.setenv("RIRIG_CATALOG", str(DATA / "cat3_m.cat"))
    code, report = run_json(capsys, "entails", "v0 -> v0 = 1")
    assert code == 0


def test_lddt(capsys):
    code, report = run_json(capsys, "lddt", "--catalog", DATA / "cat3_m.cat",
                            "--delta", "v0", "--goal", "m1(v0)")
    assert code == 0
    assert report["witness"] == [{"block": "m1", "formula": "v0"}]
    code, report = run_json(capsys, "lddt", "--catalog", DATA / "cat3_m.cat",
                            "--delta", "v0", "--goal", "v1",
                            "--product-bound", "1")
    assert code == 3


def test_modal_outside_catalog_signature_exits_2(capsys):
    # the proof and the goal name m1, which the plain catalog lacks
    for argv, message in (
            (["prove", PROOFS / "nec_example.prf", "--catalog",
              DATA / "cat2.cat"], "modal names ['m1'] outside"),
            (["lddt", "--catalog", DATA / "cat2.cat", "--delta", "v0",
              "--goal", "m1(v0)"], "modal names ['m1'] outside")):
        assert main([str(a) for a in argv]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err


def test_lddt_lambda_mode(capsys):
    code, report = run_json(capsys, "lddt", "--catalog", DATA / "cat3_m.cat",
                            "--delta", "v0", "--goal", "m1(v0)",
                            "--lambda-mode")
    assert code == 0 and report["lambda-exponent"] == 1


def test_cep(capsys):
    code, report = run_json(capsys, "cep", DATA / "g3delta.alg")
    assert code == 0 and report["cep"] is True


def test_usage_errors(capsys, monkeypatch):
    monkeypatch.delenv("RIRIG_CATALOG", raising=False)
    assert main(["check", "/nonexistent.alg"]) == 2
    assert main(["compatible", str(DATA / "g3id.alg")]) == 2
    assert main(["entails", "v0 = 1"]) == 2


def test_sweep_options_must_be_positive(capsys):
    compatible = ["compatible", str(DATA / "g3id.alg")]
    blocks = compatible + ["--fn", str(DATA / "fn_g3_step.fn"),
                           "--route", "blocks"]
    lddt = ["lddt", "--catalog", str(DATA / "cat3_m.cat"), "--delta", "v0",
            "--goal", "m1(v0)"]
    for message, argv in (
            ("--random must be at least 1",
             compatible + ["--random", "0", "--jobs", "2"]),
            ("--arity must be at least 1",
             compatible + ["--random", "5", "--arity", "0"]),
            ("--random must be at least 1", compatible + ["--random", "-3"]),
            ("--jobs must be at least 1",
             compatible + ["--random", "5", "--jobs", "0"]),
            ("--block-bound must be at least 0",
             blocks + ["--block-bound", "-1"]),
            ("--block-bound must be at least 0",
             lddt + ["--block-bound", "-1"]),
            ("--product-bound must be at least 0",
             lddt + ["--product-bound", "-1"]),
            ("--max-exponent must be at least 0",
             lddt + ["--lambda-mode", "--max-exponent", "-2"])):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv


def test_witness_commands_refuse_invalid_algebra(capsys, tmp_path):
    from ririg.catalog import enumerate_ririgs
    from ririg.files import save_algebra
    from ririg.modal import ModalSignature
    alg, fn = tmp_path / "bad.alg", tmp_path / "bad.fn"
    save_algebra(enumerate_ririgs(4)[4].with_modals(ModalSignature(("m",)),
                                                    ((2, 0, 1, 3),)), alg)
    fn.write_text(json.dumps({"arity": 2, "table": [
        2, 2, 2, 2, 2, 0, 0, 0, 3, 3, 1, 3, 3, 2, 3, 1]}))
    runs = [["compatible", alg, "--fn", fn, "--route", route]
            for route in ("all", "direct", "blocks", "lambda")]
    runs += [["compatible", alg, "--random", "5"], ["laf", alg, "--fn", fn]]
    for argv in runs:
        assert main([str(a) for a in argv]) == 2
        assert "m: m(x->y) <= m(x)->m(y)" in capsys.readouterr().err


def test_theta_commands_refuse_a_non_ririg(capsys, tmp_path):
    """Answers resting on theta_F or on the filter routes assume an
    I-modal ririg; `check` still reports the broken candidate and
    `filters` still scans every subset."""
    doc = json.loads((DATA / "g3.alg").read_text())
    doc["one"] = 1  # the middle element, not the top
    bad = tmp_path / "bad.alg"
    bad.write_text(json.dumps(doc))
    message = (f"error: {bad}: not an I-modal ririg: axiom 'prod-unit' "
               f"fails at [2]\n")
    for argv in (["congruences"], ["congruences", "--direct"], ["si"],
                 ["simple"], ["classify"], ["gen-filter", "--set", "a"],
                 ["cep"]):
        for extra in ([], ["--json"]):
            assert main([argv[0], str(bad)] + argv[1:] + extra) == 2, argv
            assert capsys.readouterr().err == message, argv
    code, report = run_json(capsys, "check", bad)
    assert code == 1
    assert report["failures"][0] == {"axiom": "prod-unit", "witness": [2]}
    assert run(capsys, "filters", bad)[0] == 0


def test_entails_bad_catalog_exits_2(tmp_path):
    lines = (DATA / "cat3_m.cat").read_text().splitlines()
    rec = json.loads(lines[2])
    del rec["form"]
    truncated = tmp_path / "truncated.cat"
    truncated.write_text("\n".join(lines[:-1]) + "\n")
    missing_key = tmp_path / "missing.cat"
    missing_key.write_text("\n".join(lines[:2] + [json.dumps(rec)]
                                     + lines[3:]) + "\n")
    rec = json.loads(lines[2])
    rec["flags"]["chain"] = 7
    bad_flag = tmp_path / "bad_flag.cat"
    bad_flag.write_text("\n".join(lines[:2] + [json.dumps(rec)]
                                  + lines[3:]) + "\n")
    for bad in (truncated, missing_key, bad_flag):
        assert main(["entails", "--catalog", str(bad), "v0 -> v0 = 1"]) == 2


def test_entails_catalog_with_bad_table_entry_exits_2(capsys, tmp_path):
    lines = (DATA / "cat3.cat").read_text().splitlines()
    for value in (1.5, True, "1", -1):
        rec = json.loads(lines[-1])
        rec["join"][1][1] = value
        bad = tmp_path / "bad_entry.cat"
        bad.write_text("\n".join(lines[:-1] + [json.dumps(rec)]) + "\n")
        assert main(["entails", "--catalog", str(bad), "v0 -> v0 = 1"]) == 2
        assert f"line {len(lines)}: join table, entry 4: {value!r} " \
            in capsys.readouterr().err


def test_out_of_range_function_entry_exits_2(capsys, tmp_path):
    fn = tmp_path / "bad.fn"
    for table in ([0, 7, 2], [0, -1, 2]):
        fn.write_text(json.dumps({"arity": 1, "table": table}))
        runs = [["compatible", DATA / "g3.alg", "--fn", fn, "--route", route]
                for route in ("all", "direct", "blocks", "lambda")]
        for argv in runs + [["laf", DATA / "g3.alg", "--fn", fn]]:
            assert main([str(a) for a in argv]) == 2, argv
            assert f"function table, entry 1: {table[1]} not in [0,3)" \
                in capsys.readouterr().err, argv


def test_empty_catalog_exits_2(capsys, tmp_path):
    header = json.loads((DATA / "cat3_m.cat").read_text().splitlines()[0])
    header["count"] = 0
    empty = tmp_path / "empty.cat"
    empty.write_text(json.dumps(header) + "\n")
    for argv in (["entails", "--catalog", empty, "v0 -> v0 = 1"],
                 ["lddt", "--catalog", empty, "--delta", "v0",
                  "--goal", "m1(v0)"],
                 ["prove", PROOFS / "thm_prod_assoc.prf", "--catalog", empty]):
        assert main([str(a) for a in argv]) == 2, argv
        assert capsys.readouterr().err == "error: empty catalog\n", argv


def test_json_reports_stable(capsys):
    _, first = run(capsys, "classify", DATA / "g3delta.alg", "--json")
    _, second = run(capsys, "classify", DATA / "g3delta.alg", "--json")
    assert first == second


def test_jobs_flag_does_not_change_output(capsys):
    _, one = run_json(capsys, "compatible", DATA / "g3delta.alg",
                      "--random", "40", "--seed", "5")
    _, two = run_json(capsys, "compatible", DATA / "g3delta.alg",
                      "--random", "40", "--seed", "5", "--jobs", "2")
    assert one == two


def test_compatible_refuses_function_of_wrong_size(capsys):
    witness = json.dumps({"congruence": "{0,1}", "pairs": [["0", "0"]]})
    for extra in ([], ["--route", "lambda"], ["--verify-witness", witness]):
        code = main(["compatible", str(DATA / "b2.alg"),
                     "--fn", str(DATA / "fn_g3_step.fn")] + extra)
        assert code == 2
        assert "function table size 3 does not match the algebra size 2" \
            in capsys.readouterr().err


def test_compat_witness_labels_and_pair_count_checked(capsys):
    cases = (
        ({"congruence": "{0} | {q}", "pairs": [["0", "0"]]},
         "unknown element 'q'"),
        ({"congruence": "{0} | {a,1}", "pairs": [["0", "q"]]},
         "unknown element 'q'"),
        ({"congruence": "{0} | {a,1}", "pairs": [[0, 1]]},
         "unknown element 0"),
        ({"congruence": "{0,1,2}", "pairs": [["0", "1"], ["0", "1"]]},
         "witness has 2 pairs but the function has arity 1"),
    )
    for witness, message in cases:
        code = main(["compatible", str(DATA / "g3id.alg"),
                     "--fn", str(DATA / "fn_g3_collapse.fn"),
                     "--verify-witness", json.dumps(witness)])
        assert code == 2
        assert message in capsys.readouterr().err


def test_compat_witness_partition_must_cover_each_element_once(capsys):
    for text, message in (("{0} | {1}", "no class holds a"),
                          ("{0,a} | {a,1}", "element 'a' appears twice")):
        witness = {"congruence": text, "pairs": [["a", "1"]]}
        code = main(["compatible", str(DATA / "g3id.alg"),
                     "--fn", str(DATA / "fn_g3_collapse.fn"),
                     "--verify-witness", json.dumps(witness)])
        assert code == 2
        assert message in capsys.readouterr().err


def test_witness_must_be_a_json_object(capsys):
    for argv in (["check", DATA / "g3id.alg"],
                 ["compatible", DATA / "g3id.alg",
                  "--fn", DATA / "fn_g3_collapse.fn"]):
        assert main([str(a) for a in argv]
                    + ["--verify-witness", "[1]"]) == 2
        assert "--verify-witness must be a JSON object" \
            in capsys.readouterr().err


@pytest.fixture
def built(tmp_path):
    """Entry 13 of data/cat4_m.cat (contractive and prelinear, not
    join-subdistributive), the 6-element product of data/b2.alg and
    data/g3.alg, and the identity function on that product, as files."""
    x13, product, identity = (tmp_path / name for name in
                              ("x13.alg", "b2xg3.alg", "id6.fn"))
    save_algebra(catalog_load(DATA / "cat4_m.cat").algebras()[13], x13)
    b2, _ = load_algebra(DATA / "b2.alg")
    g3, _ = load_algebra(DATA / "g3.alg")
    save_algebra(direct_product(b2, g3), product)
    identity.write_text(json.dumps({"arity": 1, "table": list(range(6))}))
    return x13, product, identity


def test_replays_refuse_false_and_malformed_witnesses(capsys, built):
    """A false certificate exits 1 with reproduced false; a malformed one,
    or an algebra above an oracle cap, exits 2 naming the field or cap."""
    x13, product, identity = built
    _, report = run_json(capsys, "classify", x13)
    assert report["in-chain-variety"] is False
    g3d = DATA / "g3delta.alg"
    b2_form = "020001010001010100000001010100010001"  # b2 with m1 = id
    entails = ["entails", "--catalog", DATA / "cat3_m.cat", "v0 = 1"]
    collapse = ["compatible", DATA / "g3id.alg", "--fn",
                DATA / "fn_g3_collapse.fn"]
    cases = [
        (["cep", g3d], {"subuniverse": ["0", "1"], "congruence": [0]}, 1),
        (["si", DATA / "b2.alg"], {"elements": ["1"]}, 1),
        (["classify", x13], {"pair": ["1", "2"]}, 1),
        (entails, {"algebra": b2_form, "valuation": {"v0": 7}}, 1),
        (entails, {"algebra": b2_form, "valuation": {}}, 1),
        (["cep", g3d], {"subuniverse": ["0", "a"], "congruence": [0, 0]}, 1),
        (["simple", g3d], {}, "witness field 'element' is missing"),
        (["classify", g3d], {"pair": ["0"]}, "witness field 'pair'"),
        (entails, {"algebra": "00", "valuation": {"x": 1}},
         "witness field 'valuation'"),
        (["si", g3d], {"elements": 5}, "witness field 'elements'"),
        (["check", g3d], {"axiom": 1, "witness": 5}, "witness field 'axiom'"),
        (["prove", PROOFS / "top.prf"], {"line": 0}, "witness field 'line'"),
        (["congruences", product, "--direct"], None, "cap"),
        (["cep", product], None, "cap"),
        (["compatible", product, "--fn", identity], None, "cap"),
        (["compatible", product, "--fn", identity, "--route", "direct"],
         None, "cap"),
        (["compatible", product, "--random", "3", "--arity", "1"], None,
         "cap"),
        (collapse, {"tuples": [["0"], ["1"]]}, 1),
        (collapse, {"tuples": [["a", "1"], ["1"]]}, "witness field 'tuples'"),
        (collapse, {"tuples": [["a"]]}, "witness field 'tuples'"),
    ]
    for argv, witness, expected in cases:
        if witness is not None:
            argv = argv + ["--verify-witness", json.dumps(witness)]
        code = main([str(a) for a in argv] + ["--json"])
        out, err = capsys.readouterr()
        if expected == 1:
            assert (code, json.loads(out)) == (1, {"reproduced": False}), argv
        elif expected == "cap":
            assert code == 2, argv
            assert "exceeds congruence oracle cap 5" in err, argv
            assert "--congruence-cap" in err, argv
        else:
            assert code == 2 and expected in err, argv
    code, report = run_json(capsys, "compatible", product, "--random", "3",
                            "--arity", "1", "--congruence-cap", "6")
    assert code == 0 and report["disagreements"] == []


def test_every_reported_witness_replays(capsys, tmp_path, built):
    """Each exit-1 witness that check, simple, si, compatible, prove and
    entails report on the shipped files and the b2 x g3 product replays."""
    _, product, _ = built
    replays = []
    for alg in sorted(DATA.glob("*.alg")) + [product]:
        for command in ("check", "simple", "si"):
            code, report = run_json(capsys, command, alg)
            if code == 1:
                found = (report["failures"] if command == "check"
                         else [report["witness"]])
                replays += [([command, alg], w) for w in found]
        for fn in sorted(DATA.glob("*.fn")):
            code = main(["compatible", str(alg), "--fn", str(fn), "--json"])
            out = capsys.readouterr().out
            if code == 1:
                routes = json.loads(out)["routes"].values()
                replays += [(["compatible", alg, "--fn", fn], r["witness"])
                            for r in routes]
    for proof in sorted(PROOFS.glob("*.prf")):
        _, report = run_json(capsys, "prove", proof)
        broken = tmp_path / proof.name
        broken.write_text(proof.read_text()
                          + f"{report['lines'] + 1}. v0 ; ax1\n")
        code, report = run_json(capsys, "prove", broken)
        assert code == 1
        replays.append((["prove", broken], report["witness"]))
    for premises, goal in (([], "v0 = 1"), ([], "(v0 | (v0 -> 0)) = 1"),
                           ([], "m1(v0) = v0"),
                           (["m1(v0) = 1"], "(v0 * v1) = v1"),
                           (["v0 = 1", "(v0 -> v1) = 1"], "v1 = 1")):
        argv = ["entails", "--catalog", DATA / "cat3_m.cat", goal]
        for premise in premises:
            argv += ["--assume", premise]
        code, report = run_json(capsys, *argv)
        if code == 1:
            replays.append((argv, report["witness"]))
    assert {argv[0] for argv, _ in replays} == {
        "simple", "si", "compatible", "prove", "entails"}
    assert ["si", product] in [argv for argv, _ in replays]
    assert ["simple", product] in [argv for argv, _ in replays]
    assert {"tuples", "congruence"} <= set().union(*(w for _, w in replays))
    for argv, witness in replays:
        code, report = run_json(capsys, *argv, "--verify-witness",
                                json.dumps(witness))
        assert (code, report["reproduced"]) == (0, True), (argv, witness)


def test_jobs_only_on_compatible(capsys):
    for command in ("check", "filters", "si"):
        with pytest.raises(SystemExit) as exit_:
            main([command, str(DATA / "g3.alg"), "--jobs", "2"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_options_only_where_read(capsys, built):
    """--verify-witness and the caps are declared only on the commands that
    read them, options a mode ignores are refused, and a cap error names
    the cap of the scan that failed."""
    _, product, _ = built
    g3 = str(DATA / "g3.alg")
    with_fn = ["compatible", str(DATA / "g3id.alg"), "--fn",
               str(DATA / "fn_g3_step.fn")]
    sweep = ["compatible", str(DATA / "g3id.alg"), "--random", "5"]
    replay = ["compatible", str(DATA / "g3id.alg"), "--fn",
              str(DATA / "fn_g3_collapse.fn"), "--verify-witness",
              '{"tuples": [["a"], ["1"]]}']
    lddt = ["lddt", "--catalog", str(DATA / "cat3_m.cat"), "--delta", "v0",
            "--goal", "m1(v0)"]
    for message, argv in (
            ("--random does not apply with --fn",
             with_fn + ["--random", "5", "--arity", "0", "--jobs", "0"]),
            ("--arity does not apply with --fn", with_fn + ["--arity", "2"]),
            ("--jobs does not apply with --fn", with_fn + ["--jobs", "1"]),
            ("--seed does not apply with --fn", with_fn + ["--seed", "99"]),
            ("--route does not apply with --random",
             sweep + ["--route", "direct"]),
            ("--route does not apply with --random",
             sweep + ["--route", "all"]),
            ("--block-bound does not apply with --random",
             sweep + ["--block-bound", "1"]),
            ("--witnesses does not apply with --random",
             sweep + ["--witnesses"]),
            ("--verify-witness does not apply with --random",
             sweep + ["--verify-witness", '{"bogus": 1}']),
            ("--route does not apply with --verify-witness",
             replay + ["--route", "direct"]),
            ("--block-bound does not apply with --verify-witness",
             replay + ["--block-bound", "0"]),
            ("--witnesses does not apply with --verify-witness",
             replay + ["--witnesses"]),
            ("--congruence-cap does not apply with --verify-witness",
             replay + ["--congruence-cap", "0"]),
            ("--block-bound does not apply with --lambda-mode",
             lddt + ["--lambda-mode", "--block-bound", "9"]),
            ("--max-exponent applies only with --lambda-mode",
             lddt + ["--max-exponent", "9"])):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv
    for argv in (["filters", g3, "--verify-witness", '{"bogus": 1}',
                  "--subuniverse-cap", "0"],
                 ["gen-filter", g3, "--verify-witness", "{}"],
                 ["laf", g3, "--fn", str(DATA / "fn_g3_step.fn"),
                  "--verify-witness", "{}"],
                 ["congruences", g3, "--verify-witness", "{}"],
                 ["congruences", g3, "--subuniverse-cap", "3"],
                 ["check", g3, "--congruence-cap", "3"],
                 ["compatible", g3, "--subuniverse-cap", "3"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    for extra, hint, other in (
            (["--subuniverse-cap", "3", "--congruence-cap", "6"],
             "--subuniverse-cap", "--congruence-cap"),
            ([], "--congruence-cap", "--subuniverse-cap")):
        assert main(["cep", str(product)] + extra) == 2
        err = capsys.readouterr().err
        assert f"raise it with {hint}" in err and other not in err, err
