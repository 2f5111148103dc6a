import io
import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "clannish.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300
    )
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def test_validate_bundled():
    out = json.loads(run_cli("validate", "example:GP2").stdout)
    assert out["valid"] and out["algebra_dimension"] == 5


def test_validate_violation(tmp_path):
    bad = {
        "field": {"p": 2, "n": 1},
        "vertices": ["1", "2"],
        "arrows": [
            {"name": "a", "from": "1", "to": "2", "sigma": 0},
            {"name": "b", "from": "1", "to": "2", "sigma": 0},
            {"name": "c", "from": "1", "to": "2", "sigma": 0},
        ],
        "special": [],
        "zero_relations": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = run_cli("validate", str(path), check=False)
    assert proc.returncode == 1
    err = json.loads(proc.stdout)
    assert err["error"]["type"] == "ClannishViolation"


def test_quadratic_case2():
    out = json.loads(
        run_cli(
            "quadratic", "--p", "2", "--n", "2", "--sigma", "1", "--beta", "0", "--gamma", "1"
        ).stdout
    )
    assert out["case"] == 2 and out["case_name"] == "matrix_ring"
    assert out["is_normal"] and out["is_semisimple"]


def test_strings_bands_basis():
    strings = json.loads(run_cli("strings", "example:E1", "--max-len", "3").stdout)
    assert [s["compact"] for s in strings["strings"]] == ["s*", "s*.a.s*"]
    bands = json.loads(run_cli("bands", "example:E1", "--max-period", "4").stdout)
    assert len(bands["bands"]) == 2
    basis = json.loads(run_cli("basis", "example:E1", "--max-len", "3").stdout)
    assert basis["count"] == 7


def test_bounds_beyond_the_recursion_limit(tmp_path):
    # the searches run on an explicit stack; the limit is lowered so that the
    # string list, quadratic in the bound, stays small
    loop = {
        "field": {"p": 2, "n": 1},
        "vertices": ["1"],
        "arrows": [{"name": "a", "from": "1", "to": "1"}],
        "zero_relations": [],
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop))
    limit, n = 150, 200
    main = f"import sys; sys.setrecursionlimit({limit}); from clannish.cli import main; sys.exit(main())"

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-c", main, *args, str(path)], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return json.loads(proc.stdout)

    strings = run("strings", "--max-len", str(n))["strings"]
    assert [s["compact"] for s in strings] == ["e:1:+"] + [".".join("a" * k) for k in range(1, n + 1)]
    bands = run("bands", "--max-period", str(n))["bands"]
    assert [b["compact"] for b in bands] == ["(a)"]


def test_build_fdim_decompose_roundtrip(tmp_path):
    module = tmp_path / "m.json"
    out = json.loads(
        run_cli(
            "build", "example:E1", "--word", "s*.a.s*", "-o", str(module)
        ).stdout
    )
    assert out["dim"] == 4
    fd = json.loads(run_cli("fdim", str(module), "--word", "s*.a.s*").stdout)
    assert fd["f_dim"] == 1 and fd["Jw"] == 4
    dec = json.loads(run_cli("decompose", str(module)).stdout)
    assert dec["complete"] and dec["checksum"] == 4
    # bit-for-bit determinism across runs
    again = run_cli("decompose", str(module)).stdout
    assert again == run_cli("decompose", str(module)).stdout
    check = json.loads(run_cli("oracle-check", str(module)).stdout)
    assert check["agree"] and check["complete"]


def test_only_oracle_check_imports_the_oracle(tmp_path):
    module = tmp_path / "m.json"
    module.write_text(json.dumps(_e1_module()))
    probe = (
        "import io, sys\n"
        "import clannish.cli\n"
        "sys.stdout = io.StringIO()\n"
        "code = clannish.cli.main([sys.argv[1], sys.argv[2]])\n"
        "sys.stdout = sys.__stdout__\n"
        "print(code, 'clannish.homalg' in sys.modules, 'dataclasses' in sys.modules)\n"
    )

    def loaded(command):
        proc = subprocess.run(
            [sys.executable, "-c", probe, command, str(module)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    # records are NamedTuples: no command pays for importing dataclasses
    assert loaded("decompose") == ["0", "False", "False"]
    assert loaded("oracle-check") == ["0", "True", "False"]


def test_decompose_five_dimensional_sample(tmp_path):
    import clannish.serialize as serialize
    from clannish.examples import module_catalog, one_loop_pair
    from clannish.homalg import direct_sum

    E1 = one_loop_pair()
    cat = {repr(d.word): rep for d, _, rep in module_catalog(E1, 3, 2)}
    sample = direct_sum(cat["s*"], cat["s*as*"])
    path = tmp_path / "five.json"
    path.write_text(json.dumps(serialize.representation_to_json(sample)))
    out = json.loads(run_cli("decompose", str(path)).stdout)
    assert out["complete"] and out["checksum"] == 5 and out["dim"] == 5
    assert {s["word"]: s["f_dim"] for s in out["summands"]} == {"s*": 1, "s*.a.s*": 1}


def test_band_build_with_param(tmp_path):
    param = tmp_path / "p.json"
    param.write_text(json.dumps({"lambda": [[[1, 0]]]}))
    module = tmp_path / "band.json"
    out = json.loads(
        run_cli(
            "build", "example:E1", "--word", "(s*.a)", "--param", str(param), "-o", str(module)
        ).stdout
    )
    assert out["dim"] == 2
    dec = json.loads(run_cli("decompose", str(module)).stdout)
    assert dec["complete"] and dec["checksum"] == 2


def test_validate_arrowless_presentation(tmp_path):
    pres = {"field": {"p": 2, "n": 1}, "vertices": ["1", "2"], "arrows": []}
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    out = json.loads(run_cli("validate", str(path)).stdout)
    assert out["algebra_dimension"] == 2 and out["finite_dimensional"]


def _e1_module():
    """The E1 string module s*.a.s* as JSON, presentation embedded."""
    import clannish.serialize as serialize
    from clannish.examples import module_catalog, one_loop_pair

    cat = {repr(d.word): rep for d, _, rep in module_catalog(one_loop_pair(), 3, 2)}
    return serialize.representation_to_json(cat["s*as*"])


def _a_squared_nonzero(module):
    n = module["dims"]["1"]
    module["arrows"]["a"]["matrix"] = [
        [[1, 0] if i == j else [0, 0] for j in range(n)] for i in range(n)
    ]


def _one_entry_of_a_too_long(module):
    """Write one nonzero entry of ``a`` with n + 1 coefficients."""
    rows = module["arrows"]["a"]["matrix"]
    i, j = next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if any(x))
    rows[i][j] = [1, 1, 1]


def _one_entry_of_a_out_of_range(module):
    """Write one nonzero entry of ``a`` as its base-2 integer code plus q = 4."""
    rows = module["arrows"]["a"]["matrix"]
    i, j = next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if any(x))
    rows[i][j] = 4 + rows[i][j][0] + 2 * rows[i][j][1]


def _s_zero(module):
    matrix = module["arrows"]["s"]["matrix"]
    matrix[:] = [[[0, 0] for _ in row] for row in matrix]


BAD_INPUTS = {
    "unknown example": (["validate", "example:NOPE"], None, "InvalidInput"),
    "missing file": (["validate", "{missing}"], None, "InvalidInput"),
    "malformed JSON": (["decompose", "{module}"], "{bad", "InvalidInput"),
    "unknown letter": (["build", "example:E1", "--word", "zz"], None, "InvalidInput"),
    # a word spells a special loop s as s* only; s and s^-1 are walk letters
    "special loop as an arrow": (["fdim", "{module}", "--word", "s"], lambda m: None, "InvalidInput 's'"),
    "special loop inverted": (["build", "example:E1", "--word", "s^-1"], None, "InvalidInput 's^-1'"),
    **{
        f"output {what}": (
            ["build", "example:GP2", "--word", "x^-1.y", "-o", target],
            None,
            "InvalidInput cannot write",
        )
        for what, target in (("in a missing directory", "{missing}/x.json"), ("a directory", "{tmp}"))
    },
    "relation a.a broken": (["decompose", "{module}"], _a_squared_nonzero, "InvalidInput"),
    "sigma differs": (
        ["decompose", "{module}"],
        lambda m: m["arrows"]["a"].update(sigma=0),
        "PresentationMismatch",
    ),
    "field differs": (
        ["decompose", "{module}"],
        lambda m: m.update(field={"p": 3, "n": 1}),
        "FieldMismatch",
    ),
    "unknown arrow": (
        ["oracle-check", "{module}"],
        lambda m: m["arrows"].update(zz=m["arrows"]["a"]),
        "InvalidInput",
    ),
    "dims missing": (["decompose", "{module}"], lambda m: m.pop("dims"), "InvalidInput 'dims'"),
    "negative dims": (
        ["decompose", "{module}"],
        lambda m: m["dims"].update({"1": -1}),
        "InvalidInput '1'",
    ),
    "matrix row missing": (
        ["oracle-check", "{module}"],
        lambda m: m["arrows"]["a"]["matrix"].pop(),
        "InvalidInput 'a'",
    ),
    "matrix column missing": (
        ["decompose", "{module}"],
        lambda m: [row.pop() for row in m["arrows"]["s"]["matrix"]],
        "InvalidInput 's'",
    ),
    "arrows a list": (
        ["decompose", "{module}"],
        lambda m: m.update(arrows=list(m["arrows"].values())),
        "InvalidInput 'arrows'",
    ),
    "matrix missing": (
        ["decompose", "{module}"],
        lambda m: m["arrows"]["a"].pop("matrix"),
        "InvalidInput 'matrix'",
    ),
    "presentation vertices missing": (
        ["decompose", "{module}"],
        lambda m: m["presentation"].pop("vertices"),
        "InvalidInput 'vertices'",
    ),
    "bad quadratic element": (
        ["quadratic", "--p", "2", "--n", "1", "--beta", "x", "--gamma", "1"],
        None,
        "InvalidInput",
    ),
    # more than n coefficients are refused, not reduced modulo the modulus
    "matrix entry too long": (["decompose", "{module}"], _one_entry_of_a_too_long, "InvalidInput GF(2^2)"),
    "quadratic element too long": (
        ["quadratic", "--p", "2", "--n", "2", "--beta", "[1,1,1]", "--gamma", "1"],
        None,
        "InvalidInput GF(2^2)",
    ),
    # an integer element of GF(p^n), n >= 2, is refused outside range(q),
    # not reduced modulo q
    **{
        f"quadratic integer {beta}": (
            ["quadratic", "--p", "2", "--n", "2", "--beta", beta, "--gamma", "1"],
            None,
            "InvalidInput GF(2^2)",
        )
        for beta in ("7", "-1")
    },
    "matrix entry out of range": (["decompose", "{module}"], _one_entry_of_a_out_of_range, "InvalidInput GF(2^2)"),
    # s s = beta s - gamma fails when s acts by zero
    "special loop breaks its quadratic": (
        ["decompose", "{module}"],
        _s_zero,
        "InvalidInput defining relation",
    ),
    "duplicate vertex": (
        ["validate", "{module}"],
        json.dumps(
            {"field": {"p": 2, "n": 1}, "vertices": ["1", "1"], "arrows": [], "zero_relations": []}
        ),
        "ClannishViolation",
    ),
    "labels at no vertex": (
        ["decompose", "{module}"],
        lambda m: m.update(labels={"9": [[0, 0]]}),
        "InvalidInput '9'",
    ),
    "labels fewer than dims": (
        ["decompose", "{module}"],
        lambda m: m.update(labels={"1": [[0, 0]]}),
        "InvalidInput '1'",
    ),
    **{
        f"modulus {modulus}": (
            ["quadratic", "--p", "2", "--n", "2", "--beta", "1", "--gamma", "1"]
            + ["--modulus", modulus],
            None,
            "InvalidInput modulus",
        )
        for modulus in ("[1,1", "5", '[1,"a",1]')
    },
}


@pytest.mark.parametrize("argv, content, error", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_gives_typed_error(tmp_path, argv, content, error):
    module = tmp_path / "m.json"
    if isinstance(content, str):
        module.write_text(content)
    elif content is not None:
        data = _e1_module()
        content(data)
        module.write_text(json.dumps(data))
    argv = [a.format(module=module, missing=tmp_path / "missing.json", tmp=tmp_path) for a in argv]
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 1, proc.stderr
    kind, _, named = error.partition(" ")  # a bad key must be named in the detail
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == kind and named in err["detail"]



def test_usage_error_follows_the_contract():
    proc = run_cli("decompose", check=False)
    assert proc.returncode == 1 and not proc.stderr
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "UsageError" and "module" in err["detail"]
    assert run_cli("decompose", "--help").stdout.startswith("usage:")


def _main(capsys, *argv):
    """Run the CLI in this process: (exit code, the one JSON document)."""
    from clannish import cli

    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    return code, json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["strings", "example:E1", "--max-len", "-3"],
        ["strings", "example:E1", "--max-len", "0"],
        ["bands", "example:E1", "--max-period", "0"],
        ["bands", "example:E1", "--max-period", "-1"],
        ["basis", "example:E1", "--max-len", "0"],
        # decompose and oracle-check derive their search from the module and
        # take no bound at all
        ["decompose", "{module}", "--max-len", "3"],
        ["decompose", "{module}", "--max-period", "2"],
        ["oracle-check", "{module}", "--max-len", "1"],
        ["oracle-check", "{module}", "--max-period", "4"],
    ],
)
def test_non_positive_bounds_are_invalid(tmp_path, capsys, argv):
    from clannish import cli

    module = tmp_path / "m.json"
    module.write_text(json.dumps(_e1_module()))
    code = cli.main([a.format(module=module) for a in argv])
    out, err = capsys.readouterr()
    assert code == 1 and not err and out.count("\n") == 1
    kind = "UsageError" if argv[0] in ("decompose", "oracle-check") else "InvalidInput"
    assert json.loads(out)["error"]["type"] == kind


@pytest.mark.parametrize(
    "word, param",
    [
        ("(s*.a)", [1]),
        ("(s*.a)", {"dim": "x"}),
        ("(s*.a)", {"lambda": 5}),
        ("(s*.a)", {"dim": 0}),
        ("(s*.a)", {"dim": -2}),
        ("s*.a.s*", {"dim": 0}),
        ("s*.a.s*", {"dim": True}),
        # a "dim" other than the size of lambda
        ("(s*.a)", {"dim": 3, "lambda": [[[1, 0]]]}),
        # a matrix that the parameter ring K of an asymmetric string does not take
        ("s*.a.s*", {"lambda": [[[1, 0]]]}),
        ("s*.a.s*", {"phi": [[[1, 0]]]}),
        # ... and one that the ring of an asymmetric band does not take
        ("(s*.a)", {"lambda": [[[1, 0]]], "phi": [[[1, 0]]]}),
        # a matrix with no rows would build a zero module
        ("s*", {"lambda": []}),
        ("(s*.a)", {"lambda": []}),
    ],
)
def test_bad_param_file_is_invalid_input(tmp_path, capsys, word, param):
    path = tmp_path / "param.json"
    path.write_text(json.dumps(param))
    code, out = _main(capsys, "build", "example:E1", "--word", word, "--param", path)
    assert code == 1 and out["error"]["type"] == "InvalidInput"


BAD_WORDS = [
    "e:1",
    "e:1:x",
    "{",
    "{}",
    '{"v0":"1"}',
    '{"v0":"1","sign":1,"letters":5}',
    '{"letters":[{"star":"s"},{"arrow":"a","dir":1},{"star":"s"}]}',
    '{"letters":[{"star":"s"},{"arrow":"a","dir":"up"},{"star":"s"}]}',
    '{"letters":["s*"]}',
    '{"v0":"1","sign":-1,"letters":[{"star":"s"},{"arrow":"a","dir":"dir"},{"star":"s"}]}',
]


@pytest.mark.parametrize("word", BAD_WORDS)
def test_bad_word_is_invalid_input(capsys, word):
    code, out = _main(capsys, "build", "example:E1", "--word", word)
    assert code == 1 and out["error"]["type"] == "InvalidInput"


def test_word_file_holding_a_list_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "word.json"
    path.write_text("[1]")
    code, out = _main(capsys, "build", "example:E1", "--word", f"@{path}")
    assert code == 1 and out["error"]["type"] == "InvalidInput"


def test_word_spellings_agree(capsys):
    inline = '{"letters":[{"star":"s"},{"arrow":"a","dir":"inv"},{"star":"s"}]}'
    _, compact = _main(capsys, "build", "example:E1", "--word", "s*.a^-1.s*")
    _, json_word = _main(capsys, "build", "example:E1", "--word", inline)
    assert compact == json_word
    _, trivial = _main(capsys, "build", "example:GP2", "--word", "e:1:-")
    assert trivial["dims"] == {"1": 1}


def test_param_file_dim_builds_that_many_copies(tmp_path, capsys):
    path = tmp_path / "param.json"
    path.write_text(json.dumps({"dim": 2}))
    code, out = _main(capsys, "build", "example:E1", "--word", "s*.a.s*", "--param", path)
    _, one = _main(capsys, "build", "example:E1", "--word", "s*.a.s*")
    assert code == 0 and out["dims"] == {"1": 2 * one["dims"]["1"]}


def test_the_seed_is_a_constant_that_no_environment_variable_sets(tmp_path, capsys, monkeypatch):
    from clannish import homalg

    module = tmp_path / "m.json"
    module.write_text(json.dumps(_e1_module()))
    monkeypatch.setenv("CLANNISH_SEED", "abc")
    code, out = _main(capsys, "oracle-check", module)
    assert code == 0 and out["seed"] == homalg.SEED == 987654321


def test_running_out_of_memory_is_too_large(tmp_path, capsys):
    # GP2 at K-dimension 26 enumerates some 665,000 descriptors, more than
    # fit in 256 MB of address space: the child still prints one error line
    resource = pytest.importorskip("resource")
    param, module = tmp_path / "param.json", tmp_path / "m.json"
    param.write_text(json.dumps({"dim": 13}))
    code, out = _main(capsys, "build", "example:GP2", "--word", "x", "--param", param, "-o", module)
    assert code == 0 and out["dim"] == 26

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    proc = subprocess.run(
        CLI + ["decompose", str(module)], capture_output=True, text=True, timeout=60, preexec_fn=cap
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1 and len(lines) == 1, proc.stdout + proc.stderr
    assert json.loads(lines[0])["error"]["type"] == "TooLarge"


class _Writes(io.StringIO):
    """A stdout that counts its write calls."""

    calls = 0

    def write(self, s):
        self.calls += 1
        return super().write(s)


@pytest.mark.parametrize("pretty", [[], ["--pretty"]])
def test_output_is_one_write_of_the_json_document(monkeypatch, pretty):
    from clannish import cli

    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main([*pretty, "strings", "example:E1", "--max-len", "12"]) == 0
    text = out.getvalue()
    indent = 2 if pretty else None
    assert text == json.dumps(json.loads(text), indent=indent, sort_keys=True) + "\n"
    assert out.calls == 1
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["validate", "example:NOPE"]) == 1
    assert out.getvalue() == json.dumps(json.loads(out.getvalue())) + "\n"
    assert out.calls == 1


def test_oracle_disagreement_exits_1_with_its_report(tmp_path, capsys, monkeypatch):
    # the one exception to "exit 0 or {"error"}": a disagreement is a report
    from clannish import homalg

    module = tmp_path / "m.json"
    module.write_text(json.dumps(_e1_module()))
    # the whole module as its own summand agrees by construction; twice, it
    # doubles every oracle count
    monkeypatch.setattr(homalg, "brute_decompose", lambda rep: [rep, rep])
    code, out = _main(capsys, "oracle-check", module)
    assert code == 1 and "error" not in out
    assert out["agree"] is False and out["oracle"] == {"s*.a.s*": 2}
    assert out["functor"] == {"s*.a.s*": 1}


def test_oracle_check_holds_each_summand_to_one_entry(tmp_path, capsys, monkeypatch):
    # a planted functor bug that is additive over direct sums: f_dim doubled
    # on one word.  The module's counts and the summed summand counts still
    # agree; the per-summand contract |J_w| * f_dim = dim does not.
    import clannish.serialize as serialize
    from clannish import filtration, homalg
    from clannish.examples import module_catalog, one_loop_pair

    cat = {repr(d.word): rep for d, _, rep in module_catalog(one_loop_pair(), 3, 2)}
    module = tmp_path / "m.json"
    module.write_text(json.dumps(serialize.representation_to_json(
        homalg.direct_sum(cat["s*as*"], cat["s*"])
    )))
    code, honest = _main(capsys, "oracle-check", module)
    assert code == 0 and honest["agree"] is True
    assert set(honest) == {
        "summand_dims", "functor", "oracle", "agree", "checksum", "complete", "seed"
    }
    real = filtration.f_dim

    def doubled(rep, spec, index=None):
        report = real(rep, spec, index)
        if serialize.word_to_compact(report.word) == "s*.a.s*":
            report = report._replace(f_dim=2 * report.f_dim)
        return report

    monkeypatch.setattr(filtration, "f_dim", doubled)
    code, out = _main(capsys, "oracle-check", module)
    assert code == 1 and "error" not in out
    assert out["functor"] == out["oracle"] == {**honest["functor"], "s*.a.s*": 2}
    assert out["agree"] is False and "entries with checksum" in out["reason"]


# sha256 of stdout for fixed commands, recorded when the records were
# dataclasses: a record that reached the JSON as a list would change them
GOLDEN = {
    ("strings", "example:GP2", "--max-len", "4"):
        "d9d870562bfcb7345d5bca1d93ef4afc9f85eb5ce169d95d962acc6bdda6c8ca",
    ("bands", "example:DIEUDONNE", "--max-period", "4"):
        "849ccd5ddcc14ce44042f57f5e513ad7b61e43c194d38a8c6b33b04f21c33b7e",
    ("quadratic", "--p", "2", "--n", "2", "--sigma", "1", "--beta", "1", "--gamma", "1"):
        "328dc3a878c92f484506881b898a8345d52a96fba731759df6cd6fe76c84b3e8",
    ("build", "example:GP2", "--word", "x^-1.y"):
        "474c828ff737c04067f827557138fca49a2e7dcb569ab619933063d3f017654a",
    ("fdim", "{module}", "--word", "s*.a.s*"):
        "d7c5f49416f24c34b2eb1f3be369fb0712ac23d91fad0bb464eafe256db077f4",
    ("decompose", "{module}"):
        "ce51844a986547a7a4c23928953bba14bdf3aeb56a361f29ca14b1bb369e57a9",
    ("oracle-check", "{module}"):
        "ff78c884140b2149eef9d97b0668f368e20aa53e3c7e60f3025a1595e499c215",
}


@pytest.mark.parametrize("argv, digest", GOLDEN.items(), ids=[a[0] for a in GOLDEN])
def test_output_matches_its_golden_digest(tmp_path, capsys, argv, digest):
    import hashlib

    from clannish import cli

    module = tmp_path / "m.json"
    module.write_text(json.dumps(_e1_module()))
    assert cli.main([a.format(module=module) for a in argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
