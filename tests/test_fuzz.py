"""Random configs through the command line: a documented exit code, never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from penlab.cli import console_main

# wrong types and out-of-range numbers; no valid-but-huge values, which
# would only make an example run long
JUNK = st.one_of(st.none(), st.text(max_size=3), st.booleans(),
                 st.sampled_from([float("nan"), float("inf"), -float("inf"),
                                  -1.0, 0.0]))


def number(lo, hi):
    """A float in [lo, hi], or one time in ten a value of the wrong kind."""
    return st.integers(0, 9).flatmap(
        lambda k: JUNK if k == 0 else st.floats(lo, hi))


references = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["schwarzschild", "reissner_nordstrom", "de_sitter"]),
    "m": number(-0.5, 3.0),
    "e": number(-2.0, 2.0),
})
surfaces = st.fixed_dictionaries({}, optional={
    "r0": number(0.5, 12.0),
    "perturbation": st.lists(st.tuples(st.integers(0, 4), st.integers(-4, 4),
                                       st.floats(-0.3, 0.3)), max_size=2),
})
flows = st.fixed_dictionaries({
    "resolution": st.just([8, 16]),
    "ds": st.floats(0.02, 0.1),
    "s_max": st.floats(0.05, 0.3),
}, optional={"store_every": st.integers(-1, 3)})
solvers = st.fixed_dictionaries({}, optional={
    "u0": number(0.5, 2.0),
    "dt_max": number(0.01, 0.1),
})
profiles = st.fixed_dictionaries({}, optional={
    "r_min": number(0.5, 5.0),
    "r_max": number(3.0, 60.0),
    "points": st.integers(-2, 80),
})
scenarios = st.fixed_dictionaries(
    {"s_max": st.floats(0.05, 0.3), "ds": st.floats(0.02, 0.1),
     "inner_m": number(0.5, 2.0)},
    optional={
        "kind": st.sampled_from(["schwarzschild_interior", "custom", "nova"]),
        "r0": number(0.5, 12.0),
        "horizon_area": number(0.0, 200.0),
        "boundary_u0": number(0.5, 2.0),
        "store_every": st.integers(0, 3),
        "dt_max": number(0.01, 0.1),
    })
# flow and scenario are always given: their defaults run to s_max 10 and 40
configs = st.fixed_dictionaries({"flow": flows, "scenario": scenarios}, optional={
    "reference": references,
    "surface": surfaces,
    "solver": solvers,
    "profile": profiles,
    "normalized": st.booleans(),
})


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["profile", "constants", "flow", "solve",
                                "scenario"]),
       cfg=configs)
def test_cli_random_config(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = console_main([command, "--config", str(path),
                                 "--out", tmp, "--resolution", "8x16"])
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()


# a config every subcommand runs, and each block's documented keys; the
# top level (None) takes the blocks, "scenarios" and two flags
GOOD_CONFIG = {
    "reference": {"kind": "schwarzschild", "m": 1.0},
    "profile": {"points": 20},
    "surface": {"r0": 4.0},
    "flow": {"resolution": [8, 16], "ds": 0.05, "s_max": 0.15,
             "store_every": 1},
    "solver": {"u0": 1.2},
    "scenario": {"kind": "schwarzschild_interior", "inner_m": 1.2,
                 "ds": 0.05, "s_max": 0.15},
}
KEYS = {
    "reference": {"kind", "m", "e", "table"},
    "profile": {"r_min", "r_max", "points"},
    "surface": {"r0", "perturbation"},
    "flow": {"resolution", "ds", "s_max", "store_every"},
    "solver": {"u0", "dt_max", "with_residual"},
    "scenario": {"kind", "r0", "inner_m", "horizon_area", "boundary_u0",
                 "perturbation", "ds", "s_max", "store_every", "dt_max",
                 "with_residual"},
}
KEYS[None] = {*KEYS, "scenarios", "normalized", "inject"}


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(block=st.sampled_from(list(KEYS)),
       key=st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8),
       value=st.one_of(JUNK, st.floats(0.0, 1.0), st.just({})))
def test_unknown_key_exits_2(block, key, value):
    # a misspelled key or block would fall back silently to a default
    assume(key not in KEYS[block])
    cfg = json.loads(json.dumps(GOOD_CONFIG))
    (cfg if block is None else cfg[block])[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        for command in ("profile", "constants", "flow", "solve", "verify",
                        "scenario"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = console_main([command, "--config", str(path),
                                     "--out", tmp])
            assert code == 2, command
            assert "schema error: unknown" in err.getvalue()
            assert key in err.getvalue() and "Traceback" not in err.getvalue()
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["cfg.json"]


# a fixed good block, then a perturbed copy whose first leaf may fail its
# monitors (H0 is negative somewhere at (2, 0) amplitude 0.45)
GOOD_BLOCK = {"kind": "schwarzschild_interior", "inner_m": 1.2, "r0": 4.0,
              "ds": 0.05, "s_max": 0.3}


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(a20=0.45, a30=0.0)
@example(a20=0.0, a30=0.0)
@given(a20=st.floats(-0.5, 0.5), a30=st.floats(-0.1, 0.1))
def test_batch_reports_every_scenario(a20, a30):
    cfg = {"flow": {"resolution": [8, 16]},
           "scenarios": [GOOD_BLOCK, dict(GOOD_BLOCK, perturbation=[
               [2, 0, a20], [3, 0, a30]])]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = console_main(["scenario", "--config", str(path),
                                 "--out", tmp])
        reports = [json.loads((Path(tmp) / f"scenario_{i}.json").read_text())
                   for i in (0, 1)]
    verdicts = [r["verdict"] for r in reports]
    assert verdicts[0] == "inequality holds"
    # the README's batch rule: 1 if any is violated, else 3 if any was
    # gated or ended in error, else 0
    if "inequality violated" in verdicts:
        assert code == 1
    elif {"hypotheses not met", "error"} & set(verdicts):
        assert code == 3
    else:
        assert code == 0
    assert "Traceback" not in err.getvalue()
