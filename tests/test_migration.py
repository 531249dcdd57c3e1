"""The three migrations: pullback (delta), left pushforward (sigma), limit (pi)."""

import os
import random
import subprocess
import sys
from pathlib import Path as FsPath

import pytest

import catql

from catql.core import (
    ConstPath,
    Mapping,
    Path,
    PathEquation,
    identity_mapping,
    make_schema,
    validate_mapping,
)
from catql.errors import InconsistencyError, NotSaturated
from catql.instances import (
    Instance,
    LabelledNull,
    disjoint_union,
    enumerate_homs,
    iso_check,
    validate_instance,
)
from catql.migration import delta, pi, sigma
from catql.scenario import build_fn, function_schema, relation_pairs, relation_schema

from conftest import rand_adjunction_triple, rand_instance


def parent_chain():
    s = function_schema()
    rows = {"Material": ["iron", "metal", "matter"]}
    return Instance(
        s,
        rows,
        {("Material", "parent"): {"iron": "metal", "metal": "matter", "matter": "matter"}},
        {("Material", "name"): {r: r for r in rows["Material"]}},
    )


class TestDelta:
    def test_identity(self):
        I = parent_chain()
        out = delta(identity_mapping(I.schema), I)
        assert iso_check(out, I)

    def test_f0_reflexive_closure(self):
        I = parent_chain()
        out = delta(build_fn(0, relation_schema(), I.schema), I)
        assert relation_pairs(out) == {(x, x) for x in ("iron", "metal", "matter")}

    def test_f1_graph_of_parent(self):
        I = parent_chain()
        out = delta(build_fn(1, relation_schema(), I.schema), I)
        assert relation_pairs(out) == {
            ("iron", "metal"), ("metal", "matter"), ("matter", "matter")
        }

    def test_output_validates(self):
        I = parent_chain()
        validate_instance(delta(build_fn(2, relation_schema(), I.schema), I))


def finite_two_node():
    s = make_schema(
        "F2", ["a", "b"], [("f", "a", "b")],
        [("v", "a", "string"), ("w", "b", "integer")],
    )
    return Instance(
        s,
        {"a": ["x", "y"], "b": ["u", "v"]},
        {("a", "f"): {"x": "u", "y": "v"}},
        {("a", "v"): {"x": "p", "y": "q"}, ("b", "w"): {"u": 1, "v": 2}},
    )


TWO_ATTRIBUTE_CLASH = """
from catql.core import Mapping, Path, make_schema
from catql.errors import InconsistencyError
from catql.instances import Instance
from catql.migration import sigma

attrs = [("v", "b", "string"), ("w", "b", "string")]
S = make_schema("SC", ["a", "b"], [("f", "a", "b"), ("g", "a", "b")], attrs)
T = make_schema("TC", ["a", "b"], [("f", "a", "b")], attrs)
F = Mapping(
    source=S, target=T, nodes={"a": "a", "b": "b"},
    edges={("a", "f"): Path("a", ("f",)), ("a", "g"): Path("a", ("f",))},
    attrs={("b", n): Path("b", (), n) for (n, _s, _t) in attrs},
)
I = Instance(
    S, {"a": ["x"], "b": ["y", "z"]},
    {("a", "f"): {"x": "y"}, ("a", "g"): {"x": "z"}},
    {("b", n): {"y": "red", "z": "blue"} for (n, _s, _t) in attrs},
)
try:
    sigma(F, I)
except InconsistencyError as exc:
    print(exc)
"""


class TestSigma:
    def test_identity(self):
        I = finite_two_node()
        assert iso_check(sigma(identity_mapping(I.schema), I), I)

    def test_fold_is_disjoint_union(self):
        # two copies of a pointed schema folded onto one
        S = make_schema("SS", ["a1", "a2"], [], [("v1", "a1", "string"), ("v2", "a2", "string")])
        T = make_schema("TT", ["a"], [], [("v", "a", "string")])
        F = Mapping(
            source=S, target=T, nodes={"a1": "a", "a2": "a"},
            attrs={("a1", "v1"): Path("a", (), "v"), ("a2", "v2"): Path("a", (), "v")},
        )
        validate_mapping(F)
        I = Instance(
            S, {"a1": ["x"], "a2": ["y", "z"]}, {},
            {("a1", "v1"): {"x": "p"}, ("a2", "v2"): {"y": "q", "z": "r"}},
        )
        out = sigma(F, I)
        assert len(out.node_rows("a")) == 3
        assert sorted(out.attr("a", "v").values()) == ["p", "q", "r"]

    def test_unconstrained_attribute_gets_labelled_null(self):
        S = make_schema("SN", ["a"], [])
        T = make_schema("TN", ["a"], [], [("v", "a", "string")])
        F = Mapping(source=S, target=T, nodes={"a": "a"})
        validate_mapping(F)
        out = sigma(F, Instance(S, {"a": ["x"]}, {}, {}))
        (val,) = out.attr("a", "v").values()
        assert isinstance(val, LabelledNull)

    def test_attribute_clash_is_error(self):
        # edge collapse forces two rows together; their constants disagree
        S = make_schema(
            "SC", ["a", "b"], [("f", "a", "b"), ("g", "a", "b")],
            [("v", "b", "string")],
        )
        T = make_schema(
            "TC", ["a", "b"], [("f", "a", "b")], [("v", "b", "string")],
        )
        F = Mapping(
            source=S, target=T, nodes={"a": "a", "b": "b"},
            edges={("a", "f"): Path("a", ("f",)), ("a", "g"): Path("a", ("f",))},
            attrs={("b", "v"): Path("b", (), "v")},
        )
        validate_mapping(F)
        I = Instance(
            S,
            {"a": ["x"], "b": ["y", "z"]},
            {("a", "f"): {"x": "y"}, ("a", "g"): {"x": "z"}},
            {("b", "v"): {"y": "red", "z": "blue"}},
        )
        with pytest.raises(InconsistencyError):
            sigma(F, I)

    def test_clash_message_independent_of_hash_seed(self):
        # two attributes clash; the error names the first in sorted order
        messages = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(FsPath(catql.__file__).parents[1]))
            proc = subprocess.run([sys.executable, "-c", TWO_ATTRIBUTE_CLASH], env=env,
                                  capture_output=True, text=True, check=True)
            messages.add(proc.stdout)
        assert messages == {
            "sigma: attribute 'v' on class 'a:x:a.f' forced to both 'red' and 'blue'\n"
        }

    def test_refuses_unsaturated_target(self):
        S = make_schema("S1", ["a"], [])
        T = make_schema("T1", ["a"], [("loop", "a", "a")])
        F = Mapping(source=S, target=T, nodes={"a": "a"})
        with pytest.raises(NotSaturated):
            sigma(F, Instance(S, {"a": ["x"]}, {}, {}))

    def test_output_validates_randomly(self):
        rng = random.Random(21)
        for _ in range(15):
            F, I, _J = rand_adjunction_triple(rng)
            validate_instance(sigma(F, I))


class TestPi:
    def test_identity(self):
        I = finite_two_node()
        assert iso_check(pi(identity_mapping(I.schema), I), I)

    def test_product_of_discrete_fibers(self):
        S = make_schema("SP", ["a1", "a2"], [])
        T = make_schema("TP", ["a"], [])
        F = Mapping(source=S, target=T, nodes={"a1": "a", "a2": "a"})
        I = Instance(S, {"a1": ["x", "y"], "a2": ["u", "v", "w"]}, {}, {})
        out = pi(F, I)
        assert len(out.node_rows("a")) == 6

    def test_empty_fiber_kills_product(self):
        S = make_schema("SP", ["a1", "a2"], [])
        T = make_schema("TP", ["a"], [])
        F = Mapping(source=S, target=T, nodes={"a1": "a", "a2": "a"})
        I = Instance(S, {"a1": ["x"], "a2": []}, {}, {})
        assert len(pi(F, I).node_rows("a")) == 0

    def test_uncovered_node_is_terminal(self):
        # nothing maps to t2, so the limit over the empty diagram is a point
        S = make_schema("SU", ["a"], [])
        T = make_schema("TU", ["t1", "t2"], [])
        F = Mapping(source=S, target=T, nodes={"a": "t1"})
        I = Instance(S, {"a": ["x", "y"]}, {}, {})
        out = pi(F, I)
        assert len(out.node_rows("t1")) == 2
        assert len(out.node_rows("t2")) == 1

    def test_output_validates_randomly(self):
        rng = random.Random(22)
        for _ in range(15):
            F, I, _J = rand_adjunction_triple(rng)
            validate_instance(pi(F, I))


class TestAdjunctionsSmoke:
    """Small deterministic spot checks; the bulk runs in the acceptance suite."""

    def test_sigma_left_adjoint(self):
        rng = random.Random(31)
        for _ in range(10):
            F, I, J = rand_adjunction_triple(rng)
            assert enumerate_homs(sigma(F, I), J) == enumerate_homs(I, delta(F, J))

    def test_pi_right_adjoint(self):
        rng = random.Random(32)
        for _ in range(10):
            F, I, J = rand_adjunction_triple(rng)
            assert enumerate_homs(delta(F, J), I) == enumerate_homs(J, pi(F, I))

    def test_delta_functorial(self):
        rng = random.Random(33)
        from catql.core import compose_mappings
        from conftest import rand_dag_schema, rand_mapping

        done = 0
        while done < 10:
            U = rand_dag_schema(rng, "U")
            T = rand_dag_schema(rng, "T")
            S = rand_dag_schema(rng, "S")
            F = rand_mapping(rng, S, T)
            G = rand_mapping(rng, T, U)
            if F is None or G is None:
                continue
            I = rand_instance(rng, U)
            assert iso_check(delta(compose_mappings(F, G), I), delta(F, delta(G, I)))
            done += 1
