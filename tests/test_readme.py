"""The README's library quick tour runs as written and gives the results its
comments state."""

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour():
    """The first python block of the README."""
    return re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)


def run_block(source):
    """Run source statement by statement; returns its namespace and the value
    of each expression statement, in order."""
    namespace, values = {}, []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README", "exec"), namespace)
    return namespace, values


def test_quick_tour_results():
    namespace, values = run_block(quick_tour())
    sqrt2 = np.sqrt(2.0)
    # sol.K == (1 + sqrt(2)) I
    assert np.allclose(namespace["sol"].K, (1.0 + sqrt2) * np.eye(2), atol=1e-12)
    # report.oracle_decentralized -> True
    assert namespace["report"].oracle_decentralized is True
    # oracle_check(sys2.lqr_problem()): decentralized, K = diag(3, 12)
    synthesized, uniform_gain, center = values
    assert synthesized.oracle_decentralized
    assert np.allclose(synthesized.K, np.diag([3.0, 12.0]), atol=1e-9)
    # find_uniform_gain(d2, identity_spec(8), q, r) -> 1.0
    assert abs(uniform_gain - 1.0) <= 1e-9
    # landscape[2, 10]: q0/q2 = gamma0/gamma2 = 1, sqrt(2 (1 + sqrt(2)))
    res, landscape = namespace["res"], namespace["landscape"]
    assert landscape.shape == (5, 21)
    assert np.array_equal(res.axis1[:105].reshape(5, 21)[:, 0], res.config.axis1.grid())
    assert np.array_equal(res.axis2[:105].reshape(5, 21)[0], res.config.axis2.grid())
    assert np.allclose([res.axis1[2 * 21 + 10], res.axis2[2 * 21 + 10]], 1.0, rtol=0, atol=1e-12)
    assert abs(center - np.sqrt(2.0 * (1.0 + sqrt2))) <= 1e-10
