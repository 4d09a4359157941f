import os

# one BLAS thread unless the caller chose otherwise, fixed before numpy
# loads (as in perfbench/run.py): numpy's default thread count stalls the
# suite when the machine's cores are busy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from torsiongeo.catalog import _flat, _su2
from torsiongeo.invariant_geometry import direct_sum, rotate
from torsiongeo.random_geometry import random_geometry, random_orthogonal


@pytest.fixture(scope="session")
def closed_torsion_suite():
    """100 randomized geometries (dim 3..6) with closed random torsion;
    shared by the identity suites so sampling cost is paid once."""
    return [random_geometry(np.random.default_rng(1000 + i), 3 + (i % 4),
                            closed_torsion=True)
            for i in range(100)]


@pytest.fixture(scope="session")
def open_torsion_suite():
    """40 randomized geometries with generic (typically non-closed) torsion."""
    return [random_geometry(np.random.default_rng(4000 + i), 3 + (i % 4))
            for i in range(40)]


@pytest.fixture(scope="session")
def parallel_torsion_suite():
    """Constructed geometries satisfying dH = 0 and parallel torsion
    nontrivially: conjugated block sums of group frames with the
    block canonical 3-forms at random scales."""
    samples = []
    rng = np.random.default_rng(77)
    for i in range(20):
        factors = [_su2(float(rng.uniform(0.5, 2.0)))]
        if i % 3 == 1:
            factors.append(_su2(float(rng.uniform(0.5, 2.0))))
        elif i % 3 == 2:
            factors.append(_flat(2))
        geom = direct_sum(*factors)
        samples.append(rotate(geom, {}, random_orthogonal(rng, geom.dim))[0])
    return samples


@pytest.fixture(scope="session")
def su3_built():
    from torsiongeo.special_structures import build_su3
    return build_su3()
