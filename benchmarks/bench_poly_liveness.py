"""Polyhedral layer: one element-wise liveness query.

``arrays_conflict_elementwise(u, t1)`` on the n=2 Helmholtz kernel builds
both arrays' liveness ``L = ge_le o I`` (Sec. IV-F) and tests the two
ranges for a common schedule tuple.  Nearly all of its time is the
Fourier-Motzkin projection core in ``poly/iset.py`` (emptiness of every
``ge_le`` disjunct and of every part of the intersection), so this bench
puts that layer under the 25% gate.  The pair does not conflict, which is
the expensive answer: every part of the intersection must be shown empty.
"""

from repro.apps.helmholtz import inverse_helmholtz_program
from repro.flow import compile_any
from repro.memory import stage_liveness
from repro.memory.liveness import arrays_conflict_elementwise

DEGREE = 2
PAIR = ("u", "t1")


def test_poly_elementwise_liveness(benchmark):
    prog = compile_any(inverse_helmholtz_program(DEGREE)).poly
    conflict = benchmark(arrays_conflict_elementwise, prog, *PAIR)
    live = stage_liveness(prog)
    assert conflict is False
    assert conflict == live[PAIR[0]].overlaps(live[PAIR[1]])
