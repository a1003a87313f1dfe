"""The three workloads: seeded input generation, the timed op, and its check.

Each workload is a small object with four parts:

* ``generate(seed)`` draws the inputs (the benchmark's own work, never timed)
  and returns them in JSON-able form, plus the number of draws the generator
  threw away and redrew;
* ``decode(inputs)`` turns the stored inputs into what one op takes; it runs
  once per process, inside the set-up time;
* ``op(item)`` is the timed call into chgeom; it returns a JSON-able result
  or raises;
* ``check(item, result)`` compares one result against a reference computed
  here, outside the timed span, and returns a ``Verdict``.

``size`` is the number of inputs drawn per run, ``warmup`` the untimed ops
before the timed loop, and ``tail_percentile`` the highest percentile
``op_ms_tail`` may report.  Deeper than that cap the tail rests on a few
rare slow draws (pentagons, lift fallbacks, holonomy ranks decided only
after resampling) whose number varies from seed to seed.

The references recompute invariants from raw representatives with the
formulas written out below, so a check does not go through the chgeom
functions the op exercised (``s_coords``, ``reflection``, ``star``).
Replaying a move program does use chgeom, because the program's meaning is
the library's bending moves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import chgeom
from chgeom import errors, holonomy, jsonio, paths, pentagons, sampling, triples

#: Above this relative error a returned result is wrong, not merely
#: inaccurate: it is the closure tolerance ``connect_triples`` promises and
#: the transport bound Tier-1 pins at 1e4 steps.
GROSS_BOUND = 1e-6

#: Digits are capped here: a relative error of 0 counts as 1e-16.
MAX_DIGITS = 16.0

_SIG = np.array([1.0, 1.0, -1.0])


@dataclass(frozen=True)
class Verdict:
    """The outcome of checking one op against its reference.

    ``failed``: the op raised, or its result missed the workload's bound.
    ``gross``: the op returned a result that is wrong beyond GROSS_BOUND
    (or a wrong rank): a silent wrong answer, not a flagged failure.
    ``digits``: -log10 of the relative error, or None when the op has no
    continuous error (it raised, or its reference is an integer).
    """

    failed: bool
    gross: bool = False
    digits: float | None = None


def digits_of(err: float) -> float:
    return min(MAX_DIGITS, -math.log10(max(err, 10.0**-MAX_DIGITS)))


def _gram(reps: np.ndarray) -> np.ndarray:
    """G[j, k] = <v_j, v_k> for the rows of reps, written out directly."""
    return (reps * _SIG) @ reps.conj().T


def triple_invariants(reps: np.ndarray) -> np.ndarray:
    """(t, t1, t2, alpha, beta) of three representatives, from their Gram."""
    G = _gram(reps)
    g11, g22, g33 = G[0, 0].real, G[1, 1].real, G[2, 2].real
    return np.array(
        [
            (G[0, 2] * G[1, 1] / (G[0, 1] * G[1, 2])).real,
            abs(G[0, 1]) ** 2 / (g11 * g22),
            abs(G[1, 2]) ** 2 / (g22 * g33),
            (G[0, 1] * G[1, 2] * G[2, 0]).imag / (g11 * g22 * g33),
            np.linalg.det(G).real / (g11 * g22 * g33),
        ]
    )


def _projective_gap(a: np.ndarray, b: np.ndarray) -> float:
    """1 - |<a, b>_euclid| / (|a| |b|): zero iff a and b span one line."""
    return 1.0 - abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def _reflection(v: np.ndarray) -> np.ndarray:
    """x -> 2 <x, v> v / <v, v> - x, as a matrix."""
    s = float((v.conj() * _SIG * v).sum().real)
    return (2.0 / s) * np.outer(v, (_SIG * v).conj()) - np.eye(3)


def _encode_text(obj) -> str:
    return json.dumps(jsonio.encode(obj), separators=(",", ":"))


# ---------------------------------------------------------------- connect


class Connect:
    """Join two configurations by bendings, as ``chg pentagon connect`` does.

    Three draws in four are triples, built as in the Tier-1 connectivity
    test: a 1-3 move bend program from a random strongly regular triple,
    then a random isometry; a draw whose target has a coordinate above 50 is
    redrawn.  Every fourth draw is a pair of pentagons from random moduli
    with k in {1, 2}; moduli off the chart are redrawn.
    """

    name = "connect"
    size = 1500
    warmup = 20
    tail_percentile = 95.0
    #: Tier-1's bound on the replayed coordinates.
    bound = 1e-8

    def generate(self, seed: int):
        rng = sampling.default_rng(seed)
        out, redraws = [], 0
        for i in range(self.size):
            if i % 4 == 3:
                k = int(rng.integers(1, 3))
                pair = []
                for scale in (None, 0.6):
                    m, r = _pentagon_moduli(rng, k)
                    redraws += r
                    P = pentagons.pentagon_from_moduli(
                        m, chgeom.CubeRoot(k), s5=float(rng.uniform(-1.0, 1.0))
                    )
                    if scale is not None:
                        P = P.apply(sampling.random_isometry(rng, scale))
                    pair.append(P)
                out.append(["pentagon", *(_encode_text(P) for P in pair)])
                continue
            while True:
                A = sampling.random_strongly_regular_triple(rng)
                prog = [
                    triples.Move(pair=("12", "23")[j % 2], s=float(rng.uniform(-0.8, 0.8)))
                    for j in range(rng.integers(1, 4))
                ]
                B = triples.apply_bend_program(A, prog).apply(
                    sampling.random_isometry(rng, 0.6)
                )
                if float(np.abs(triple_invariants(_reps(B.points))[:3]).max()) <= 50.0:
                    break
                redraws += 1
            out.append(["triple", _encode_text(A), _encode_text(B)])
        return out, redraws

    def decode(self, inputs):
        # the op decodes its own wire-format text, as the CLI verb does
        return inputs

    def op(self, item):
        kind, a_text, b_text = item
        if kind == "triple":
            A = jsonio.decode_triple(json.loads(a_text))
            B = jsonio.decode_triple(json.loads(b_text))
            moves, g = triples.connect_triples(A, B)
        else:
            A = jsonio.decode_pentagon(json.loads(a_text))
            B = jsonio.decode_pentagon(json.loads(b_text))
            moves, g = pentagons.connect_pentagons(A, B)
        return jsonio.dumps({"moves": jsonio.encode(moves), "conjugator": jsonio.encode(g)})

    def check(self, item, result) -> Verdict:
        kind, a_text, b_text = item
        data = json.loads(result)
        moves = jsonio.decode_moves(data["moves"])
        g = np.array([complex(re, im) for re, im in data["conjugator"]["m"]]).reshape(3, 3)
        if kind == "triple":
            A = jsonio.decode_triple(json.loads(a_text))
            B = jsonio.decode_triple(json.loads(b_text))
            replay = triples.apply_bend_program(A, moves).points
        else:
            A = jsonio.decode_pentagon(json.loads(a_text))
            B = jsonio.decode_pentagon(json.loads(b_text))
            replay = pentagons.apply_pentagon_moves(A, moves).points
        got = _reps(replay) @ g.T
        want = _reps(B.points)
        ref = triple_invariants(want[:3])
        coord = np.abs(triple_invariants(got[:3]) - ref) / np.maximum(1.0, np.abs(ref))
        err = float(coord.max())
        if kind == "pentagon":
            t4_got = _tance(got[3], got[4])
            t4_want = _tance(want[3], want[4])
            err = max(err, abs(t4_got - t4_want) / max(1.0, abs(t4_want)))
        gap = max(_projective_gap(a, b) for a, b in zip(got, want))
        return Verdict(
            failed=bool(err > self.bound or gap > 1e-7),
            gross=bool(gap > GROSS_BOUND),
            digits=digits_of(err),
        )


def _reps(points) -> np.ndarray:
    return np.array([p.rep for p in points])


def _tance(a: np.ndarray, b: np.ndarray) -> float:
    G = _gram(np.array([a, b]))
    return float(abs(G[0, 1]) ** 2 / (G[0, 0].real * G[1, 1].real))


def _pentagon_moduli(rng, k: int):
    """Moduli (t1, t2, t4) on the chart of central value k, and the redraws."""
    redraws = 0
    while True:
        m = (-rng.uniform(0.3, 4.0), rng.uniform(1.3, 6.0), rng.uniform(1.2, 5.0))
        try:
            pentagons.pentagon_from_moduli(m, chgeom.CubeRoot(k))
        except errors.InadmissibleModuli:
            redraws += 1
            continue
        return m, redraws


# -------------------------------------------------------------- transport

#: The orbit is sampled at STEPS + 1 parameters, the ``chg bend`` default.
STEPS = 10_000

_EUCLIDEAN_PAIR = ([0.0, 1.0, 0.0], [1.0, 1.0, 1.0])


class Transport:
    """Transport a reflection along a bending orbit, as ``chg bend`` does.

    Draws cycle through hyperbolic, spherical and euclidean pairs, so every
    run has the same mix of the three normal forms.  Hyperbolic pairs are
    two points inside the ball; spherical pairs two positive points whose
    line misses it (other positive pairs are redrawn); euclidean pairs a
    fixed tangent-line pair moved by a random isometry.  s is uniform in
    [0.5, 2].
    """

    name = "transport"
    size = 6
    warmup = 1
    tail_percentile = 75.0
    #: Tier-1's bound for path following at 1e4 steps.
    bound = 1e-6

    def generate(self, seed: int):
        rng = sampling.default_rng(seed)
        out, redraws = [], 0
        for i in range(self.size):
            kind = ("hyperbolic", "spherical", "euclidean")[i % 3]
            if kind == "hyperbolic":
                p1 = sampling.random_negative_point(rng)
                p2 = sampling.random_negative_point(rng)
            elif kind == "spherical":
                while True:
                    p1 = sampling.random_point(rng, sign=1)
                    p2 = sampling.random_point(rng, sign=1)
                    if chgeom.line_type(p1, p2) is chgeom.LineType.SPHERICAL:
                        break
                    redraws += 1
            else:
                g = sampling.random_isometry(rng, 0.6)
                p1, p2 = (g.apply(chgeom.point(v)) for v in _EUCLIDEAN_PAIR)
            s = float(rng.uniform(0.5, 2.0))
            out.append([kind, jsonio.encode(p1), jsonio.encode(p2), s])
        return out, redraws

    def decode(self, inputs):
        return [
            (kind, jsonio.decode_point(a), jsonio.decode_point(b), s)
            for kind, a, b, s in inputs
        ]

    def op(self, item):
        _, p1, p2, s = item
        b = paths.bending(p1, p2)
        params = np.linspace(0.0, s, STEPS + 1)
        orbit = paths.path_sample([b.evaluate(u).apply(p1) for u in params], params)
        m = paths.follow_path(orbit).m
        # plain floats rather than jsonio, which this workload leaves out
        return [m.real.ravel().tolist(), m.imag.ravel().tolist()]

    def check(self, item, result) -> Verdict:
        _, p1, p2, s = item
        F = (np.array(result[0]) + 1j * np.array(result[1])).reshape(3, 3)
        E = paths.bending(p1, p2).evaluate(s).m
        moved = _reflection(E @ p1.rep)
        star_f = np.diag(_SIG) @ F.conj().T @ np.diag(_SIG)
        resid = np.abs(moved - F @ _reflection(p1.rep) @ star_f).max()
        err = max(
            float(np.abs(F - E).max() / np.abs(E).max()),
            float(resid / max(1.0, np.abs(moved).max())),
        )
        return Verdict(
            failed=bool(err > self.bound), gross=bool(err > GROSS_BOUND), digits=digits_of(err)
        )


# --------------------------------------------------------------- holonomy

#: Loops per sampling round and rectangle side, as in Tier-1.
LOOPS = 8
DS = 1e-2


class Holonomy:
    """Rank of the holonomy of the bending connection at a triple.

    Every fourth draw is a real strongly regular triple (rank 1), the rest
    generic (rank 2); each op gets its own loop seed.
    """

    name = "holonomy"
    size = 320
    warmup = 4
    tail_percentile = 90.0

    def generate(self, seed: int):
        rng = sampling.default_rng(seed)
        out = []
        for i in range(self.size):
            real = i % 4 == 3
            T = sampling.random_strongly_regular_triple(rng, real=real)
            out.append([jsonio.encode(T), real, int(rng.integers(2**62))])
        # random_strongly_regular_coords rejects internally and does not
        # report how often, so there is no redraw count to give
        return out, None

    def decode(self, inputs):
        return [(jsonio.decode_triple(t), real, seed) for t, real, seed in inputs]

    def op(self, item):
        T, _, seed = item
        return holonomy.holonomy_dimension(T, LOOPS, ds=DS, rng=sampling.default_rng(seed))

    def check(self, item, result) -> Verdict:
        T, real, seed = item
        want = 1 if real else 2
        if result != want:
            return Verdict(failed=True, gross=True)
        if not real:
            return Verdict(failed=False)
        # the same first round of loops the op sampled: for a real triple
        # the second singular value is pure roundoff
        rows = holonomy.holonomy_samples(T, LOOPS, ds=DS, rng=sampling.default_rng(seed))
        sv = np.linalg.svd(rows, compute_uv=False)
        return Verdict(failed=False, digits=digits_of(float(sv[1] / sv[0])))


WORKLOADS = {w.name: w for w in (Connect(), Transport(), Holonomy())}
