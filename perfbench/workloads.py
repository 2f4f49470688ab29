"""The benchmark's workloads and the oracles that check their outputs.

Each workload is one ``dualpolar`` CLI command. Its oracle reads the files the
command wrote and checks them against closed-form counts that share no code
with the program: Gaussian binomials for the singular subspaces, the
intersection array of the dual polar graph (Brouwer-Cohen-Neumaier, §9.4) and
|Sp(2n,q)| for frames, apartments and embeddings per image.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import factorial, prod
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # CLI arguments; ``--seed`` and ``--output`` are appended per sample
    spaces: tuple[tuple[int, int], ...]  # (n, p) of every PolarSpace the command builds
    item: str
    expected_exit: int
    # files written by the command (name -> parsed JSON) -> (item count, errors)
    check: Callable[[dict], tuple[int, list[str]]]
    why: str


# -- closed-form counts --------------------------------------------------------


def gaussian(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    num = prod(q ** (n - i) - 1 for i in range(k))
    den = prod(q ** (i + 1) - 1 for i in range(k))
    return num // den


def singular_count(n: int, q: int, k: int) -> int:
    """Totally isotropic (k+1)-spaces of the symplectic 2n-space over GF(q)."""
    return gaussian(n, k + 1, q) * prod(q**i + 1 for i in range(n - k, n + 1))


def sp_order(n: int, q: int) -> int:
    return q ** (n * n) * prod(q ** (2 * i) - 1 for i in range(1, n + 1))


def apartment_count(n: int, q: int) -> int:
    """Apartments (equivalently frames) of the rank-n symplectic polar space."""
    return sp_order(n, q) // (2**n * factorial(n) * (q - 1) ** n)


def intersection_array(n: int, q: int) -> tuple[list[int], list[int]]:
    """(b_0..b_{n-1}, c_1..c_n) of the symplectic dual polar graph."""
    b = [q ** (i + 1) * (q ** (n - i) - 1) // (q - 1) for i in range(n)]
    c = [(q**i - 1) // (q - 1) for i in range(1, n + 1)]
    return b, c


def distance_profile(n: int, q: int) -> list[int]:
    """Number of vertices at each distance from a fixed vertex."""
    b, c = intersection_array(n, q)
    k = [1]
    for i in range(n):
        k.append(k[-1] * b[i] // c[i])
    return k


# -- oracles -------------------------------------------------------------------


def _form(u, v) -> int:
    """The standard alternating form sum_i u_{2i} v_{2i+1} - u_{2i+1} v_{2i}."""
    return sum(u[i] * v[i + 1] - u[i + 1] * v[i] for i in range(0, len(u), 2))


def _bfs_profile(nbrs: list[list[int]], root: int) -> list[int]:
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in nbrs[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    profile = [0] * (max(dist.values()) + 1)
    for d in dist.values():
        profile[d] += 1
    return profile


def _only(files: dict, prefix: str) -> dict:
    matches = [payload for name, payload in files.items() if name.startswith(prefix)]
    if len(matches) != 1:
        raise ValueError(f"expected one output file starting with {prefix!r}, got {sorted(files)}")
    return matches[0]


def check_build(p: int, n: int):
    def check(files: dict) -> tuple[int, list[str]]:
        space = _only(files, f"sp_p{p}_n{n}.space")
        graph = _only(files, f"sp_p{p}_n{n}.graph")
        errors = []
        layers = space["singular_subspaces_by_dim"]
        want = [singular_count(n, p, k) for k in range(n)]
        got = [len(layer) for layer in layers]
        if got != want:
            errors.append(f"singular layers {got} != {want}")
        if len(space["points"]) != want[0]:
            errors.append(f"{len(space['points'])} points != {want[0]}")
        for k, layer in enumerate(layers):
            keys = {tuple(map(tuple, rows)) for rows in layer}
            if len(keys) != len(layer):
                errors.append(f"layer {k} repeats a subspace")
            for rows in layer:
                if len(rows) != k + 1 or any(len(r) != 2 * n for r in rows):
                    errors.append(f"layer {k} holds a basis of the wrong shape: {rows}")
                    break
                if any(_form(a, b) % p for i, a in enumerate(rows) for b in rows[i + 1:]):
                    errors.append(f"layer {k} holds a non-isotropic subspace: {rows}")
                    break
        vertices = graph["vertices"]
        if {tuple(map(tuple, v)) for v in vertices} != {tuple(map(tuple, s)) for s in layers[-1]}:
            errors.append("graph vertices are not the maximal singular subspaces")
        b, _ = intersection_array(n, p)
        edges = {tuple(sorted(e)) for e in graph["edges"]}
        if len(edges) != len(graph["edges"]) or any(i == j for i, j in edges):
            errors.append("graph has repeated edges or loops")
        if len(edges) != want[-1] * b[0] // 2:
            errors.append(f"{len(edges)} edges != {want[-1]}*{b[0]}/2")
        nbrs: list[list[int]] = [[] for _ in vertices]
        for i, j in edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        if any(len(row) != b[0] for row in nbrs):
            errors.append(f"graph is not {b[0]}-regular")
        for root in (0, len(vertices) - 1):
            if _bfs_profile(nbrs, root) != distance_profile(n, p):
                errors.append(f"distance profile from vertex {root} != {distance_profile(n, p)}")
        return sum(want), errors

    return check


def _report(files: dict, statement: str, instance: dict) -> tuple[dict, list[str]]:
    report = _only(files, "")
    errors = []
    if report.get("statement") != statement:
        errors.append(f"statement {report.get('statement')!r} != {statement!r}")
    got = {k: report.get("instance", {}).get(k) for k in instance}
    if got != instance:
        errors.append(f"instance {got} != {instance}")
    if report.get("violations"):
        errors.append(f"{len(report['violations'])} violations: {report['violations'][:3]}")
    return report, errors


def check_embeddings(p: int, n: int):
    """Exhaustive count of H_n in the rank-n dual polar graph: every apartment,
    once per hypercube automorphism."""

    def check(files: dict) -> tuple[int, list[str]]:
        report, errors = _report(files, "count_embeddings", {"p": p, "n": n, "m": n})
        counts = report["counts"]
        apartments = apartment_count(n, p)
        want = {"embeddings": 2**n * factorial(n) * apartments, "distinct_images": apartments}
        if counts != want:
            errors.append(f"counts {counts} != {want}")
        if report["complete"] is not True:
            errors.append("exhaustive count is not complete")
        return counts["embeddings"], errors

    return check


def check_theorem2_sample(p: int, n: int, m: int, budget: int, floor: int):
    """Sampled H_m search whose budget runs out: no violations, and at least
    ``floor`` distinct images validated."""

    def check(files: dict) -> tuple[int, list[str]]:
        report, errors = _report(files, "theorem2", {"p": p, "n": n, "m": m})
        counts = report["counts"]
        distinct, found = counts["distinct_images"], counts["embeddings"]
        if distinct < floor:
            errors.append(f"{distinct} distinct images < floor {floor}")
        if m == n and distinct > apartment_count(n, p):
            errors.append(f"{distinct} distinct images > {apartment_count(n, p)} apartments")
        if not distinct <= found <= distinct * 2**m * factorial(m):
            errors.append(f"{found} embeddings inconsistent with {distinct} images")
        if report["expansions"] > budget:
            errors.append(f"{report['expansions']} expansions > budget {budget}")
        return distinct, errors

    return check


def check_theorem3(p: int, n: int, n_prime: int, budget: int):
    """Dual polar graph embeddings Sp(2n,p) -> Sp(2n',p): each image is the
    star of a singular subspace of rank n'-n, reached once per automorphism."""

    def check(files: dict) -> tuple[int, list[str]]:
        report, errors = _report(
            files, "theorem3", {"p": p, "n": n, "p_prime": p, "n_prime": n_prime}
        )
        counts = report["counts"]
        found, distinct = counts["embeddings"], counts["distinct_images"]
        stars = singular_count(n_prime, p, n_prime - n - 1)  # 1 when n' = n
        per_image = sp_order(n, p)
        if report["complete"]:
            if (found, distinct) != (stars * per_image, stars):
                errors.append(f"complete run found {found}/{distinct}, want {stars * per_image}/{stars}")
        elif not (1 <= distinct <= stars and distinct <= found <= distinct * per_image):
            errors.append(f"{found} embeddings / {distinct} images out of range")
        if counts["frames_checked"] != apartment_count(n, p):
            errors.append(f"{counts['frames_checked']} frames != {apartment_count(n, p)}")
        if counts["apartments_checked"] != 2 * min(found, 50):
            errors.append(f"{counts['apartments_checked']} apartments checked != {2 * min(found, 50)}")
        if report["expansions"] > budget:
            errors.append(f"{report['expansions']} expansions > budget {budget}")
        return found, errors

    return check


# -- workload constructors -----------------------------------------------------


def build(p: int, n: int, why: str = "") -> Workload:
    return Workload(
        name=f"build-sp{2 * n}{p}",
        args=("build", "--p", str(p), "--n", str(n)),
        spaces=((n, p),),
        item="singular subspaces",
        expected_exit=0,
        check=check_build(p, n),
        why=why,
    )


def theorem2_sample(p: int, n: int, m: int, budget: int, floor: int, why: str = "") -> Workload:
    return Workload(
        name=f"theorem2-sp{2 * n}{p}-h{m}",
        args=("verify", "theorem2", "--p", str(p), "--n", str(n), "--m", str(m),
              "--mode", "sample", "--budget", str(budget)),
        spaces=((n, p),),
        item="distinct images validated",
        expected_exit=2,
        check=check_theorem2_sample(p, n, m, budget, floor),
        why=why,
    )


def theorem3(p: int, n: int, n_prime: int, mode: str, budget: int, workers: int,
             expected_exit: int, why: str = "") -> Workload:
    return Workload(
        name=f"theorem3-sp{2 * n}{p}-sp{2 * n_prime}{p}",
        args=("verify", "theorem3", "--p", str(p), "--n", str(n), "--n-prime", str(n_prime),
              "--mode", mode, "--budget", str(budget), "--workers", str(workers)),
        spaces=((n, p), (n_prime, p)),
        item="embeddings validated",
        expected_exit=expected_exit,
        check=check_theorem3(p, n, n_prime, budget),
        why=why,
    )


def count_embeddings(p: int, n: int, why: str = "") -> Workload:
    return Workload(
        name=f"embeddings-sp{2 * n}{p}-h{n}",
        args=("count", "embeddings", "--p", str(p), "--n", str(n), "--m", str(n)),
        spaces=((n, p),),
        item="embeddings found",
        expected_exit=0,
        check=check_embeddings(p, n),
        why=why,
    )


# Each sample is sized to take a few seconds, so that a run holds several
# samples and a median; README.md gives the full-size commands they scale down.
WORKLOADS = {
    w.name: w
    for w in (
        build(3, 3, why="space build: enumerate_singular, hyperplane adjacency, "
                        "BFS distances and 0.4 MB of JSON export; no search"),
        theorem2_sample(2, 3, 3, budget=5000, floor=1000,
                        why="validation: is_apartment and linalg.intersect on every "
                            "distinct sampled H_3 image; budget runs out by design"),
        theorem3(2, 2, 3, mode="sample", budget=100_000, workers=2, expected_exit=2,
                 why="morphisms: lemma5, induced point maps and frame checks behind "
                     "memo dicts, plus the embedding search; the only run at 2 workers"),
        count_embeddings(5, 2, why="search only: 585 000 materialised embeddings over "
                                   "GF(5), the memory-bound workload"),
    )
}
