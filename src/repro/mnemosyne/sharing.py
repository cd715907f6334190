"""Memory-sharing optimization over the compatibility graph.

Three modes:

* ``NONE``     — one PLM unit per array (the paper's baseline: 31 BRAMs per
  Inverse Helmholtz kernel).
* ``MATCHING`` — pairwise merges chosen by maximum-weight matching on the
  address-space compatibility graph, weights = BRAM savings.  This mirrors
  the pairwise-merge behaviour of the Mnemosyne release used in the paper
  and reproduces its 18 BRAMs per kernel.
* ``CLIQUE``   — greedy clique cover: any number of mutually compatible
  arrays overlay one unit.  More aggressive than the paper's tool (13
  BRAMs for the Helmholtz kernel); reported as an ablation.

Merged units take the strongest port class of their members and the
capacity of the largest member (all members overlay at offset 0; liveness
disjointness makes this legal — Sec. V-A2).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Sequence, Tuple

from repro.errors import MemoryArchitectureError
from repro.mnemosyne.bram import PortClass, brams_for_unit
from repro.mnemosyne.config import MnemosyneConfig
from repro.mnemosyne.plm import MemorySubsystem, PLMUnit


class SharingMode(enum.Enum):
    NONE = "none"
    MATCHING = "matching"
    CLIQUE = "clique"


def _merged_port_class(config: MnemosyneConfig, members: Tuple[str, ...]) -> PortClass:
    if any(
        config.port_classes[m] is PortClass.ACCELERATOR_AND_SYSTEM for m in members
    ):
        return PortClass.ACCELERATOR_AND_SYSTEM
    return PortClass.ACCELERATOR_ONLY


def _unit_for(config: MnemosyneConfig, members: Tuple[str, ...], idx: int) -> PLMUnit:
    words = max(config.sizes[m] for m in members)
    banks = max(config.banks_of(m) for m in members)
    return PLMUnit(
        f"plm{idx}", tuple(members), words, _merged_port_class(config, members), banks
    )


def _merge_saving(config: MnemosyneConfig, a: str, b: str) -> int:
    """BRAM tiles saved by overlaying two arrays in one unit."""
    alone = brams_for_unit(
        config.sizes[a], config.port_classes[a], config.banks_of(a)
    ) + brams_for_unit(config.sizes[b], config.port_classes[b], config.banks_of(b))
    merged_words = max(config.sizes[a], config.sizes[b])
    merged_banks = max(config.banks_of(a), config.banks_of(b))
    merged = brams_for_unit(
        merged_words, _merged_port_class(config, (a, b)), merged_banks
    )
    return alone - merged


_EXACT_MATCHING_LIMIT = 20  # bitmask DP beyond this is too slow; greedy fallback


def max_weight_matching(
    nodes: Sequence[str], weights: Dict[Tuple[str, str], int]
) -> List[Tuple[str, str]]:
    """A maximum-weight matching of the graph whose positive-weight edges
    are ``weights`` (``(a, b) -> w`` with ``a`` before ``b`` in ``nodes``).

    Exact when at most ``_EXACT_MATCHING_LIMIT`` nodes carry an edge: a
    bitmask DP over the set of still-unmatched nodes, which either leaves
    its lowest node alone or pairs it with a later neighbour.  Among
    equal-weight matchings the first one met wins, pairing a node with its
    earliest neighbour before leaving it unmatched.  Beyond the limit it
    falls back to a greedy matching (heaviest edge first, ties in node
    order), which is valid but not always optimal.  Pairs come back in
    node order.
    """
    ends = {a for edge in weights for a in edge}
    live = [a for a in nodes if a in ends]
    if len(live) > _EXACT_MATCHING_LIMIT:
        order = {a: i for i, a in enumerate(nodes)}
        matched: set = set()
        pairs = []
        for (a, b), _ in sorted(
            weights.items(), key=lambda kv: (-kv[1], order[kv[0][0]], order[kv[0][1]])
        ):
            if a not in matched and b not in matched:
                matched.update((a, b))
                pairs.append((a, b))
        return sorted(pairs, key=lambda p: order[p[0]])

    n = len(live)
    idx = {a: i for i, a in enumerate(live)}
    neighbours: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for (a, b), w in weights.items():
        neighbours[idx[a]].append((idx[b], w))
    for row in neighbours:
        row.sort()
    memo: Dict[int, Tuple[int, int]] = {0: (0, 0)}

    def best(mask: int) -> Tuple[int, int]:
        """(weight, chosen partner bit or 0) of the best matching on mask."""
        if mask in memo:
            return memo[mask]
        low = mask & -mask
        rest = mask ^ low
        top, choice = -1, 0
        for j, w in neighbours[low.bit_length() - 1]:
            if rest >> j & 1:
                total = w + best(rest ^ (1 << j))[0]
                if total > top:
                    top, choice = total, 1 << j
        skip = best(rest)[0]
        if skip > top:
            top, choice = skip, 0
        memo[mask] = (top, choice)
        return memo[mask]

    pairs = []
    mask = (1 << n) - 1
    while mask:
        low = mask & -mask
        partner = best(mask)[1]
        if partner:
            pairs.append((live[low.bit_length() - 1], live[partner.bit_length() - 1]))
        mask ^= low | partner
    return pairs


def _share_matching(config: MnemosyneConfig) -> List[Tuple[str, ...]]:
    """Pairwise merges by maximum-weight matching, weights = BRAM savings."""
    order = {a: i for i, a in enumerate(config.arrays)}
    weights: Dict[Tuple[str, str], int] = {}
    for e in config.address_space_edges:
        a, b = sorted(e, key=order.__getitem__)
        w = _merge_saving(config, a, b)
        if w > 0:
            weights[(a, b)] = w
    paired = {}
    for a, b in max_weight_matching(config.arrays, weights):
        paired[a] = b
        paired[b] = a
    groups: List[Tuple[str, ...]] = []
    done = set()
    for a in config.arrays:
        if a in done:
            continue
        if a in paired:
            b = paired[a]
            groups.append(tuple(sorted((a, b))))
            done.update((a, b))
        else:
            groups.append((a,))
            done.add(a)
    return groups


_EXACT_CLIQUE_LIMIT = 14  # subset-DP beyond this is too slow; greedy fallback


def _share_clique(config: MnemosyneConfig) -> List[Tuple[str, ...]]:
    """Minimum-BRAM clique cover.

    Exact for up to ``_EXACT_CLIQUE_LIMIT`` arrays via subset dynamic
    programming (``best[mask] = min over clique submasks containing the
    lowest bit``); greedy first-fit (largest arrays first) beyond that.
    """
    arrays = sorted(config.arrays)
    n = len(arrays)
    idx = {a: i for i, a in enumerate(arrays)}
    adj = [0] * n
    for e in config.address_space_edges:
        a, b = tuple(e)
        if a in idx and b in idx:
            adj[idx[a]] |= 1 << idx[b]
            adj[idx[b]] |= 1 << idx[a]

    def group_cost(mask: int) -> int:
        members = tuple(arrays[i] for i in range(n) if mask & (1 << i))
        words = max(config.sizes[m] for m in members)
        banks = max(config.banks_of(m) for m in members)
        return brams_for_unit(words, _merged_port_class(config, members), banks)

    def is_clique_simple(mask: int) -> bool:
        bits = [i for i in range(n) if mask & (1 << i)]
        for x in range(len(bits)):
            for y in range(x + 1, len(bits)):
                if not (adj[bits[x]] >> bits[y]) & 1:
                    return False
        return True

    if n <= _EXACT_CLIQUE_LIMIT:
        full = (1 << n) - 1
        INF = float("inf")
        best = [INF] * (full + 1)
        choice = [0] * (full + 1)
        best[0] = 0
        for mask in range(1, full + 1):
            low = mask & -mask
            sub = mask
            while sub:
                if sub & low and is_clique_simple(sub):
                    c = group_cost(sub) + best[mask ^ sub]
                    if c < best[mask]:
                        best[mask] = c
                        choice[mask] = sub
                sub = (sub - 1) & mask
        groups: List[Tuple[str, ...]] = []
        mask = full
        while mask:
            sub = choice[mask]
            groups.append(tuple(arrays[i] for i in range(n) if sub & (1 << i)))
            mask ^= sub
        return sorted(groups)

    # greedy fallback: largest arrays first, extend to a maximal clique
    order = sorted(config.arrays, key=lambda a: (-config.sizes[a], a))
    groups = []
    used: set = set()
    for a in order:
        if a in used:
            continue
        group = [a]
        used.add(a)
        for b in order:
            if b in used:
                continue
            if all((adj[idx[b]] >> idx[m]) & 1 for m in group):
                group.append(b)
                used.add(b)
        groups.append(tuple(sorted(group)))
    return sorted(groups)


def validate_groups(config: MnemosyneConfig, groups: List[Tuple[str, ...]]) -> None:
    """Legality: every pair inside a group must be address-space compatible."""
    for group in groups:
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                if not config.compatible(a, b):
                    raise MemoryArchitectureError(
                        f"illegal sharing: {a!r} and {b!r} are not address-space compatible"
                    )


def build_memory_subsystem(
    config: MnemosyneConfig,
    mode: SharingMode = SharingMode.MATCHING,
    groups: List[Tuple[str, ...]] | None = None,
) -> MemorySubsystem:
    """Build the per-kernel memory subsystem under the given sharing mode.

    ``groups`` overrides the optimizer with an explicit grouping (still
    legality-checked) — used for what-if exploration.
    """
    if groups is None:
        if mode is SharingMode.NONE:
            groups = [(a,) for a in config.arrays]
        elif mode is SharingMode.MATCHING:
            groups = _share_matching(config)
        elif mode is SharingMode.CLIQUE:
            groups = _share_clique(config)
        else:  # pragma: no cover
            raise MemoryArchitectureError(f"unknown sharing mode {mode}")
    validate_groups(config, groups)
    subsystem = MemorySubsystem(
        [_unit_for(config, g, i) for i, g in enumerate(groups)]
    )
    return subsystem.validate()


def sharing_report(config: MnemosyneConfig) -> Dict[str, int]:
    """BRAM totals per sharing mode (for Fig. 8-style summaries)."""
    return {
        mode.value: build_memory_subsystem(config, mode).brams
        for mode in SharingMode
    }
