"""Independent checks of each op's output.

``Checker.check(op, output)`` returns None when the output is right and a
one-line reason when it is not.  Checks run after an op's timing ends.  They
re-derive the answer through ``ownref`` (never through the function that
produced it); Schmidt certificates are additionally replayed through the
program's own verifier and representation, as the certificate format
promises a user can do.
"""

from __future__ import annotations

import json
import math

import numpy as np

import ownref

INF = "infinity"  # how reports encode math.inf
TOL = 1e-9


def _len(x):
    """Report length (int or "infinity") as a number."""
    return math.inf if x == INF else x


class Rejected(Exception):
    """An output the check does not accept."""


def require(cond, message):
    if not cond:
        raise Rejected(message)


class Checker:
    """Runs the check named by each op; caches reference results per graph."""

    def __init__(self, qg):
        self.qg = qg
        self._adj: dict = {}
        self._endos: dict = {}

    def adj(self, spec):
        if spec not in self._adj:
            self._adj[spec] = ownref.family_adj(spec)
        return self._adj[spec]

    def endos(self, spec):
        if spec not in self._endos:
            self._endos[spec] = ownref.endos(self.adj(spec))
        return self._endos[spec]

    def check(self, op, output: str):
        """None if the output passes, else the reason it was rejected."""
        try:
            doc = json.loads(output)
            getattr(self, "check_" + op.check)(op, doc if op.lib else doc["result"], doc)
        except Rejected as exc:
            return str(exc)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
        return None

    # -- shared pieces -----------------------------------------------------

    def graph_echo(self, spec, echoed):
        adj = self.adj(spec)
        require(echoed["n"] == len(adj) and echoed["edges"] == ownref.edge_list(adj),
                f"graph {spec} does not match its definition")

    def certificate(self, spec, cert):
        adj = self.adj(spec)
        f, g, mode = tuple(cert["f"]), tuple(cert["g"]), cert["mode"]
        sf, sg = ownref.support_mask(f), ownref.support_mask(g)
        require(ownref.is_hom(adj, adj, f) and ownref.is_hom(adj, adj, g),
                "certificate map is not an endomorphism")
        require(sf and sg and not sf & sg, "certificate supports empty or overlapping")
        if mode == "disconnected":
            nb = ownref.masks(adj)
            require(not any(nb[x] & sg for x in ownref.bits(sf)),
                    "disconnected certificate has an edge between supports")
        else:
            require(mode == "disjoint_wac" and ownref.wac(adj, f, g), "certificate not WAC")
        x, y = cert["witness_vertices"]
        require(sf >> x & 1 and sg >> y & 1, "witness vertices outside supports")
        # Replay through the program's verifier and representation.
        qg = self.qg
        graph = qg.build_family(spec)
        ef, eg = qg.Endomorphism(graph, f), qg.Endomorphism(graph, g)
        try:
            qg.verify_schmidt_certificate(qg.SchmidtCertificate(ef, eg, mode, (x, y)))
        except ValueError as exc:
            raise Rejected(f"verify_schmidt_certificate: {exc}") from None
        rep = qg.schmidt_rep(graph, ef, eg)
        require(qg.verify_rep(rep, oracular=mode == "disconnected").passed,
                "Schmidt representation fails verification")
        a, b = qg.schmidt_witness(ef, eg)
        c = rep.entry(*a) @ rep.entry(*b) - rep.entry(*b) @ rep.entry(*a)
        require(abs(ownref.op_norm(c) - 0.5) < TOL, "witness commutator norm is not 1/2")

    def pair_search(self, spec, oracular, cert):
        """A found certificate must check; 'none found' must be true."""
        if cert is not None:
            self.certificate(spec, cert)
            require((cert["mode"] == "disconnected") == oracular, "certificate of the wrong mode")
            return
        maps = self.endos(spec)
        require(not ownref.has_disconnected_pair(self.adj(spec), maps),
                "missed a disconnected-support pair")
        if not oracular:
            require(not ownref.has_wac_pair(self.adj(spec), maps), "missed a WAC pair")

    def girth_report(self, adj, got):
        import networkx as nx  # imported here so the timed process never loads it
        nxg = nx.from_numpy_array(adj.astype(int))
        odd = ownref.odd_girth(adj)
        diameter = (nx.diameter(nxg) if len(adj) and nx.is_connected(nxg) else math.inf)
        want = {"girth": nx.girth(nxg), "odd_girth": odd, "odd_walk_girth": odd,
                "diameter": diameter}
        for key, value in want.items():
            require(_len(got[key]) == value, f"{key} {got[key]} != {value}")

    def homs_table(self, gadget, x, y, target, entries):
        """Every pinned witness is a homomorphism; every miss is a true miss."""
        for a in range(len(target)):
            for b in range(len(target)):
                w = entries[f"{a},{b}"]
                if w is None:
                    require(not ownref.homs(gadget, target, {x: a, y: b}, limit=1),
                            f"pins ({a},{b}) have a witness the table misses")
                else:
                    require(ownref.is_hom(gadget, target, w) and (w[x], w[y]) == (a, b),
                            f"witness for pins ({a},{b}) is wrong")
        return all(w is not None for w in entries.values())

    # -- nogo-search -------------------------------------------------------

    def check_analyze(self, op, res, doc):
        spec = op.data["graph"]
        adj = self.adj(spec)
        self.graph_echo(spec, res["graph"])
        verdict = res["verdict"]
        kind, cert = verdict["kind"], verdict["certificate"]
        maps = self.endos(spec)
        known = ownref.known_oracular_gadget(spec)
        if kind == "no_gadget_at_all":
            self.pair_search(spec, True, cert)
            require(verdict["known_gadget"] is None, "known gadget attached to a full no-go")
        else:
            self.pair_search(spec, True, None)
            if kind == "no_nonoracular_gadget":
                self.pair_search(spec, False, cert)
            else:
                require(not ownref.has_wac_pair(adj, maps), "missed a WAC pair")
                require(kind == ("known_gadget" if known else "unknown"), f"verdict {kind}")
            require(verdict["known_gadget"] == known, "known gadget mismatch")
        self.girth_report(adj, res["girths"])
        require(res["oracularisable"] == (not ownref.has_four_cycle(adj)),
                "oracularisability is wrong")
        if res["four_cycle"] is not None:
            a, b, c, d, a2 = res["four_cycle"]
            require(a == a2 and len({a, b, c, d}) == 4
                    and all(adj[p, q] for p, q in ((a, b), (b, c), (c, d), (d, a))),
                    "four_cycle is not a 4-cycle")

    def check_schmidt(self, op, res, doc):
        spec = op.data["graph"]
        self.graph_echo(spec, res["graph"])
        require(res["found"] == (res["certificate"] is not None), "found flag disagrees")
        self.pair_search(spec, op.data["oracular"], res["certificate"])

    def check_endos(self, op, res, doc):
        spec = op.data["graph"]
        maps = self.endos(spec)
        require(res["count"] == len(maps), f"count {res['count']} != {len(maps)}")
        require([tuple(m) for m in res["endomorphisms"]] == maps, "endomorphism list differs")
        require(res["is_core"] == all(len(set(m)) == len(m) for m in maps), "is_core is wrong")

    def check_homs(self, op, res, doc):
        d = op.data
        want = ownref.homs(self.adj(d["source"]), self.adj(d["target"]), d["pins"],
                           d["limit"] or None)
        require(res["count"] == len(want) and [tuple(m) for m in res["homomorphisms"]] == want,
                f"homomorphisms differ ({res['count']} vs {len(want)})")

    # -- gadget-qcore ------------------------------------------------------

    def check_qcore(self, op, res, doc):
        spec = op.data["graph"]
        adj = self.adj(spec)
        n = len(adj)
        lmax = doc["inputs"]["lmax"]
        self.graph_echo(spec, res["graph"])
        cert = res["certificate"]
        require(res["certified"] == (cert is not None) == res["re_verified"],
                "certified flags disagree")
        if cert is not None:
            column = {tuple(map(int, k.split(","))): v for k, v in cert["column_lengths"].items()}
            cross = {tuple(map(int, k.split(","))): v for k, v in cert["cross_lengths"].items()}
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            require(set(column) == set(pairs), "column pairs incomplete")
            require(set(cross) == {(a, b) for a, b in pairs if not adj[a, b]},
                    "cross pairs incomplete")
            for ell in set(column.values()) | set(cross.values()):
                require(1 <= ell <= lmax, f"length {ell} outside 1..{lmax}")
                p = ownref.bool_power(adj, ell)
                closed, adjacent = p.diagonal().any(), (p & adj).any()
                require(all(p[a, b] and not closed for (a, b), l in column.items() if l == ell),
                        f"column condition fails at length {ell}")
                require(all(p[a, b] and not adjacent for (a, b), l in cross.items() if l == ell),
                        f"cross condition fails at length {ell}")
        else:
            col_ok = np.zeros((n, n), dtype=bool)
            cross_ok = np.zeros((n, n), dtype=bool)
            p = np.eye(n, dtype=bool)
            for _ in range(lmax):
                p = p @ adj
                if not p.diagonal().any():
                    col_ok |= p
                if not (p & adj).any():
                    cross_ok |= p
            off = ~np.eye(n, dtype=bool)
            require(not ((col_ok | ~off).all() and (cross_ok | adj | ~off).all()),
                    "a complete certificate exists within lmax")
        classical = res["classical_only"]
        require(classical["quantum_core_certified"] == res["certified"], "classical_only flag")
        if n <= 12:
            maps = self.endos(spec)
            require(classical["classical_core"] == all(len(set(m)) == n for m in maps),
                    "classical_core is wrong")
            require(classical["schmidt_pair_found"] == ownref.has_wac_pair(adj, maps),
                    "schmidt_pair_found is wrong")
        else:
            require(classical["classical_core"] is None, "classical_core set above the bound")

    def check_gadget_check(self, op, res, doc):
        d = op.data
        gadget, target = self.adj(d["gadget"]), self.adj(d["target"])
        x, y = d["x"], d["y"]
        complete = self.homs_table(gadget, x, y, target, res["property_i"]["entries"])
        require(res["property_i"]["complete"] == complete, "complete flag is wrong")
        lmax = 2 * (len(gadget) + len(target))
        want = None
        reach = np.zeros(len(gadget), dtype=bool)
        reach[x] = True
        tpow = np.eye(len(target), dtype=bool)
        for ell in range(lmax + 1):
            if ell:
                reach, tpow = reach @ gadget, tpow @ target
            if reach[y] and not tpow.all():
                a, b = np.argwhere(~tpow)[0]
                want = {"length": ell, "pair": [int(a), int(b)]}
                break
        require(res["walk_obstruction"] == want, f"walk obstruction {res['walk_obstruction']}"
                                                  f" != {want}")
        require(res["status"].startswith("refuted") == (want is not None)
                and ("holds" in res["status"]) == (want is None and complete), "status is wrong")

    def check_gadget_build(self, op, res, doc):
        k = op.data["k"]
        cand = res["candidate"]
        self.graph_echo(f"cmpl(C:{2 * k})", cand["gadget"])
        self.graph_echo(f"K:{k}", cand["target"])
        require((cand["x"], cand["y"], cand["status"]) == (0, 1, "proven_oracular"),
                "candidate fields are wrong")
        require(self.homs_table(self.adj(f"cmpl(C:{2 * k})"), 0, 1, self.adj(f"K:{k}"),
                                res["property_i"]["entries"]) and res["property_i"]["complete"],
                "property (i) table incomplete")

    def check_product_transfer(self, op, res, doc):
        d = op.data
        product = f"tensor({d['targets'][0]},{d['targets'][1]})"
        cand = res["candidate"]
        self.graph_echo(product, cand["target"])
        both = d["statuses"] == ["proven_oracular", "proven_oracular"]
        require(cand["status"] == ("proven_oracular" if both else "candidate"), "status is wrong")
        complete = self.homs_table(self.adj(d["gadget"]), d["x"], d["y"], self.adj(product),
                                   res["property_i"]["entries"])
        require(res["property_i"]["complete"] == complete, "complete flag is wrong")

    def check_splice(self, op, res, doc):
        d = op.data
        h, gadget = d["instance"], self.adj(d["gadget"])
        n = len(h)
        edges = {tuple(e) for e in ownref.edge_list(h)}
        for u, v in d["pairs"]:
            place = {d["x"]: u, d["y"]: v}
            for z in range(len(gadget)):
                if z not in place:
                    place[z], n = n, n + 1
            edges |= {tuple(sorted((place[a], place[b]))) for a, b in ownref.edge_list(gadget)}
        got = res["graph"]
        require(got["n"] == n and [tuple(e) for e in got["edges"]] == sorted(edges),
                "spliced graph is wrong")
        lines = res["edge_list"].splitlines()
        require(lines[0] == f"{n} {len(edges)}"
                and [tuple(map(int, ln.split())) for ln in lines[1:]] == sorted(edges),
                "edge_list text is wrong")

    def check_bipartite(self, op, res, doc):
        h, g = op.data["instance"], op.data["target"]
        h_bip = ownref.is_bipartite(h)
        want = (not h.any()) if not g.any() else h_bip
        require(res == {"morphisms_exist": want, "instance_bipartite": h_bip,
                        "target_edgeless": not g.any()}, f"decision {res} is wrong")

    def check_girths(self, op, res, doc):
        self.girth_report(op.data["adj"], res)

    def check_walk_query(self, op, res, doc):
        adj = op.data["adj"]
        pdist = {}
        for ell, u, v in op.data["queries"]:
            pdist.setdefault(u, ownref.parity_distances(adj, u))
        for u, _ in op.data["pairs"]:
            pdist.setdefault(u, ownref.parity_distances(adj, u))
        for (ell, u, v), got in zip(op.data["queries"], res["has_walk"], strict=True):
            require(got == ownref.has_walk(adj, pdist[u], ell, u, v),
                    f"has_walk({ell},{u},{v}) = {got}")
        for (u, v), got in zip(op.data["pairs"], res["distance"], strict=True):
            require(_len(got) == ownref.bfs_distance(pdist[u], v), f"distance({u},{v}) = {got}")

    # -- rep-pipeline ------------------------------------------------------

    def check_disprove(self, op, res, doc):
        n, k = op.data["n"], op.data["k"]
        m = 2 * n + 1
        rep = res["report"]
        require(rep["all_refuted"], "not all pairs refuted")
        require(rep["total_pairs"] == math.comb(m * (k + 1), 2), "total_pairs is wrong")
        require(sum(c["members"] for c in rep["classes"]) == rep["total_pairs"],
                "class sizes do not add up")
        for c in rep["classes"]:
            (a0, s0), (b0, t0) = c["representative"]
            dist = min((a0 - b0) % m, (b0 - a0) % m) + abs(t0 - s0)
            ref = c["refutation"]
            if dist < 2 * n:
                require(ref == {"kind": "distance", "distance": dist, "required": 2 * n},
                        f"distance refutation of {c['representative']} is wrong")
            else:
                require(ref["kind"] == "noncommuting_witness" and ref["rep_verified"]
                        and ref["commutator_norm"] > TOL,
                        f"pair {c['representative']} lacks a noncommuting witness")

    def check_rep_verify(self, op, res, doc):
        with open(op.data["path"], encoding="utf-8") as fh:
            rep = json.load(fh)
        own = ownref.rep_relations(rep, op.data["oracular"])
        worst = max(r for r, _ in own.values())
        got = res["report"]
        require(res["dim"] == rep["dim"] and res["entries"] == len(rep["mats"]), "echo is wrong")
        require(got["passed"] == (worst <= rep["tol"]), f"passed={got['passed']}, worst {worst}")
        require(abs(got["max_residual"] - worst) <= 1e-12 + 1e-9 * worst, "max_residual differs")
        counts = {name: 0 for name in own}
        for v in got["violations"]:
            counts[v["relation"]] += 1
        require(counts == {name: c for name, (_, c) in own.items()}, "violations differ")

    def check_rep_compose(self, op, res, doc):
        docs = []
        for key in ("first", "second"):
            with open(op.data[key], encoding="utf-8") as fh:
                docs.append(json.load(fh))
        want = ownref.compose(*docs)
        got = res["representation"]
        require(res["report"]["passed"], "composite fails verification")
        require(res["dim"] == got["dim"] == docs[0]["dim"] * docs[1]["dim"], "dimension is wrong")
        require(ownref.rep_relations(got, False)["row_sum_identity"][1] == 0,
                "composite rows do not sum to the identity")
        _, _, stack, present = ownref.parse_rep(got)
        keep = {key for key, m in want.items() if np.abs(m).max() > 1e-12}
        require(keep <= {tuple(k) for k in np.argwhere(present).tolist()},
                "composite misses entries")
        require(all(np.abs(stack[a, c] - want.get((a, c), 0)).max() <= 1e-10
                    for a, c in np.argwhere(present).tolist()), "composite entries differ")

    def check_defect(self, op, res, doc):
        want = op.data["expected"]
        require(abs(res["defect"] - want) <= TOL, f"defect {res['defect']} != {want}")
