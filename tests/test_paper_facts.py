"""Section-by-section checks of concrete facts stated in the paper.

Every test here cites the paper location it reproduces.
"""

import pytest

from repro.db import Database, DBTuple
from repro.query import parse_query, satisfies, witnesses
from repro.query.zoo import (
    ALL_QUERIES,
    q_Aperm,
    q_chain,
    q_cfp,
    q_perm,
    q_sj1_rats,
    q_vc,
)
from repro.resilience import resilience_exact, solve
from repro.structure import Verdict, classify, normalize
from repro.workloads import random_database_for_query


class TestSection2:
    def test_witness_example(self, chain_db):
        """Section 2: qchain over {R(1,2), R(2,3), R(3,3)} has witnesses
        (1,2,3), (2,3,3), (3,3,3)."""
        ws = {tuple(w[v] for v in "xyz") for w in witnesses(chain_db, q_chain)}
        assert ws == {(1, 2, 3), (2, 3, 3), (3, 3, 3)}


class TestSection3:
    def test_example_11_domination_failure(self, example_11_db):
        """Example 11: with R endogenous the minimum contingency set is
        {R(1,2)} (size 1); making R exogenous forces {A(1), A(5)}."""
        assert resilience_exact(example_11_db, q_sj1_rats).value == 1
        frozen = example_11_db.copy()
        frozen.set_exogenous("R")
        assert resilience_exact(frozen, q_sj1_rats).value == 2

    def test_example_11_witnesses(self, example_11_db):
        """Example 11: the query has 3 witnesses: (1,2,3), (1,2,5), (5,1,2)."""
        ws = {tuple(w[v] for v in "xyz") for w in witnesses(example_11_db, q_sj1_rats)}
        assert ws == {(1, 2, 3), (1, 2, 5), (5, 1, 2)}


class TestSection7:
    def test_qperm_resilience_counts_witness_pairs(self):
        """Prop 33: for qperm each witness pair is disjoint from others."""
        db = Database()
        db.add_all("R", [(1, 2), (2, 1), (3, 4), (4, 3), (5, 5)])
        assert solve(db, q_perm).value == 3  # pairs {1,2}, {3,4}, loop {5}

    def test_cfp_equivalent_to_qvc(self):
        """Section 7.2: RES(cfp) == RES(qvc) — check on a mapped instance."""
        # graph: edges (1,2), (2,3); VC = 1 (vertex 2)
        db_vc = Database()
        db_vc.add_all("R", [1, 2, 3])
        db_vc.add_all("S", [(1, 2), (2, 3)])
        rho_vc = resilience_exact(db_vc, q_vc).value
        # cfp :- R(x,y), H^x(x,z), R(z,y): encode vertices as R(v, 0),
        # edges as H(u, v).
        db_cfp = Database()
        db_cfp.declare("H", 2, exogenous=True)
        for v in (1, 2, 3):
            db_cfp.add("R", v, 0)
        for (u, v) in [(1, 2), (2, 3)]:
            db_cfp.add("H", u, v)
        rho_cfp = resilience_exact(db_cfp, q_cfp).value
        assert rho_vc == rho_cfp == 1

    def test_rep_z3_off_diagonal_never_needed(self):
        """Prop 36's key observation on a concrete database."""
        from repro.query.zoo import q_z3

        db = Database()
        db.add_all("R", [(1, 1), (1, 2)])
        db.add_all("A", [1, 2])
        res = resilience_exact(db, q_z3)
        assert res.value == 1
        assert res.contingency_set == frozenset({DBTuple("R", (1, 1))})


class TestSection8:
    def test_ac3conf_vs_ts3conf(self):
        """Section 8.2: 'These queries are very similar but one of them is
        hard, while the other one is easy.'"""
        assert classify(ALL_QUERIES["q_AC3conf"]).verdict == Verdict.NPC
        assert classify(ALL_QUERIES["q_TS3conf"]).verdict == Verdict.P

    def test_sxy_variation_changes_complexity(self):
        """Section 8.4: qSwx3perm-R is in P but qSxy3perm-R is NP-complete —
        'surprising that such a small difference can change complexity'."""
        assert classify(ALL_QUERIES["q_Swx3perm_R"]).verdict == Verdict.P
        assert classify(ALL_QUERIES["q_Sxy3perm_R"]).verdict == Verdict.NPC

    def test_open_problems_reported_open(self):
        for name in ("q_AS3conf", "q_S3cc", "q_ASxy3perm_R", "q_SxyB3perm_R",
                     "q_SxyC3perm_R", "q_z6", "q_z7"):
            assert classify(ALL_QUERIES[name]).verdict == Verdict.OPEN, name


class TestSection5:
    def test_lemma_21_direction(self):
        """Self-join variations can only be harder: on lifted databases the
        resilience matches the sj-free source exactly (Lemma 21)."""
        from repro.query.zoo import q_triangle, q_triangle_sj3
        from repro.reductions.sj_variation import sj_variation_instance

        db = random_database_for_query(q_triangle, domain_size=3, density=0.6, seed=5)
        base = resilience_exact(db, q_triangle).value
        inst = sj_variation_instance(q_triangle, q_triangle_sj3, db, base)
        assert resilience_exact(inst.database, q_triangle_sj3).value == base

    def test_all_triangle_variations_hard(self):
        """Example 20 + Lemma 21: all self-join variations of q_triangle
        are NP-complete."""
        for name in ("q_triangle_sj1", "q_triangle_sj2", "q_triangle_sj3"):
            assert classify(ALL_QUERIES[name]).verdict == Verdict.NPC


class TestOpenConjectureTable:
    """The standing IJP sweep's open-query status table (docs/ijp.md).

    OPEN_QUERY_STATUS pins what the literal Definition 48 search finds
    on the paper's seven open queries.  Every row is re-swept live
    here, the B(9)-scale k=3 ranges of the three-variable queries
    included (a few seconds each).  The punchline
    extends the Reproduction finding: four of the seven open queries
    admit literal certificates, mostly with degenerate (reflexive)
    endpoints — exactly the shape that already "certifies" PTIME
    queries — so a literal Definition 48 pass resolves nothing until
    Conjecture 49 acquires gluing conditions.
    """

    def test_table_covers_exactly_the_open_queries(self):
        from repro.ijp.sweep import OPEN_QUERIES, OPEN_QUERY_STATUS
        from repro.query.zoo import PAPER_VERDICTS

        open_names = {n for n, v in PAPER_VERDICTS.items() if v == "OPEN"}
        assert set(OPEN_QUERIES) == open_names
        assert set(OPEN_QUERY_STATUS) == open_names
        for name, row in OPEN_QUERY_STATUS.items():
            assert row["variables"] == len(ALL_QUERIES[name].variables()), name
            assert row["proper"] <= row["certificates"], name
            if row["first_certificate_k"] is None:
                assert row["certificates"] == 0, name

    def test_s3cc_admits_literal_certificates_at_one_copy(self):
        """q_S3cc: the single-copy space (B(4) = 15) already contains 4
        literal Definition 48 certificates, 3 of them proper."""
        from repro.ijp.sweep import certificate_is_proper, sweep_range

        result = sweep_range(ALL_QUERIES["q_S3cc"], 1)
        assert result.stats.exhausted
        assert len(result.certificates) == 4
        assert sum(certificate_is_proper(c) for c in result.certificates) == 3

    def test_as3conf_first_certificates_at_two_copies(self):
        """q_AS3conf: empty at one copy, 72 certificate databases (16
        proper) among the B(8) = 4140 two-copy partitions."""
        from repro.ijp.sweep import certificate_is_proper, sweep_range

        q = ALL_QUERIES["q_AS3conf"]
        assert sweep_range(q, 1).certificates == []
        result = sweep_range(q, 2)
        assert result.stats.exhausted
        assert len(result.certificates) == 72
        assert sum(certificate_is_proper(c) for c in result.certificates) == 16

    def test_z7_stays_empty_through_three_copies(self):
        from repro.ijp.sweep import sweep_range

        q = ALL_QUERIES["q_z7"]
        for k in (1, 2, 3):
            result = sweep_range(q, k)
            assert result.stats.exhausted
            assert result.certificates == []

    def test_perm_families_empty_at_two_copies(self):
        """q_ASxy3perm_R / q_SxyB3perm_R: no literal certificate up to
        two copies (their k=3 emptiness is pinned by the E23 sweep)."""
        from repro.ijp.sweep import sweep_range

        for name in ("q_ASxy3perm_R", "q_SxyB3perm_R"):
            for k in (1, 2):
                assert sweep_range(ALL_QUERIES[name], k).certificates == []

    def test_deep_ranges_match_the_pinned_table(self):
        """The B(9)-scale findings recorded in OPEN_QUERY_STATUS:
        q_SxyC3perm_R first certifies at k=3 with a proper majority,
        q_z6 at k=3 with *only* degenerate certificates."""
        from repro.ijp.sweep import OPEN_QUERY_STATUS

        assert OPEN_QUERY_STATUS["q_SxyC3perm_R"] == {
            "variables": 3,
            "swept_copies": 3,
            "first_certificate_k": 3,
            "certificates": 84,
            "proper": 66,
        }
        assert OPEN_QUERY_STATUS["q_z6"] == {
            "variables": 3,
            "swept_copies": 3,
            "first_certificate_k": 3,
            "certificates": 90,
            "proper": 0,
        }

    @pytest.mark.parametrize(
        "name", ["q_SxyC3perm_R", "q_z6", "q_ASxy3perm_R", "q_SxyB3perm_R", "q_z7"]
    )
    def test_three_copy_rows_reswept_live(self, name):
        """The k=3 rows of OPEN_QUERY_STATUS, re-swept in full."""
        from repro.ijp.rgs import bell_number
        from repro.ijp.sweep import (
            OPEN_QUERY_STATUS,
            certificate_is_proper,
            sweep_range,
        )

        row = OPEN_QUERY_STATUS[name]
        assert row["swept_copies"] == 3
        result = sweep_range(ALL_QUERIES[name], 3)
        assert result.stats.exhausted
        assert result.stats.covered == bell_number(3 * row["variables"])
        assert len(result.certificates) == row["certificates"]
        assert sum(map(certificate_is_proper, result.certificates)) == row["proper"]

    def test_reproduction_finding_through_the_new_engine(self):
        """The PTIME query q_ACconf still admits (degenerate) literal
        certificates under the vectorized engine — the Reproduction
        finding survives the rewrite, and the classifier flags every
        such certificate as non-proper."""
        from repro.ijp.sweep import certificate_is_proper, sweep_range

        result = sweep_range(ALL_QUERIES["q_ACconf"], 2)
        assert result.certificates
        assert all(not certificate_is_proper(c) for c in result.certificates)


class TestTable1Annotations:
    """Table 1's query classes are well-defined on our zoo."""

    def test_ssj_binary_fragment(self):
        two_atom = ["q_chain", "q_perm", "q_Aperm", "q_ABperm", "q_ACconf"]
        for name in two_atom:
            q = ALL_QUERIES[name]
            assert q.is_binary() and q.is_single_self_join()
            rel = q.self_join_relation()
            assert len(q.occurrences(rel)) == 2

    def test_three_atom_fragment(self):
        for name in ("q_3chain", "q_AC3conf", "q_A3perm_R", "q_z5"):
            q = ALL_QUERIES[name]
            rel = q.self_join_relation()
            assert len(q.occurrences(rel)) == 3
