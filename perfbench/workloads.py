"""Seeded statement generators for the four serving workloads.

Every statement is generated here, from the benchmark's own copy of the
catalogs' join keys and filter columns, so the output checks can count
tables from the SQL the benchmark wrote rather than from anything the
server says.  A workload function takes the seed and returns one pass: for
each client connection, the list of its operations ``(op, stmt, salted)``,
where ``op`` is ``"compile"`` or ``"estimate"``.  Every pass of a run sends
the same operations in the same order; a salted statement gets new aliases
in every pass, which changes its plan-cache key and nothing the optimizer
sees.
"""

import random

# ---------------------------------------------------------------------------
# Catalogs: filter columns as (name, distinct, lo), and foreign keys.
# Filter columns are the non-skewed ones, so an equality literal's
# selectivity is the same for every value in the domain [lo, lo+distinct).
# ---------------------------------------------------------------------------

WAREHOUSE_COLS = {
    "date_dim": [("d_year", 200, 1900), ("d_moy", 12, 1), ("d_dom", 31, 1),
                 ("d_qoy", 4, 1)],
    "time_dim": [("t_hour", 24, 0), ("t_minute", 60, 0)],
    "store": [("s_city", 300, 0), ("s_state", 50, 0), ("s_market_id", 10, 0)],
    "item": [("i_brand_id", 1000, 0), ("i_class_id", 100, 0),
             ("i_category_id", 20, 0), ("i_manufact_id", 2000, 0)],
    "customer": [("c_birth_year", 100, 1900)],
    "customer_address": [("ca_city", 8000, 0), ("ca_state", 55, 0),
                         ("ca_zip", 10000, 0)],
    "customer_demographics": [("cd_gender", 2, 0), ("cd_education", 7, 0),
                              ("cd_marital_status", 5, 0)],
    "household_demographics": [("hd_buy_potential", 6, 0),
                               ("hd_dep_count", 10, 0)],
    "income_band": [("ib_lower_bound", 20, 0)],
    "promotion": [("p_channel_email", 2, 0), ("p_category", 20, 0)],
    "warehouse": [("w_state", 22, 0)],
    "ship_mode": [("sm_type", 6, 0)],
    "reason": [("r_reason_desc", 72, 0)],
    "store_sales": [("ss_quantity", 100, 0)],
    "store_returns": [("sr_return_amt", 5000, 0)],
    "catalog_sales": [("cs_quantity", 100, 0), ("cs_sales_price", 20000, 0)],
    "web_sales": [("ws_sales_price", 20000, 0)],
    "inventory": [("inv_quantity_on_hand", 1000, 0)],
}

WAREHOUSE_FKS = [
    ("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk"),
    ("store_sales", "ss_sold_time_sk", "time_dim", "t_time_sk"),
    ("store_sales", "ss_item_sk", "item", "i_item_sk"),
    ("store_sales", "ss_customer_sk", "customer", "c_customer_sk"),
    ("store_sales", "ss_cdemo_sk", "customer_demographics", "cd_demo_sk"),
    ("store_sales", "ss_hdemo_sk", "household_demographics", "hd_demo_sk"),
    ("store_sales", "ss_addr_sk", "customer_address", "ca_address_sk"),
    ("store_sales", "ss_store_sk", "store", "s_store_sk"),
    ("store_sales", "ss_promo_sk", "promotion", "p_promo_sk"),
    ("store_returns", "sr_returned_date_sk", "date_dim", "d_date_sk"),
    ("store_returns", "sr_item_sk", "item", "i_item_sk"),
    ("store_returns", "sr_customer_sk", "customer", "c_customer_sk"),
    ("store_returns", "sr_reason_sk", "reason", "r_reason_sk"),
    ("catalog_sales", "cs_sold_date_sk", "date_dim", "d_date_sk"),
    ("catalog_sales", "cs_item_sk", "item", "i_item_sk"),
    ("catalog_sales", "cs_bill_customer_sk", "customer", "c_customer_sk"),
    ("catalog_sales", "cs_warehouse_sk", "warehouse", "w_warehouse_sk"),
    ("catalog_sales", "cs_ship_mode_sk", "ship_mode", "sm_ship_mode_sk"),
    ("catalog_sales", "cs_promo_sk", "promotion", "p_promo_sk"),
    ("web_sales", "ws_sold_date_sk", "date_dim", "d_date_sk"),
    ("web_sales", "ws_item_sk", "item", "i_item_sk"),
    ("web_sales", "ws_bill_customer_sk", "customer", "c_customer_sk"),
    ("web_sales", "ws_promo_sk", "promotion", "p_promo_sk"),
    ("web_sales", "ws_ship_mode_sk", "ship_mode", "sm_ship_mode_sk"),
    ("inventory", "inv_date_sk", "date_dim", "d_date_sk"),
    ("inventory", "inv_item_sk", "item", "i_item_sk"),
    ("inventory", "inv_warehouse_sk", "warehouse", "w_warehouse_sk"),
    ("customer", "c_current_addr_sk", "customer_address", "ca_address_sk"),
    ("customer", "c_current_cdemo_sk", "customer_demographics", "cd_demo_sk"),
    ("customer", "c_current_hdemo_sk", "household_demographics", "hd_demo_sk"),
    ("household_demographics", "hd_income_band_sk", "income_band",
     "ib_income_band_sk"),
]

TPCH_COLS = {
    "region": [("r_name", 5, 0)],
    "nation": [("n_name", 25, 0)],
    "supplier": [("s_acctbal", 9000, 0)],
    "customer": [("c_mktsegment", 5, 0), ("c_acctbal", 140000, 0)],
    "part": [("p_brand", 25, 0), ("p_type", 150, 0), ("p_size", 50, 1),
             ("p_container", 40, 0), ("p_mfgr", 5, 0)],
    "partsupp": [("ps_availqty", 9999, 0)],
    "orders": [("o_orderdate", 2557, 0), ("o_orderstatus", 3, 0),
               ("o_orderpriority", 5, 0)],
    "lineitem": [("l_shipdate", 2557, 0), ("l_receiptdate", 2557, 0),
                 ("l_quantity", 50, 1), ("l_returnflag", 3, 0),
                 ("l_shipmode", 7, 0)],
}

TPCH_FKS = [
    ("nation", "n_regionkey", "region", "r_regionkey"),
    ("supplier", "s_nationkey", "nation", "n_nationkey"),
    ("customer", "c_nationkey", "nation", "n_nationkey"),
    ("partsupp", "ps_partkey", "part", "p_partkey"),
    ("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
    ("orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
]

SCHEMAS = {
    "warehouse": (WAREHOUSE_COLS, WAREHOUSE_FKS),
    "tpch": (TPCH_COLS, TPCH_FKS),
}

GIANT_TABLES = 62
GIANT_JOIN_COLS = ["j1", "j2", "j3", "j4", "j5"]

# The memo cap the giant workload is served under.  Chains up to 30 tables
# (465 entries) and cycles up to 22 (463) fit; every star, snowflake and
# clique of 20+ tables crosses it inside the COTE pass.
GIANT_MAX_MEMO_ENTRIES = 500
GIANT_MAX_KEPT_PLANS = 20000


class Stmt:
    """One generated statement.

    ``tables`` lists the top block's FROM items in order, so quantifier
    ``Q<i>`` of a returned plan is ``tables[i]``.  ``render(salt)`` is the
    SQL text; salt 0 keeps the plain aliases.
    """

    __slots__ = ("key", "schema", "tables", "joins", "filters", "items",
                 "group_by", "order_by", "shape")

    def __init__(self, key, schema, tables, joins, filters, items=None,
                 group_by=(), order_by=(), shape="adhoc"):
        self.key = key
        self.schema = schema
        self.tables = tables
        self.joins = joins  # (i, col_i, j, col_j)
        self.filters = filters  # (i, col, op, literal)
        self.items = items  # (i, col) or None for COUNT(*)
        self.group_by = group_by
        self.order_by = order_by
        self.shape = shape

    def render(self, salt=0):
        suffix = "p%d" % salt if salt else ""

        def a(i):
            return "t%d%s" % (i, suffix)

        def c(ref):
            return "%s.%s" % (a(ref[0]), ref[1])

        if self.items:
            sel = ", ".join(c(r) for r in self.items)
        else:
            sel = "COUNT(*)"
        if self.group_by:
            sel = ", ".join(c(r) for r in self.group_by) + ", COUNT(*)"
        conds = ["%s.%s = %s.%s" % (a(i), ci, a(j), cj)
                 for (i, ci, j, cj) in self.joins]
        conds += ["%s.%s %s %s" % (a(i), col, op, _lit(v))
                  for (i, col, op, v) in self.filters]
        sql = "SELECT %s FROM %s" % (
            sel, ", ".join("%s %s" % (t, a(i))
                           for i, t in enumerate(self.tables)))
        if conds:
            sql += " WHERE " + " AND ".join(conds)
        if self.group_by:
            sql += " GROUP BY " + ", ".join(c(r) for r in self.group_by)
        if self.order_by:
            sql += " ORDER BY " + ", ".join(c(r) for r in self.order_by)
        return sql


def _lit(v):
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _edges_of(fks):
    """Adjacency: table -> [(my_col, other_table, other_col)]."""
    adj = {}
    for (ft, fc, tt, tc) in fks:
        adj.setdefault(ft, []).append((fc, tt, tc))
        adj.setdefault(tt, []).append((tc, ft, fc))
    return adj


def random_tree(rng, schema, n, max_degree=3):
    """A random n-node join tree over the schema's foreign keys.

    Tables may repeat (as distinct quantifiers), as in self-joins of a
    dimension.  Node 0 is the root; every edge points from an earlier to a
    later quantifier.
    """
    cols, fks = SCHEMAS[schema]
    adj = _edges_of(fks)
    tables = [rng.choice(sorted(adj))]
    joins = []
    degree = [0]
    used = set()
    while len(tables) < n:
        open_nodes = [i for i in range(len(tables)) if degree[i] < max_degree]
        # Prefer a join column no other edge uses: a key joined by three
        # quantifiers puts them in one equivalence class.
        free = [(i, e) for i in open_nodes for e in adj[tables[i]]
                if (i, e[0]) not in used]
        i, (my_col, other, other_col) = rng.choice(
            free or [(i, e) for i in open_nodes for e in adj[tables[i]]])
        j = len(tables)
        tables.append(other)
        degree.append(1)
        degree[i] += 1
        used.add((i, my_col))
        used.add((j, other_col))
        joins.append((i, my_col, j, other_col))
    return tables, joins


def fixed_filters(rng, schema, tables, count):
    """Filter slots ``(i, col, op, range literal, distinct, lo)``."""
    cols = SCHEMAS[schema][0]
    out = []
    for i in rng.sample(range(len(tables)), min(count, len(tables))):
        name, distinct, lo = rng.choice(cols[tables[i]])
        if rng.random() < 0.6 or distinct < 10:
            out.append((i, name, "=", None, distinct, lo))
        else:
            op = rng.choice(["<", ">=", "<=", ">"])
            out.append((i, name, op, lo + int(rng.uniform(0.1, 0.9) * distinct),
                        distinct, lo))
    return out


def _group_col(rng, schema, tables):
    cols = SCHEMAS[schema][0]
    i = rng.randrange(len(tables))
    return (i, rng.choice(cols[tables[i]])[0])


# ---------------------------------------------------------------------------
# adhoc-cold
# ---------------------------------------------------------------------------

def _structures():
    out = []
    for schema, tables, joins in ADHOC_STRUCTURES:
        js = []
        for j in joins.split():
            left, right = j.split("=")
            li, lc = left.split(".")
            ri, rc = right.split(".")
            js.append((int(li), lc, int(ri), rc))
        out.append((schema, tables.split(), js))
    return out


def adhoc_statements(rng, prefix, max_tables=14):
    """Distinct ad-hoc statements over the warehouse and TPC-H schemas.

    Join structures (ADHOC_STRUCTURES), filter columns, operators, range
    literals and GROUP BY columns are fixed per slot; the seed draws the
    equality literals.  Every filter column has a uniform histogram, so an
    equality's selectivity is the same for every literal and the optimizer
    does the same work for every seed: with seeded filters the card-1
    Cartesian rule admits different joins per seed and a pass's compile
    time moved by 40% between seeds.  No two statements of a call share a
    template.
    """
    out = []
    for k, (schema, tables, joins) in enumerate(_structures()):
        if len(tables) > max_tables:
            continue
        fixed = random.Random("adhoc-structure/%d" % k)
        filters = [(i, c, op, rng.randrange(d) + lo if op == "=" else v)
                   for (i, c, op, v, d, lo) in
                   fixed_filters(fixed, schema, tables,
                                 max(1, len(tables) // 2))]
        group_by = (_group_col(fixed, schema, tables),) if k % 3 == 0 else ()
        order_by = group_by if k % 6 == 0 else ()
        out.append(Stmt("%s%d" % (prefix, k), schema, tables, joins, filters,
                        group_by=group_by, order_by=order_by))
    shapes = {Stmt("", s.schema, s.tables, s.joins,
                   [(i, c, op, 0) for (i, c, op, _) in s.filters],
                   group_by=s.group_by, order_by=s.order_by).render()
              for s in out}
    assert len(shapes) == len(out), "two ad-hoc slots share a template"
    return out


def adhoc_cold(seed):
    rng = random.Random("adhoc-cold/%d" % seed)
    stmts = adhoc_statements(rng, "a")
    # Every statement is also estimated: with a third of them the median
    # estimate fell between two structures of quite different cost and
    # jumped between them from run to run.
    return [interleave(rng, [(s, True) for s in stmts], lambda s: True)]


# ---------------------------------------------------------------------------
# hot-templates
# ---------------------------------------------------------------------------

HOT_TEMPLATES = 48
HOT_RANGE_TEMPLATES = 16
HOT_REQUESTS = 2400
TAIL_TEMPLATES = 800
OUT_OF_ENVELOPE = 0.1


class Template:
    """A statement with literal slots: equality slots take any literal
    (their selectivity does not depend on it) and at most one range slot
    switches between two literals whose selectivities are 4x apart, so the
    second always falls outside a stored entry's envelope."""

    def __init__(self, key, schema, tables, joins, eq_slots, range_slot,
                 items, group_by):
        self.key = key
        self.schema = schema
        self.tables = tables
        self.joins = joins
        self.eq_slots = eq_slots  # (i, col, distinct, lo)
        self.range_slot = range_slot  # (i, col, lit_in, lit_out) or None
        self.items = items
        self.group_by = group_by

    def instance(self, eq_values, out):
        filters = [(i, col, "=", lo + v % d)
                   for (i, col, d, lo), v in zip(self.eq_slots, eq_values)]
        if self.range_slot:
            i, col, lit_in, lit_out = self.range_slot
            filters.append((i, col, "<", lit_out if out else lit_in))
        key = "%s/%s/%s" % (self.key, ",".join(map(str, eq_values)),
                            "B" if out else "A")
        return Stmt(key, self.schema, self.tables, self.joins, filters,
                    items=self.items, group_by=self.group_by,
                    shape="template")


def make_template(rng, key, n, with_range):
    schema = "warehouse"
    cols = WAREHOUSE_COLS
    tables, joins = random_tree(rng, schema, n, max_degree=2)
    eq_slots = []
    for i in rng.sample(range(n), max(1, n - 1)):
        name, distinct, lo = rng.choice(cols[tables[i]])
        eq_slots.append((i, name, distinct, lo))
    range_slot = None
    if with_range:
        cands = [(i, c, d, lo) for i, t in enumerate(tables)
                 for (c, d, lo) in cols[t] if d >= 50]
        if cands:
            i, c, d, lo = rng.choice(cands)
            # Selectivities 0.1 and 0.4: outside each other's envelope
            # under the default slack of 0.5.
            range_slot = (i, c, lo + int(0.1 * d), lo + int(0.4 * d))
    items = [(0, cols[tables[0]][0][0])]
    group_by = (_group_col(rng, schema, tables),) if rng.random() < 0.3 else ()
    return Template(key, schema, tables, joins, eq_slots, range_slot, items,
                    group_by)


def hot_templates_set(count, ranged, prefix):
    """The templates do not depend on the seed: their structures and filter
    columns fix the optimizer work of a miss, which should be the same for
    every seed."""
    rng = random.Random("templates/" + prefix)
    out = []
    seen = set()
    while len(out) < count:
        n = 2 + len(out) % 4
        t = make_template(rng, "%s%d" % (prefix, len(out)), n,
                          len(out) < ranged)
        probe = t.instance([0] * len(t.eq_slots), False).render()
        if probe in seen:
            continue
        seen.add(probe)
        out.append(t)
    return out


def template_requests(rng, templates, count):
    """``count`` seeded instances spread over the templates.  A fixed share
    of a ranged template's requests take the out-of-envelope literal, but
    never its first or last request in the pass, so every pass starts from
    the same cache state."""
    picks = [templates[i % len(templates)] for i in range(count)]
    rng.shuffle(picks)
    last = {t.key: i for i, t in enumerate(picks)}
    first = {}
    for i, t in enumerate(picks):
        first.setdefault(t.key, i)
    eligible = [i for i, t in enumerate(picks) if t.range_slot is not None
                and first[t.key] != i and last[t.key] != i]
    outside = set(rng.sample(eligible, round(OUT_OF_ENVELOPE * len(eligible))))
    return [t.instance([rng.randrange(1 << 30) for _ in t.eq_slots],
                       i in outside)
            for i, t in enumerate(picks)]


def tail_statements(rng, count, prefix):
    """Distinct one- and two-table templates, each sent once per pass: with
    the hot set they overflow the plan cache, so each is evicted before
    its next pass.  Their shapes and range literals are fixed; the seed
    draws the equality literals."""
    cols = WAREHOUSE_COLS
    adj = _edges_of(WAREHOUSE_FKS)
    fixed = random.Random("tail/" + prefix)
    out = []
    seen = set()
    while len(out) < count:
        t0 = fixed.choice(sorted(cols))
        if fixed.random() < 0.5:
            tables, joins = [t0], []
        else:
            mc, other, oc = fixed.choice(adj[t0])
            tables, joins = [t0, other], [(0, mc, 1, oc)]
        i = fixed.randrange(len(tables))
        name, d, lo = fixed.choice(cols[tables[i]])
        op = fixed.choice(["=", "<", ">=", "<=", ">"])
        literal = lo + fixed.randrange(d)
        j = fixed.randrange(len(tables))
        items = [(j, fixed.choice(cols[tables[j]])[0])]
        order_by = items if fixed.random() < 0.5 else ()
        # The template key ignores literals, so distinctness is checked on
        # the literal-free shape.
        shape = Stmt("", "warehouse", tables, joins, [(i, name, op, 0)],
                     items=items, order_by=order_by).render()
        if shape in seen:
            continue
        seen.add(shape)
        if op == "=":
            literal = lo + rng.randrange(d)
        out.append(Stmt("%s%d" % (prefix, len(out)), "warehouse", tables,
                        joins, [(i, name, op, literal)], items=items,
                        order_by=order_by, shape="tail"))
    return out


def first_of_each_template(stmts):
    """Flags the first request of every template in a pass: those are the
    templated statements also sent as estimates, so the estimated set is
    the same for every seed."""
    seen = set()
    flags = []
    for s in stmts:
        template = s.key.split("/")[0]
        flags.append(template not in seen)
        seen.add(template)
    return flags


def interleave(rng, stream, salted):
    """Shuffle ``(stmt, estimated)`` pairs into one pass of operations; an
    estimated statement's estimate goes right before its compile."""
    rng.shuffle(stream)
    ops = []
    for s, estimated in stream:
        if estimated:
            ops.append(("estimate", s, salted(s)))
        ops.append(("compile", s, salted(s)))
    return ops


def hot_templates(seed):
    rng = random.Random("hot-templates/%d" % seed)
    templates = hot_templates_set(HOT_TEMPLATES, HOT_RANGE_TEMPLATES, "h")
    hot = template_requests(rng, templates, HOT_REQUESTS)
    tail = tail_statements(rng, TAIL_TEMPLATES, "x")
    stream = (list(zip(hot, first_of_each_template(hot)))
              + [(s, k % 10 == 0) for k, s in enumerate(tail)])
    return [interleave(rng, stream, lambda s: False)]


# ---------------------------------------------------------------------------
# giant-joins
# ---------------------------------------------------------------------------

def giant_edges(shape, n, branches=4):
    if shape == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "cycle":
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    if shape == "snowflake":
        return [(0 if m <= branches else m - branches, m) for m in range(1, n)]
    if shape == "clique":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    raise ValueError(shape)


def giant_statement(key, shape, n, rename=None):
    """One giant statement; its tables and join columns are fixed by its key.
    ``rename`` maps each table to one with the same statistics."""
    fixed = random.Random("giant/" + key)
    tables = fixed.sample(range(GIANT_TABLES), n)
    if rename:
        tables = [rename[t] for t in tables]
    joins = []
    for (i, j) in giant_edges(shape, n):
        col = fixed.choice(GIANT_JOIN_COLS)
        joins.append((i, col, j, col))
    return Stmt(key, "giant", ["g%d" % t for t in tables], joins,
                [(0, "v2", "=", 1 + fixed.randrange(9))], items=[(0, "v1")],
                order_by=[(0, "v1")], shape="%s%d" % (shape, n))


def same_stats_renaming(rng):
    """A seeded permutation of the giant tables that maps each table to one
    with identical statistics (table i has 4000 * (1 + i mod 8) rows and
    the same columns as every other table of its class)."""
    rename = {}
    for r in range(8):
        members = list(range(r, GIANT_TABLES, 8))
        shuffled = members[:]
        rng.shuffle(shuffled)
        rename.update(zip(members, shuffled))
    return rename


# Shapes and sizes are fixed.  The seed renames tables within their
# statistics class and orders the pass, so every seed asks for the same
# optimizer work and gets plans of the same cost: with seeded tables and
# join columns the geometric mean of plan costs moved 46x between seeds.
# Chains and cycles fit the memo cap and compile in DP; the rest blow it in
# the COTE pass and compile in the greedy regime.
GIANT_SEEDED = [("chain", 20), ("chain", 22), ("chain", 24), ("chain", 26),
                ("cycle", 20), ("cycle", 21),
                ("star", 20), ("star", 32), ("star", 62),
                ("snowflake", 24), ("snowflake", 40), ("snowflake", 56),
                ("clique", 20), ("clique", 36), ("clique", 62)]

# The known fault: `estimate` of a statement whose budgeted estimate
# crosses the cap replies `error`, though `compile` of it succeeds.  These
# statements do not depend on the seed, so the failed share of a run is
# the same for every seed.
GIANT_FIXED = [("star", 24), ("snowflake", 30), ("clique", 24)]


def giant_joins(seed):
    rng = random.Random("giant-joins/%d" % seed)
    rename = same_stats_renaming(rng)
    stmts = ([giant_statement("g%s%d" % (sh, n), sh, n, rename)
              for (sh, n) in GIANT_SEEDED]
             + [giant_statement("f%s%d" % (sh, n), sh, n)
                for (sh, n) in GIANT_FIXED])
    rng.shuffle(stmts)
    ops = []
    for s in stmts:
        if s.key.startswith("f") or s.shape.startswith(("chain", "cycle")):
            ops.append(("estimate", s, False))
        ops.append(("compile", s, False))
    return [ops]


def expected_estimate_failure(op, stmt):
    """True for the operations that the named estimate fault fails."""
    return op == "estimate" and stmt.key.startswith("f")


# ---------------------------------------------------------------------------
# fleet-mixed
# ---------------------------------------------------------------------------

FLEET_TEMPLATES = 32
FLEET_RANGE_TEMPLATES = 4
FLEET_HOT_REQUESTS = 300


# Fault 3: the estimator and the optimizer judge the card-1 Cartesian rule
# on different cardinalities, so `estimate` of this four-table template
# reports other join and entry counts than its `compile`.  Its equality
# literals vary with the seed but, over uniform histograms, not its
# cardinalities: the disagreement shows on every seed, once a pass, on the
# template's first request, which is the one also estimated.
JOIN_MISMATCH_TEMPLATE = "fh2"


def expected_join_mismatch(stmt):
    """True for the statements whose `estimate` the named fault 3 makes
    disagree with their `compile`."""
    return stmt.key.split("/")[0] == JOIN_MISMATCH_TEMPLATE


def fleet_mixed(seed):
    rng = random.Random("fleet-mixed/%d" % seed)
    templates = hot_templates_set(FLEET_TEMPLATES, FLEET_RANGE_TEMPLATES, "fh")
    cold = [s for s in adhoc_statements(rng, "fc", max_tables=8)
            if len(s.tables) >= 2]
    cold_keys = {s.key for s in cold}
    conns = []
    for c in range(2):
        hot = template_requests(rng, templates[c::2], FLEET_HOT_REQUESTS // 2)
        stream = (list(zip(hot, first_of_each_template(hot)))
                  + [(s, k % 3 == 0) for k, s in enumerate(cold[c::2])])
        conns.append(interleave(rng, stream, lambda s: s.key in cold_keys))
    return conns


# The ad-hoc join structures: (schema, FROM tables, join predicates as
# "i.col=j.col").  Six per table count up to 8 (warehouse and TPC-H
# alternating), four for 9-11 and three for 12-14 (warehouse trees of degree
# at most 2).  They were drawn by random_tree from the foreign-key graphs and
# kept when none of three random filter choices made one compile in more
# than 60 ms (up to 8 tables), 150 ms (9-11) or 250 ms (12-14) on the
# reference box, so that no single statement sets the pass time:
# unconstrained 14-table trees over these schemas compile in up to 17 s.
ADHOC_STRUCTURES = [
    ("warehouse", "customer_address",
     ""),
    ("tpch", "customer",
     ""),
    ("warehouse", "ship_mode",
     ""),
    ("tpch", "lineitem",
     ""),
    ("warehouse", "promotion",
     ""),
    ("tpch", "orders",
     ""),
    ("warehouse", "income_band household_demographics",
     "0.ib_income_band_sk=1.hd_income_band_sk"),
    ("tpch", "partsupp supplier",
     "0.ps_suppkey=1.s_suppkey"),
    ("warehouse", "item web_sales",
     "0.i_item_sk=1.ws_item_sk"),
    ("tpch", "part partsupp",
     "0.p_partkey=1.ps_partkey"),
    ("warehouse", "customer customer_demographics",
     "0.c_current_cdemo_sk=1.cd_demo_sk"),
    ("tpch", "supplier nation",
     "0.s_nationkey=1.n_nationkey"),
    ("warehouse", "reason store_returns item",
     "0.r_reason_sk=1.sr_reason_sk 1.sr_item_sk=2.i_item_sk"),
    ("tpch", "partsupp supplier part",
     "0.ps_suppkey=1.s_suppkey 0.ps_partkey=2.p_partkey"),
    ("warehouse", "store_returns reason item",
     "0.sr_reason_sk=1.r_reason_sk 0.sr_item_sk=2.i_item_sk"),
    ("tpch", "partsupp supplier part",
     "0.ps_suppkey=1.s_suppkey 0.ps_partkey=2.p_partkey"),
    ("warehouse", "store store_sales customer_address",
     "0.s_store_sk=1.ss_store_sk 1.ss_addr_sk=2.ca_address_sk"),
    ("tpch", "orders lineitem part",
     "0.o_orderkey=1.l_orderkey 1.l_partkey=2.p_partkey"),
    ("warehouse", "customer_address store_sales promotion time_dim",
     "0.ca_address_sk=1.ss_addr_sk 1.ss_promo_sk=2.p_promo_sk 1.ss_sold_time_sk=3.t_time_sk"),
    ("tpch", "part lineitem supplier orders",
     "0.p_partkey=1.l_partkey 1.l_suppkey=2.s_suppkey 1.l_orderkey=3.o_orderkey"),
    ("warehouse", "customer_address store_sales time_dim customer_demographics",
     "0.ca_address_sk=1.ss_addr_sk 1.ss_sold_time_sk=2.t_time_sk 1.ss_cdemo_sk=3.cd_demo_sk"),
    ("tpch", "partsupp part supplier nation",
     "0.ps_partkey=1.p_partkey 0.ps_suppkey=2.s_suppkey 2.s_nationkey=3.n_nationkey"),
    ("warehouse", "catalog_sales promotion warehouse customer",
     "0.cs_promo_sk=1.p_promo_sk 0.cs_warehouse_sk=2.w_warehouse_sk 0.cs_bill_customer_sk=3.c_customer_sk"),
    ("tpch", "lineitem part supplier nation",
     "0.l_partkey=1.p_partkey 0.l_suppkey=2.s_suppkey 2.s_nationkey=3.n_nationkey"),
    ("warehouse", "household_demographics customer customer_address store_returns date_dim",
     "0.hd_demo_sk=1.c_current_hdemo_sk 1.c_current_addr_sk=2.ca_address_sk 1.c_customer_sk=3.sr_customer_sk 3.sr_returned_date_sk=4.d_date_sk"),
    ("tpch", "partsupp part supplier nation region",
     "0.ps_partkey=1.p_partkey 0.ps_suppkey=2.s_suppkey 2.s_nationkey=3.n_nationkey 3.n_regionkey=4.r_regionkey"),
    ("warehouse", "date_dim store_sales customer household_demographics customer_demographics",
     "0.d_date_sk=1.ss_sold_date_sk 1.ss_customer_sk=2.c_customer_sk 1.ss_hdemo_sk=3.hd_demo_sk 2.c_current_cdemo_sk=4.cd_demo_sk"),
    ("tpch", "nation supplier lineitem part region",
     "0.n_nationkey=1.s_nationkey 1.s_suppkey=2.l_suppkey 2.l_partkey=3.p_partkey 0.n_regionkey=4.r_regionkey"),
    ("warehouse", "customer_address store_sales time_dim household_demographics income_band",
     "0.ca_address_sk=1.ss_addr_sk 1.ss_sold_time_sk=2.t_time_sk 1.ss_hdemo_sk=3.hd_demo_sk 3.hd_income_band_sk=4.ib_income_band_sk"),
    ("tpch", "customer orders lineitem part nation",
     "0.c_custkey=1.o_custkey 1.o_orderkey=2.l_orderkey 2.l_partkey=3.p_partkey 0.c_nationkey=4.n_nationkey"),
    ("warehouse", "store store_sales promotion customer_address customer web_sales",
     "0.s_store_sk=1.ss_store_sk 1.ss_promo_sk=2.p_promo_sk 1.ss_addr_sk=3.ca_address_sk 3.ca_address_sk=4.c_current_addr_sk 4.c_customer_sk=5.ws_bill_customer_sk"),
    ("tpch", "part lineitem orders supplier customer nation",
     "0.p_partkey=1.l_partkey 1.l_orderkey=2.o_orderkey 1.l_suppkey=3.s_suppkey 2.o_custkey=4.c_custkey 4.c_nationkey=5.n_nationkey"),
    ("warehouse", "ship_mode catalog_sales customer warehouse customer_demographics household_demographics",
     "0.sm_ship_mode_sk=1.cs_ship_mode_sk 1.cs_bill_customer_sk=2.c_customer_sk 1.cs_warehouse_sk=3.w_warehouse_sk 2.c_current_cdemo_sk=4.cd_demo_sk 2.c_current_hdemo_sk=5.hd_demo_sk"),
    ("tpch", "orders lineitem supplier nation region part",
     "0.o_orderkey=1.l_orderkey 1.l_suppkey=2.s_suppkey 2.s_nationkey=3.n_nationkey 3.n_regionkey=4.r_regionkey 1.l_partkey=5.p_partkey"),
    ("warehouse", "store store_sales promotion time_dim web_sales item",
     "0.s_store_sk=1.ss_store_sk 1.ss_promo_sk=2.p_promo_sk 1.ss_sold_time_sk=3.t_time_sk 2.p_promo_sk=4.ws_promo_sk 4.ws_item_sk=5.i_item_sk"),
    ("tpch", "lineitem part orders supplier customer nation",
     "0.l_partkey=1.p_partkey 0.l_orderkey=2.o_orderkey 0.l_suppkey=3.s_suppkey 2.o_custkey=4.c_custkey 3.s_nationkey=5.n_nationkey"),
    ("warehouse", "time_dim store_sales promotion customer_demographics store_sales customer customer_demographics",
     "0.t_time_sk=1.ss_sold_time_sk 1.ss_promo_sk=2.p_promo_sk 1.ss_cdemo_sk=3.cd_demo_sk 0.t_time_sk=4.ss_sold_time_sk 4.ss_customer_sk=5.c_customer_sk 4.ss_cdemo_sk=6.cd_demo_sk"),
    ("tpch", "lineitem part supplier orders nation customer region",
     "0.l_partkey=1.p_partkey 0.l_suppkey=2.s_suppkey 0.l_orderkey=3.o_orderkey 2.s_nationkey=4.n_nationkey 3.o_custkey=5.c_custkey 4.n_regionkey=6.r_regionkey"),
    ("warehouse", "time_dim store_sales date_dim customer household_demographics income_band customer_demographics",
     "0.t_time_sk=1.ss_sold_time_sk 1.ss_sold_date_sk=2.d_date_sk 1.ss_customer_sk=3.c_customer_sk 3.c_current_hdemo_sk=4.hd_demo_sk 4.hd_income_band_sk=5.ib_income_band_sk 3.c_current_cdemo_sk=6.cd_demo_sk"),
    ("tpch", "region nation supplier lineitem part orders customer",
     "0.r_regionkey=1.n_regionkey 1.n_nationkey=2.s_nationkey 2.s_suppkey=3.l_suppkey 3.l_partkey=4.p_partkey 3.l_orderkey=5.o_orderkey 5.o_custkey=6.c_custkey"),
    ("warehouse", "item store_sales promotion customer_demographics store_sales household_demographics promotion",
     "0.i_item_sk=1.ss_item_sk 1.ss_promo_sk=2.p_promo_sk 1.ss_cdemo_sk=3.cd_demo_sk 0.i_item_sk=4.ss_item_sk 4.ss_hdemo_sk=5.hd_demo_sk 4.ss_promo_sk=6.p_promo_sk"),
    ("tpch", "supplier partsupp nation region part supplier partsupp",
     "0.s_suppkey=1.ps_suppkey 0.s_nationkey=2.n_nationkey 2.n_regionkey=3.r_regionkey 1.ps_partkey=4.p_partkey 2.n_nationkey=5.s_nationkey 5.s_suppkey=6.ps_suppkey"),
    ("warehouse", "reason store_returns date_dim item store_returns item customer customer_demographics",
     "0.r_reason_sk=1.sr_reason_sk 1.sr_returned_date_sk=2.d_date_sk 1.sr_item_sk=3.i_item_sk 2.d_date_sk=4.sr_returned_date_sk 4.sr_item_sk=5.i_item_sk 4.sr_customer_sk=6.c_customer_sk 6.c_current_cdemo_sk=7.cd_demo_sk"),
    ("tpch", "nation supplier lineitem region part orders customer nation",
     "0.n_nationkey=1.s_nationkey 1.s_suppkey=2.l_suppkey 0.n_regionkey=3.r_regionkey 2.l_partkey=4.p_partkey 2.l_orderkey=5.o_orderkey 5.o_custkey=6.c_custkey 6.c_nationkey=7.n_nationkey"),
    ("warehouse", "ship_mode catalog_sales date_dim promotion store_sales household_demographics promotion income_band",
     "0.sm_ship_mode_sk=1.cs_ship_mode_sk 1.cs_sold_date_sk=2.d_date_sk 1.cs_promo_sk=3.p_promo_sk 2.d_date_sk=4.ss_sold_date_sk 4.ss_hdemo_sk=5.hd_demo_sk 4.ss_promo_sk=6.p_promo_sk 5.hd_income_band_sk=7.ib_income_band_sk"),
    ("tpch", "nation supplier region lineitem part orders customer nation",
     "0.n_nationkey=1.s_nationkey 0.n_regionkey=2.r_regionkey 1.s_suppkey=3.l_suppkey 3.l_partkey=4.p_partkey 3.l_orderkey=5.o_orderkey 5.o_custkey=6.c_custkey 6.c_nationkey=7.n_nationkey"),
    ("warehouse", "time_dim store_sales store household_demographics income_band customer catalog_sales promotion",
     "0.t_time_sk=1.ss_sold_time_sk 1.ss_store_sk=2.s_store_sk 1.ss_hdemo_sk=3.hd_demo_sk 3.hd_income_band_sk=4.ib_income_band_sk 3.hd_demo_sk=5.c_current_hdemo_sk 5.c_customer_sk=6.cs_bill_customer_sk 6.cs_promo_sk=7.p_promo_sk"),
    ("tpch", "nation region customer orders lineitem supplier part nation",
     "0.n_regionkey=1.r_regionkey 0.n_nationkey=2.c_nationkey 2.c_custkey=3.o_custkey 3.o_orderkey=4.l_orderkey 4.l_suppkey=5.s_suppkey 4.l_partkey=6.p_partkey 5.s_nationkey=7.n_nationkey"),
    ("warehouse", "customer_address customer customer_demographics store_sales promotion customer household_demographics income_band household_demographics",
     "0.ca_address_sk=1.c_current_addr_sk 1.c_current_cdemo_sk=2.cd_demo_sk 2.cd_demo_sk=3.ss_cdemo_sk 3.ss_promo_sk=4.p_promo_sk 0.ca_address_sk=5.c_current_addr_sk 5.c_current_hdemo_sk=6.hd_demo_sk 6.hd_income_band_sk=7.ib_income_band_sk 7.ib_income_band_sk=8.hd_income_band_sk"),
    ("warehouse", "item inventory warehouse catalog_sales item store_returns reason web_sales ship_mode",
     "0.i_item_sk=1.inv_item_sk 1.inv_warehouse_sk=2.w_warehouse_sk 2.w_warehouse_sk=3.cs_warehouse_sk 3.cs_item_sk=4.i_item_sk 0.i_item_sk=5.sr_item_sk 5.sr_reason_sk=6.r_reason_sk 4.i_item_sk=7.ws_item_sk 7.ws_ship_mode_sk=8.sm_ship_mode_sk"),
    ("warehouse", "ship_mode web_sales promotion store_sales item catalog_sales date_dim web_sales promotion",
     "0.sm_ship_mode_sk=1.ws_ship_mode_sk 1.ws_promo_sk=2.p_promo_sk 2.p_promo_sk=3.ss_promo_sk 3.ss_item_sk=4.i_item_sk 0.sm_ship_mode_sk=5.cs_ship_mode_sk 5.cs_sold_date_sk=6.d_date_sk 6.d_date_sk=7.ws_sold_date_sk 7.ws_promo_sk=8.p_promo_sk"),
    ("warehouse", "store_returns date_dim item catalog_sales customer customer_address store_returns date_dim inventory",
     "0.sr_returned_date_sk=1.d_date_sk 0.sr_item_sk=2.i_item_sk 1.d_date_sk=3.cs_sold_date_sk 3.cs_bill_customer_sk=4.c_customer_sk 4.c_current_addr_sk=5.ca_address_sk 2.i_item_sk=6.sr_item_sk 6.sr_returned_date_sk=7.d_date_sk 7.d_date_sk=8.inv_date_sk"),
    ("warehouse", "time_dim store_sales customer_address customer household_demographics income_band store_sales customer household_demographics income_band",
     "0.t_time_sk=1.ss_sold_time_sk 1.ss_addr_sk=2.ca_address_sk 2.ca_address_sk=3.c_current_addr_sk 3.c_current_hdemo_sk=4.hd_demo_sk 4.hd_income_band_sk=5.ib_income_band_sk 0.t_time_sk=6.ss_sold_time_sk 6.ss_customer_sk=7.c_customer_sk 7.c_current_hdemo_sk=8.hd_demo_sk 8.hd_income_band_sk=9.ib_income_band_sk"),
    ("warehouse", "store store_sales time_dim store_sales customer_address customer store_sales customer_address store_sales date_dim",
     "0.s_store_sk=1.ss_store_sk 1.ss_sold_time_sk=2.t_time_sk 2.t_time_sk=3.ss_sold_time_sk 3.ss_addr_sk=4.ca_address_sk 4.ca_address_sk=5.c_current_addr_sk 5.c_customer_sk=6.ss_customer_sk 6.ss_addr_sk=7.ca_address_sk 0.s_store_sk=8.ss_store_sk 8.ss_sold_date_sk=9.d_date_sk"),
    ("warehouse", "reason store_returns date_dim catalog_sales promotion store_sales customer_address customer store_sales date_dim",
     "0.r_reason_sk=1.sr_reason_sk 1.sr_returned_date_sk=2.d_date_sk 2.d_date_sk=3.cs_sold_date_sk 3.cs_promo_sk=4.p_promo_sk 4.p_promo_sk=5.ss_promo_sk 5.ss_addr_sk=6.ca_address_sk 6.ca_address_sk=7.c_current_addr_sk 7.c_customer_sk=8.ss_customer_sk 8.ss_sold_date_sk=9.d_date_sk"),
    ("warehouse", "date_dim inventory warehouse catalog_sales ship_mode inventory date_dim web_sales promotion web_sales",
     "0.d_date_sk=1.inv_date_sk 1.inv_warehouse_sk=2.w_warehouse_sk 0.d_date_sk=3.cs_sold_date_sk 3.cs_ship_mode_sk=4.sm_ship_mode_sk 2.w_warehouse_sk=5.inv_warehouse_sk 5.inv_date_sk=6.d_date_sk 6.d_date_sk=7.ws_sold_date_sk 7.ws_promo_sk=8.p_promo_sk 4.sm_ship_mode_sk=9.ws_ship_mode_sk"),
    ("warehouse", "inventory item warehouse web_sales date_dim catalog_sales customer household_demographics income_band store_sales store",
     "0.inv_item_sk=1.i_item_sk 0.inv_warehouse_sk=2.w_warehouse_sk 1.i_item_sk=3.ws_item_sk 3.ws_sold_date_sk=4.d_date_sk 2.w_warehouse_sk=5.cs_warehouse_sk 5.cs_bill_customer_sk=6.c_customer_sk 6.c_current_hdemo_sk=7.hd_demo_sk 7.hd_income_band_sk=8.ib_income_band_sk 4.d_date_sk=9.ss_sold_date_sk 9.ss_store_sk=10.s_store_sk"),
    ("warehouse", "customer_address customer customer_demographics customer store_returns item customer household_demographics income_band household_demographics store_sales",
     "0.ca_address_sk=1.c_current_addr_sk 1.c_current_cdemo_sk=2.cd_demo_sk 0.ca_address_sk=3.c_current_addr_sk 3.c_customer_sk=4.sr_customer_sk 4.sr_item_sk=5.i_item_sk 2.cd_demo_sk=6.c_current_cdemo_sk 6.c_current_hdemo_sk=7.hd_demo_sk 7.hd_income_band_sk=8.ib_income_band_sk 8.ib_income_band_sk=9.hd_income_band_sk 9.hd_demo_sk=10.ss_hdemo_sk"),
    ("warehouse", "item web_sales date_dim store_sales customer customer_address web_sales ship_mode catalog_sales customer customer_demographics",
     "0.i_item_sk=1.ws_item_sk 1.ws_sold_date_sk=2.d_date_sk 0.i_item_sk=3.ss_item_sk 3.ss_customer_sk=4.c_customer_sk 4.c_current_addr_sk=5.ca_address_sk 2.d_date_sk=6.ws_sold_date_sk 6.ws_ship_mode_sk=7.sm_ship_mode_sk 7.sm_ship_mode_sk=8.cs_ship_mode_sk 8.cs_bill_customer_sk=9.c_customer_sk 9.c_current_cdemo_sk=10.cd_demo_sk"),
    ("warehouse", "reason store_returns item web_sales customer customer_address store_sales date_dim web_sales item web_sales",
     "0.r_reason_sk=1.sr_reason_sk 1.sr_item_sk=2.i_item_sk 2.i_item_sk=3.ws_item_sk 3.ws_bill_customer_sk=4.c_customer_sk 4.c_current_addr_sk=5.ca_address_sk 5.ca_address_sk=6.ss_addr_sk 6.ss_sold_date_sk=7.d_date_sk 7.d_date_sk=8.ws_sold_date_sk 8.ws_item_sk=9.i_item_sk 9.i_item_sk=10.ws_item_sk"),
    ("warehouse", "ship_mode web_sales item store_returns date_dim web_sales customer household_demographics income_band web_sales promotion web_sales",
     "0.sm_ship_mode_sk=1.ws_ship_mode_sk 1.ws_item_sk=2.i_item_sk 2.i_item_sk=3.sr_item_sk 3.sr_returned_date_sk=4.d_date_sk 4.d_date_sk=5.ws_sold_date_sk 5.ws_bill_customer_sk=6.c_customer_sk 6.c_current_hdemo_sk=7.hd_demo_sk 7.hd_income_band_sk=8.ib_income_band_sk 0.sm_ship_mode_sk=9.ws_ship_mode_sk 9.ws_promo_sk=10.p_promo_sk 10.p_promo_sk=11.ws_promo_sk"),
    ("warehouse", "catalog_sales promotion date_dim store_returns item inventory warehouse web_sales date_dim catalog_sales customer customer_address",
     "0.cs_promo_sk=1.p_promo_sk 0.cs_sold_date_sk=2.d_date_sk 2.d_date_sk=3.sr_returned_date_sk 3.sr_item_sk=4.i_item_sk 4.i_item_sk=5.inv_item_sk 5.inv_warehouse_sk=6.w_warehouse_sk 1.p_promo_sk=7.ws_promo_sk 7.ws_sold_date_sk=8.d_date_sk 8.d_date_sk=9.cs_sold_date_sk 9.cs_bill_customer_sk=10.c_customer_sk 10.c_current_addr_sk=11.ca_address_sk"),
    ("warehouse", "item store_sales customer_demographics store_sales customer_address store_sales customer_demographics customer store_returns date_dim catalog_sales promotion",
     "0.i_item_sk=1.ss_item_sk 1.ss_cdemo_sk=2.cd_demo_sk 0.i_item_sk=3.ss_item_sk 3.ss_addr_sk=4.ca_address_sk 4.ca_address_sk=5.ss_addr_sk 5.ss_cdemo_sk=6.cd_demo_sk 2.cd_demo_sk=7.c_current_cdemo_sk 7.c_customer_sk=8.sr_customer_sk 8.sr_returned_date_sk=9.d_date_sk 9.d_date_sk=10.cs_sold_date_sk 10.cs_promo_sk=11.p_promo_sk"),
    ("warehouse", "customer store_sales household_demographics income_band store household_demographics customer catalog_sales item store_sales customer_demographics customer store_sales",
     "0.c_customer_sk=1.ss_customer_sk 0.c_current_hdemo_sk=2.hd_demo_sk 2.hd_income_band_sk=3.ib_income_band_sk 1.ss_store_sk=4.s_store_sk 3.ib_income_band_sk=5.hd_income_band_sk 5.hd_demo_sk=6.c_current_hdemo_sk 6.c_customer_sk=7.cs_bill_customer_sk 7.cs_item_sk=8.i_item_sk 4.s_store_sk=9.ss_store_sk 9.ss_cdemo_sk=10.cd_demo_sk 10.cd_demo_sk=11.c_current_cdemo_sk 11.c_customer_sk=12.ss_customer_sk"),
    ("warehouse", "customer customer_demographics household_demographics income_band store_sales store household_demographics customer catalog_sales promotion store_sales promotion web_sales",
     "0.c_current_cdemo_sk=1.cd_demo_sk 0.c_current_hdemo_sk=2.hd_demo_sk 2.hd_income_band_sk=3.ib_income_band_sk 1.cd_demo_sk=4.ss_cdemo_sk 4.ss_store_sk=5.s_store_sk 3.ib_income_band_sk=6.hd_income_band_sk 6.hd_demo_sk=7.c_current_hdemo_sk 7.c_customer_sk=8.cs_bill_customer_sk 8.cs_promo_sk=9.p_promo_sk 5.s_store_sk=10.ss_store_sk 10.ss_promo_sk=11.p_promo_sk 11.p_promo_sk=12.ws_promo_sk"),
    ("warehouse", "store_returns customer household_demographics item income_band web_sales ship_mode web_sales promotion store_sales customer_address store_sales date_dim",
     "0.sr_customer_sk=1.c_customer_sk 1.c_current_hdemo_sk=2.hd_demo_sk 0.sr_item_sk=3.i_item_sk 2.hd_income_band_sk=4.ib_income_band_sk 3.i_item_sk=5.ws_item_sk 5.ws_ship_mode_sk=6.sm_ship_mode_sk 6.sm_ship_mode_sk=7.ws_ship_mode_sk 7.ws_promo_sk=8.p_promo_sk 8.p_promo_sk=9.ss_promo_sk 9.ss_addr_sk=10.ca_address_sk 10.ca_address_sk=11.ss_addr_sk 11.ss_sold_date_sk=12.d_date_sk"),
    ("warehouse", "item catalog_sales ship_mode web_sales date_dim web_sales customer household_demographics income_band household_demographics customer customer_demographics catalog_sales item",
     "0.i_item_sk=1.cs_item_sk 1.cs_ship_mode_sk=2.sm_ship_mode_sk 0.i_item_sk=3.ws_item_sk 3.ws_sold_date_sk=4.d_date_sk 4.d_date_sk=5.ws_sold_date_sk 5.ws_bill_customer_sk=6.c_customer_sk 6.c_current_hdemo_sk=7.hd_demo_sk 7.hd_income_band_sk=8.ib_income_band_sk 8.ib_income_band_sk=9.hd_income_band_sk 9.hd_demo_sk=10.c_current_hdemo_sk 10.c_current_cdemo_sk=11.cd_demo_sk 2.sm_ship_mode_sk=12.cs_ship_mode_sk 12.cs_item_sk=13.i_item_sk"),
    ("warehouse", "income_band household_demographics customer catalog_sales ship_mode household_demographics customer customer_demographics web_sales promotion store_sales customer_address catalog_sales customer",
     "0.ib_income_band_sk=1.hd_income_band_sk 1.hd_demo_sk=2.c_current_hdemo_sk 2.c_customer_sk=3.cs_bill_customer_sk 3.cs_ship_mode_sk=4.sm_ship_mode_sk 0.ib_income_band_sk=5.hd_income_band_sk 5.hd_demo_sk=6.c_current_hdemo_sk 6.c_current_cdemo_sk=7.cd_demo_sk 4.sm_ship_mode_sk=8.ws_ship_mode_sk 8.ws_promo_sk=9.p_promo_sk 7.cd_demo_sk=10.ss_cdemo_sk 10.ss_addr_sk=11.ca_address_sk 9.p_promo_sk=12.cs_promo_sk 12.cs_bill_customer_sk=13.c_customer_sk"),
    ("warehouse", "reason store_returns date_dim store_sales customer_address store_returns customer household_demographics income_band household_demographics customer customer_address customer catalog_sales",
     "0.r_reason_sk=1.sr_reason_sk 1.sr_returned_date_sk=2.d_date_sk 2.d_date_sk=3.ss_sold_date_sk 3.ss_addr_sk=4.ca_address_sk 0.r_reason_sk=5.sr_reason_sk 5.sr_customer_sk=6.c_customer_sk 6.c_current_hdemo_sk=7.hd_demo_sk 7.hd_income_band_sk=8.ib_income_band_sk 8.ib_income_band_sk=9.hd_income_band_sk 9.hd_demo_sk=10.c_current_hdemo_sk 10.c_current_addr_sk=11.ca_address_sk 11.ca_address_sk=12.c_current_addr_sk 12.c_customer_sk=13.cs_bill_customer_sk"),
]
