"""Seeded synthetic Spider-format corpus plus the scripted model that answers it.

`build_corpus` writes ``tables.json``, ``questions.json`` and one SQLite file per
database, and returns the per-question script the model answers from together
with what the pipeline must predict.  The seed draws the data: every value in
every table, and so every query result and expected answer.  The shape of the
work does not depend on it, so runs on different seeds cost the same: the
question mix and order, the order of each question's 20 samples and which
questions get a winning wrong answer or an overflowing sample are fixed per
workload.  (Drawing those from the seed moved the large-database workload's
throughput by about 8% from seed to seed, because how many result tables the
vote compares depends on the order in which the result groups first appear.)

Every question's 20 generation samples are a fixed mix of
  * three correct SQL texts that return the gold result (A is the gold query),
  * two wrong texts with results unlike the gold and unlike each other,
  * an SqlError text, an unparseable sample and, for some questions, a
    cross join whose result overflows the executor's row limit,
formatted three ways (continuation, trailing semicolon, fenced) so six of the
twenty post-processed texts are distinct, the bundled demo's ratio of 72/240.
On most questions the correct group is the plurality; on a fixed share the
first wrong text is.  The expected winner is the lowest-index sample of the
plurality group, which is the tie-break the voting layer documents.

The corpus is checked against SQLite itself when it is built, without the
package's executor: correct texts must return the gold result, wrong texts
must not, the gold result must fit under the row limit and the overflow text
must exceed it.  A seed for which that fails raises instead of producing a
corpus with a wrong expectation.

This module does not import the package, so the benchmark's client can load
the scripted session before it starts timing the package's own import.
"""

from __future__ import annotations

import json
import random
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path

TABLE_RECALL_PREFIX = "Given the database schema and question"
COLUMN_RECALL_PREFIX = "Given the database tables and question"

# Must match the executor's MAX_RESULT_ROWS: the corpus is validated without
# importing the package (see the module docstring).
RESULT_ROW_LIMIT = 10_000

COLUMNS = {
    "region": ("id", "name"),
    "customer": ("id", "name", "city", "age", "region_id"),
    "supplier": ("id", "name", "region_id"),
    "product": ("id", "title", "category", "price", "supplier_id"),
    "orders": ("id", "customer_id", "product_id", "qty", "amount", "year"),
}
COLUMN_TYPES = {
    "id": "number", "name": "text", "city": "text", "age": "number",
    "region_id": "number", "title": "text", "category": "text", "price": "number",
    "supplier_id": "number", "customer_id": "number", "product_id": "number",
    "qty": "number", "amount": "number", "year": "number",
}
FOREIGN_KEYS = (
    ("customer", "region_id", "region", "id"),
    ("supplier", "region_id", "region", "id"),
    ("product", "supplier_id", "supplier", "id"),
    ("orders", "customer_id", "customer", "id"),
    ("orders", "product_id", "product", "id"),
)
DDL = """
CREATE TABLE region (id INTEGER PRIMARY KEY, name TEXT);
CREATE TABLE customer (id INTEGER PRIMARY KEY, name TEXT, city TEXT, age INTEGER,
    region_id INTEGER REFERENCES region(id));
CREATE TABLE supplier (id INTEGER PRIMARY KEY, name TEXT, region_id INTEGER REFERENCES region(id));
CREATE TABLE product (id INTEGER PRIMARY KEY, title TEXT, category TEXT, price REAL,
    supplier_id INTEGER REFERENCES supplier(id));
CREATE TABLE orders (id INTEGER PRIMARY KEY, customer_id INTEGER REFERENCES customer(id),
    product_id INTEGER REFERENCES product(id), qty INTEGER, amount REAL, year INTEGER);
"""

CITIES = (
    "Avalon", "Brookfield", "Cedar Falls", "Dover", "Easton", "Fairview",
    "Glenwood", "Harbor City", "Irvington", "Jasper", "Kingston", "Lakewood",
)
CATEGORIES = ("audio", "books", "garden", "kitchen", "office", "sports", "tools", "toys")
FIRST_NAMES = ("Ada", "Ben", "Cleo", "Dev", "Eva", "Finn", "Gus", "Hana", "Ivo", "Jun", "Kai", "Lea")
LAST_NAMES = ("Moss", "Nash", "Orr", "Park", "Quinn", "Reyes", "Shaw", "Tate", "Ueda", "Vance")
YEARS = tuple(range(2015, 2025))


@dataclass(frozen=True)
class DbShape:
    """Row counts of one synthetic database."""

    region: int
    supplier: int
    product: int
    customer: int
    orders: int


# At most 10^3 rows per database: per-call overhead dominates execution.
SMALL_DB = DbShape(region=5, supplier=15, product=60, customer=120, orders=600)
# About 10^5 rows: result sets of thousands of rows, SQLite scans dominate.
LARGE_DB = DbShape(region=20, supplier=400, product=4_000, customer=5_000, orders=90_000)


@dataclass(frozen=True)
class CorpusSpec:
    databases: int
    questions: int
    shape: DbShape
    overflow_share: float  # share of questions with one overflowing sample


@dataclass(frozen=True)
class Corpus:
    root: Path
    scripts: dict  # question text -> {"tables": [...], "columns": [...], "sql": [...]}
    expected_predictions: dict  # question_id -> SQL the vote must pick
    expected_ex: float


def _populate(path: Path, shape: DbShape, rng: random.Random) -> None:
    conn = sqlite3.connect(path)
    try:
        conn.executescript(DDL)
        conn.executemany(
            "INSERT INTO region VALUES (?, ?)",
            ((i, f"Region {i}") for i in range(1, shape.region + 1)),
        )
        conn.executemany(
            "INSERT INTO customer VALUES (?, ?, ?, ?, ?)",
            (
                (
                    i,
                    f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}",
                    rng.choice(CITIES),
                    rng.randint(18, 80),
                    rng.randint(1, shape.region),
                )
                for i in range(1, shape.customer + 1)
            ),
        )
        conn.executemany(
            "INSERT INTO supplier VALUES (?, ?, ?)",
            ((i, f"Supplier {i}", rng.randint(1, shape.region)) for i in range(1, shape.supplier + 1)),
        )
        conn.executemany(
            "INSERT INTO product VALUES (?, ?, ?, ?, ?)",
            (
                (
                    i,
                    f"Item {i}",
                    rng.choice(CATEGORIES),
                    round(rng.uniform(1, 200), 2),
                    rng.randint(1, shape.supplier),
                )
                for i in range(1, shape.product + 1)
            ),
        )
        conn.executemany(
            "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?)",
            (
                (
                    i,
                    rng.randint(1, shape.customer),
                    rng.randint(1, shape.product),
                    rng.randint(1, 9),
                    round(rng.uniform(1, 1000), 2),
                    rng.choice(YEARS),
                )
                for i in range(1, shape.orders + 1)
            ),
        )
        conn.commit()
    finally:
        conn.close()


def _tables_descriptor(db_id: str) -> dict:
    names = list(COLUMNS)
    column_names = [[-1, "*"]]
    column_types = ["text"]
    index = {}
    for t, table in enumerate(names):
        for column in COLUMNS[table]:
            index[(table, column)] = len(column_names)
            column_names.append([t, column])
            column_types.append(COLUMN_TYPES[column])
    return {
        "db_id": db_id,
        "table_names_original": names,
        "column_names_original": column_names,
        "column_types": column_types,
        "foreign_keys": [[index[(ft, fc)], index[(tt, tc)]] for ft, fc, tt, tc in FOREIGN_KEYS],
    }


# --- question templates -------------------------------------------------------
#
# Each template maps an occurrence index k (its k-th use in one database) to a
# question: text, difficulty, tables it uses, ordered flag, the three correct
# texts, wrong texts in order of preference (the first two that really differ
# are used) and an SqlError text.  Parameters come from k, not from the seed,
# so result sizes are the same on every seed.

JOIN = "FROM customer AS T1 JOIN orders AS T2 ON T1.id = T2.customer_id"


def _t_count(k):
    y = YEARS[k % len(YEARS)]
    return dict(
        text=f"How many orders were placed in {y}?",
        difficulty="easy", tables=("orders",), ordered=False,
        correct=(
            f"SELECT count(*) FROM orders WHERE year = {y}",
            f"SELECT count(id) FROM orders WHERE year = {y}",
            f"SELECT count(*) FROM orders WHERE year >= {y} AND year <= {y}",
        ),
        wrong=(
            f"SELECT count(*) FROM orders WHERE year > {y}",
            "SELECT count(*) FROM orders",
            f"SELECT count(*) FROM orders WHERE year < {y}",
            f"SELECT count(*) FROM orders WHERE year <> {y}",
        ),
        error=f"SELECT count(*) FROM orders WHERE order_year = {y}",
    )


def _t_average(k):
    q = 1 + k % 7
    return dict(
        text=f"What is the average amount of orders with a quantity above {q}?",
        difficulty="medium", tables=("orders",), ordered=False,
        correct=(
            f"SELECT avg(amount) FROM orders WHERE qty > {q}",
            f"SELECT sum(amount) * 1.0 / count(*) FROM orders WHERE qty > {q}",
            f"SELECT avg(amount) FROM orders WHERE qty >= {q + 1}",
        ),
        wrong=(
            f"SELECT max(amount) FROM orders WHERE qty > {q}",
            f"SELECT avg(amount) FROM orders WHERE qty <= {q}",
            f"SELECT min(amount) FROM orders WHERE qty > {q}",
            "SELECT avg(amount) FROM orders",
        ),
        error=f"SELECT avg(amount) FROM orders WHERE quantity > {q}",
    )


def _t_group(k):
    q = 1 + k % 8
    return dict(
        text=f"For each customer, how many orders had a quantity of at least {q}?",
        difficulty="medium", tables=("orders",), ordered=False,
        correct=(
            f"SELECT customer_id, count(*) FROM orders WHERE qty >= {q} GROUP BY customer_id",
            f"SELECT customer_id, count(id) FROM orders WHERE qty >= {q} GROUP BY customer_id",
            f"SELECT T1.customer_id, count(*) FROM orders AS T1 WHERE T1.qty > {q - 1} "
            "GROUP BY T1.customer_id",
        ),
        wrong=(
            f"SELECT customer_id, sum(qty) FROM orders WHERE qty >= {q} GROUP BY customer_id",
            f"SELECT customer_id, count(*) FROM orders WHERE qty < {q} GROUP BY customer_id",
            "SELECT customer_id, count(*) FROM orders GROUP BY customer_id",
            f"SELECT product_id, count(*) FROM orders WHERE qty >= {q} GROUP BY product_id",
        ),
        error=f"SELECT customer_id, count(*) FROM orders WHERE qty >= {q} GROUP BY customer",
    )


def _t_ordered(k):
    a = 50 + k % 11
    return dict(
        text=f"List the name and age of customers older than {a}, from the oldest to the youngest.",
        difficulty="medium", tables=("customer",), ordered=True,
        correct=(
            f"SELECT name, age FROM customer WHERE age > {a} ORDER BY age DESC, id",
            f"SELECT name, age FROM customer WHERE age > {a} ORDER BY -age, id",
            f"SELECT name, age FROM customer WHERE age >= {a + 1} ORDER BY age DESC, id ASC",
        ),
        wrong=(
            f"SELECT name, age FROM customer WHERE age > {a} ORDER BY age, id",
            f"SELECT name, age FROM customer WHERE age > {a} ORDER BY age DESC, id LIMIT 10",
            f"SELECT name, age FROM customer WHERE age > {a} ORDER BY age DESC, id DESC",
            f"SELECT name, age FROM customer WHERE age >= {a} ORDER BY age DESC, id",
        ),
        error=f"SELECT name, age FROM customer WHERE age > {a} ORDER age DESC",
    )


def _t_listing(k):
    p = 930 + (7 * k) % 40
    return dict(
        text=f"Show the id and amount of every order worth more than {p}.",
        difficulty="easy", tables=("orders",), ordered=False,
        correct=(
            f"SELECT id, amount FROM orders WHERE amount > {p}",
            f"SELECT id, amount FROM orders WHERE NOT amount <= {p}",
            f"SELECT T1.id, T1.amount FROM orders AS T1 WHERE T1.amount > {p}",
        ),
        wrong=(
            f"SELECT id, qty FROM orders WHERE amount > {p}",
            f"SELECT id, amount FROM orders WHERE amount > {p - 20}",
            f"SELECT id, amount FROM orders WHERE amount > {p} AND qty > 1",
            f"SELECT customer_id, amount FROM orders WHERE amount > {p}",
        ),
        error=f"SELECT id, amount FROM orders WHERE amount > {p} GROUP",
    )


def _t_join(k):
    y = YEARS[k % len(YEARS)]
    q = 6 + k % 3
    return dict(
        text=f"Which customer names placed an order in {y} with a quantity above {q}?",
        difficulty="hard", tables=("customer", "orders"), ordered=False,
        correct=(
            f"SELECT DISTINCT T1.name {JOIN} WHERE T2.year = {y} AND T2.qty > {q}",
            f"SELECT DISTINCT name FROM customer WHERE id IN "
            f"(SELECT customer_id FROM orders WHERE year = {y} AND qty > {q})",
            f"SELECT DISTINCT customer.name FROM customer JOIN orders "
            f"ON customer.id = orders.customer_id WHERE orders.year = {y} AND orders.qty > {q}",
        ),
        wrong=(
            f"SELECT DISTINCT T1.city {JOIN} WHERE T2.year = {y} AND T2.qty > {q}",
            f"SELECT T1.name {JOIN} WHERE T2.year = {y} AND T2.qty > {q}",
            f"SELECT DISTINCT T1.name {JOIN} WHERE T2.year = {y}",
            f"SELECT DISTINCT T1.name {JOIN} WHERE T2.qty > {q}",
        ),
        error=f"SELECT DISTINCT T1.name {JOIN} WHERE T2.year = {y} AND T3.qty > {q}",
    )


def _t_top_city(k):
    y = YEARS[k % len(YEARS)]
    return dict(
        text=f"Which city had the most orders in {y}?",
        difficulty="extra", tables=("customer", "orders"), ordered=True,
        correct=(
            f"SELECT T1.city {JOIN} WHERE T2.year = {y} GROUP BY T1.city "
            "ORDER BY count(*) DESC, T1.city LIMIT 1",
            "SELECT city FROM (SELECT T1.city AS city, count(*) AS n "
            f"{JOIN} WHERE T2.year = {y} GROUP BY T1.city) ORDER BY n DESC, city LIMIT 1",
            f"SELECT T1.city {JOIN} WHERE T2.year >= {y} AND T2.year <= {y} GROUP BY T1.city "
            "ORDER BY count(T2.id) DESC, T1.city LIMIT 1",
        ),
        wrong=(
            f"SELECT T1.city {JOIN} WHERE T2.year = {y} GROUP BY T1.city "
            "ORDER BY count(*) ASC, T1.city LIMIT 1",
            f"SELECT T1.city, count(*) {JOIN} WHERE T2.year = {y} GROUP BY T1.city "
            "ORDER BY count(*) DESC, T1.city LIMIT 1",
            f"SELECT T1.city {JOIN} GROUP BY T1.city ORDER BY count(*) DESC, T1.city LIMIT 1",
            f"SELECT T1.city {JOIN} WHERE T2.year = {y} GROUP BY T1.city "
            "ORDER BY count(*) DESC, T1.city LIMIT 2",
        ),
        error=f"SELECT T1.city {JOIN} WHERE T2.year = {y} GROUP BY city_name "
        "ORDER BY count(*) DESC LIMIT 1",
    )


TEMPLATES = (_t_count, _t_average, _t_group, _t_ordered, _t_listing, _t_join, _t_top_city)

OVERFLOW_SQL = "SELECT T1.id, T2.id FROM orders AS T1 JOIN customer AS T2"
UNPARSEABLE = "```sql\n;\n```"

# Share of questions whose first wrong text wins the vote, so EX is 0.85.
WRONG_WINNER_SHARE = 0.15
# Group sizes per question; the plurality group wins the vote.
CORRECT_WINS = {"A": 6, "B": 3, "C": 2, "W1": 4, "W2": 2, "E": 2, "U": 1}
WRONG_WINS = {"A": 4, "B": 2, "C": 1, "W1": 9, "W2": 1, "E": 2, "U": 1}


# --- validation against SQLite ------------------------------------------------

def _run(conn: sqlite3.Connection, sql: str):
    """Rows of `sql`, or "error", or "overflow" past the row limit."""
    try:
        cursor = conn.execute(sql)
        rows = cursor.fetchmany(RESULT_ROW_LIMIT + 1)
    except sqlite3.Error:
        return "error"
    return "overflow" if len(rows) > RESULT_ROW_LIMIT else rows


def _canonical(rows, ordered: bool):
    def cell(value):
        if isinstance(value, (int, float)):
            return (0, round(float(value), 6))
        return (1, value)

    keyed = [tuple(cell(v) for v in row) for row in rows]
    return keyed if ordered else sorted(keyed)


def _check_question(conn, question: dict, with_overflow: bool) -> tuple[str, str]:
    """Validate one question's SQL on its database; return the two wrong texts."""
    ordered = question["ordered"]
    gold = _run(conn, question["correct"][0])
    if not isinstance(gold, list):
        raise ValueError(f"gold query fails ({gold}): {question['correct'][0]}")
    gold_key = _canonical(gold, ordered)
    for sql in question["correct"][1:]:
        rows = _run(conn, sql)
        if not isinstance(rows, list) or _canonical(rows, ordered) != gold_key:
            raise ValueError(f"correct variant disagrees with gold: {sql}")
    wrong: list[str] = []
    seen = [gold_key]
    for sql in question["wrong"]:
        rows = _run(conn, sql)
        if isinstance(rows, list) and _canonical(rows, ordered) not in seen:
            wrong.append(sql)
            seen.append(_canonical(rows, ordered))
        if len(wrong) == 2:
            break
    else:
        raise ValueError(f"fewer than two distinct wrong results for: {question['text']}")
    if _run(conn, question["error"]) != "error":
        raise ValueError(f"error sample runs: {question['error']}")
    if with_overflow and _run(conn, OVERFLOW_SQL) != "overflow":
        raise ValueError("overflow sample does not overflow")
    return wrong[0], wrong[1]


# --- scripted completions -----------------------------------------------------

def _format_sample(sql: str, style: int) -> str:
    if style == 0:
        return " " + sql[len("SELECT "):]  # continues the prompt's trailing SELECT
    if style == 1:
        return sql + ";"
    return f"```sql\n{sql};\n```"


def _recall_texts(tables_used: tuple[str, ...]) -> tuple[list[str], list[str]]:
    ranking = list(tables_used) + [t for t in COLUMNS if t not in tables_used]
    swapped = ranking[:-2] + [ranking[-1], ranking[-2]]
    table_texts = [json.dumps(ranking)] * 7 + [
        json.dumps(swapped),
        "Sure! Here is the ranking:\n" + json.dumps(swapped),
        "I cannot rank these tables.",
    ]
    columns = {t: list(COLUMNS[t]) for t in ranking}
    noisy = {t: cols[1:] + cols[:1] for t, cols in columns.items()}
    column_texts = [json.dumps(columns)] * 8 + [
        json.dumps(noisy),
        "```json\n" + json.dumps(noisy) + "\n```",
    ]
    return table_texts, column_texts


def _generation_samples(texts: dict, wrong_wins: bool, with_overflow: bool,
                        rng: random.Random) -> tuple[list[str], str]:
    """Shuffled raw samples and the SQL the vote must pick from them."""
    sizes = dict(WRONG_WINS if wrong_wins else CORRECT_WINS)
    labels = [label for label, size in sizes.items() for _ in range(size)]
    if with_overflow:
        labels[labels.index("E")] = "O"
    rng.shuffle(labels)
    winning = ("W1",) if wrong_wins else ("A", "B", "C")
    expected = next(texts[label] for label in labels if label in winning)
    raw = [
        UNPARSEABLE if label == "U" else _format_sample(texts[label], index % 3)
        for index, label in enumerate(labels)
    ]
    return raw, expected


def build_corpus(dest: Path, spec: CorpusSpec, seed: int) -> Corpus:
    """Write the corpus for `spec` under `dest` and return its script and expectations."""
    dest.mkdir(parents=True, exist_ok=True)
    layout = random.Random("layout")  # deliberately not the seed; see the module docstring
    db_ids = [f"shop_{i:03d}" for i in range(spec.databases)]
    connections = {}
    for index, db_id in enumerate(db_ids):
        path = dest / "database" / db_id / f"{db_id}.sqlite"
        path.parent.mkdir(parents=True, exist_ok=True)
        _populate(path, spec.shape, random.Random(f"data:{seed}:{index}"))
        connections[db_id] = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    (dest / "tables.json").write_text(
        json.dumps([_tables_descriptor(db_id) for db_id in db_ids], indent=1) + "\n",
        encoding="utf-8",
    )

    # Question i asks template i % len(TEMPLATES) on database i % databases, in
    # that order: the mix is exact and the costly templates sit at the same
    # positions on every seed, so the pool's load balance does not vary.
    slots = list(range(spec.questions))
    wrong_winners = set(layout.sample(slots, round(WRONG_WINNER_SHARE * spec.questions)))
    overflows = set(layout.sample(slots, round(spec.overflow_share * spec.questions)))
    occurrences: dict[tuple[str, int], int] = {}
    entries = []
    try:
        for slot in slots:
            db_id = db_ids[slot % spec.databases]
            template = slot % len(TEMPLATES)
            k = occurrences[(db_id, template)] = occurrences.get((db_id, template), -1) + 1
            question = TEMPLATES[template](k)
            question["text"] = f"In the {db_id} shop: {question['text']}"
            w1, w2 = _check_question(connections[db_id], question, slot in overflows)
            texts = dict(zip("ABC", question["correct"]), W1=w1, W2=w2,
                         E=question["error"], O=OVERFLOW_SQL)
            raw, expected = _generation_samples(
                texts, slot in wrong_winners, slot in overflows, layout
            )
            entries.append((db_id, question, raw, expected, slot in wrong_winners))
    finally:
        for conn in connections.values():
            conn.close()

    scripts = {}
    records = []
    expected_predictions = {}
    for question_id, (db_id, question, raw, expected, _) in enumerate(entries):
        if question["text"] in scripts:
            raise ValueError(f"duplicate question text: {question['text']}")
        table_texts, column_texts = _recall_texts(question["tables"])
        scripts[question["text"]] = {"tables": table_texts, "columns": column_texts, "sql": raw}
        records.append({
            "db_id": db_id,
            "question": question["text"],
            "query": question["correct"][0],
            "difficulty": question["difficulty"],
        })
        expected_predictions[str(question_id)] = expected
    (dest / "questions.json").write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    matches = sum(1 for entry in entries if not entry[4])
    return Corpus(dest, scripts, expected_predictions, matches / len(entries))


# --- scripted model and its HTTP stand-in -------------------------------------

class ScriptedTransport:
    """Answers recall and generation prompts from a corpus script.

    The question is the prompt's last ``### `` line; the prompt kind comes from
    the instruction the last message starts with.
    """

    def __init__(self, scripts: dict):
        self.scripts = scripts

    def texts_for(self, content: str, n: int) -> list[str]:
        start = content.rindex("\n### ") + len("\n### ")
        end = content.find("\n", start)
        script = self.scripts[content[start:] if end < 0 else content[start:end]]
        if content.startswith(TABLE_RECALL_PREFIX):
            texts = script["tables"]
        elif content.startswith(COLUMN_RECALL_PREFIX):
            texts = script["columns"]
        else:
            texts = script["sql"]
        return [texts[i % len(texts)] for i in range(n)]


class FakeResponse:
    status_code = 200

    def __init__(self, payload: dict):
        self._payload = payload

    @property
    def text(self) -> str:
        return json.dumps(self._payload)

    def json(self) -> dict:
        return self._payload


class FakeSession:
    """In-process stand-in for ``requests.Session`` behind the live gateway.

    Each POST sleeps for a fixed service time, standing in for model latency,
    then answers with the scripted completions in the chat-completions wire
    format.  It opens no sockets.
    """

    def __init__(self, transport: ScriptedTransport, service_s: float):
        self.transport = transport
        self.service_s = service_s

    def post(self, url, json=None, headers=None, timeout=None):
        time.sleep(self.service_s)
        content = json["messages"][-1]["content"]
        texts = self.transport.texts_for(content, json["n"])
        return FakeResponse({
            "choices": [{"message": {"role": "assistant", "content": t}} for t in texts],
            "usage": {
                "prompt_tokens": sum(len(m["content"]) for m in json["messages"]) // 4,
                "completion_tokens": sum(len(t) for t in texts) // 4,
            },
        })
