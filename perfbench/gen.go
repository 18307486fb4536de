package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
)

// op is one pre-generated request of a serve workload. Sequences are
// generated before anything is timed, from the workload seed only, so
// every commit replays the same requests.
type op struct {
	kind string // "ingest", "whatif" or "recommend"
	body string // JSON request body

	// ingest: the SQL text and its statement count.
	sql        string
	statements int
	// whatif: the statement and the hypothetical indexes.
	indexes []indexSpec
}

// indexSpec is the wire form of an index in /whatif requests and
// /recommend responses.
type indexSpec struct {
	Table     string   `json:"table"`
	Key       []string `json:"key"`
	Include   []string `json:"include,omitempty"`
	Clustered bool     `json:"clustered,omitempty"`
}

// budgetFraction is the storage budget every recommendation asks for:
// half the data size, as in the tune workloads.
const budgetFraction = 0.5

// mixEntry weights one request kind in a mix.
type mixEntry struct {
	kind   string
	weight int
}

// The request traffic is cmd/cophybench's, copied verbatim: the
// statement templates and their draws (ingestBody, statement and
// whatifBody in cmd/cophybench/main.go), its per-client seeding
// (seed + 7919·client) and its weighted pick. The live-set size and the
// recommend cost the benchmark was sized by were measured on this mix.

// ingestOp is cophybench's ingestBody: 2 to 4 statements.
func ingestOp(rng *rand.Rand) op {
	var sts []string
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		sts = append(sts, statement(rng))
	}
	sql := strings.Join(sts, ";\n")
	return op{kind: "ingest", body: mustJSON(map[string]string{"sql": sql}), sql: sql, statements: len(sts)}
}

// statement is cophybench's statement: one statement in the workload
// parser's dialect over the TPC-H schema cophyd serves. Placeholders
// like :0.25 are selectivities.
func statement(rng *rand.Rand) string {
	sel := func() float64 { return 0.05 + 0.9*rng.Float64() }
	weight := 1 + rng.Intn(8)
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf("SELECT l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN :%.2f AND :%.2f WEIGHT %d", sel()/2, 0.5+sel()/2, weight)
	case 1:
		return fmt.Sprintf("SELECT l_extendedprice, l_discount FROM lineitem WHERE l_shipdate BETWEEN :%.2f AND :%.2f AND l_quantity < :%.2f WEIGHT %d", sel()/2, 0.5+sel()/2, sel(), weight)
	case 2:
		return fmt.Sprintf("SELECT o_totalprice FROM orders WHERE o_orderdate < :%.2f WEIGHT %d", sel(), weight)
	case 3:
		return fmt.Sprintf("SELECT c_name, c_acctbal FROM customer WHERE c_mktsegment = :%.2f WEIGHT %d", sel(), weight)
	case 4:
		return fmt.Sprintf("SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem WHERE l_orderkey = o_orderkey AND o_orderdate < :%.2f GROUP BY o_orderdate WEIGHT %d", sel(), weight)
	default:
		return fmt.Sprintf("UPDATE lineitem SET l_quantity = :%.2f WHERE l_orderkey < :%.2f", sel(), sel()/2)
	}
}

// whatifIndexes are cophybench's hypothetical configurations.
var whatifIndexes = [][]indexSpec{
	{{Table: "lineitem", Key: []string{"l_shipdate"}}},
	{{Table: "lineitem", Key: []string{"l_shipdate", "l_quantity"}}},
	{{Table: "orders", Key: []string{"o_orderdate"}}},
	{{Table: "customer", Key: []string{"c_mktsegment"}}},
	{{Table: "orders", Key: []string{"o_orderdate"}}, {Table: "lineitem", Key: []string{"l_orderkey"}}},
}

// whatifOp is cophybench's whatifBody.
func whatifOp(rng *rand.Rand) op {
	sel := 0.05 + 0.9*rng.Float64()
	queries := []string{
		fmt.Sprintf("SELECT l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN :%.2f AND :%.2f", sel/2, 0.5+sel/2),
		fmt.Sprintf("SELECT o_totalprice FROM orders WHERE o_orderdate < :%.2f", sel),
		fmt.Sprintf("SELECT c_name FROM customer WHERE c_mktsegment = :%.2f", sel),
	}
	sql := queries[rng.Intn(len(queries))]
	ixs := whatifIndexes[rng.Intn(len(whatifIndexes))]
	return op{kind: "whatif", body: mustJSON(map[string]any{"sql": sql, "indexes": ixs}), sql: sql, indexes: ixs}
}

func recommendOp() op {
	return op{kind: "recommend", body: mustJSON(map[string]float64{"budget_fraction": budgetFraction})}
}

// clientRand is cophybench's per-client generator. The warm-up draws
// from client −1's, which no timed client uses.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(client)*7919))
}

// warmupOps is the warm-up ingest stream; it is consumed until the
// live workload stops growing.
func warmupOps(seed int64, n int) []op {
	rng := clientRand(seed, -1)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = ingestOp(rng)
	}
	return ops
}

// clientOps is one client's timed request sequence: n requests drawn
// from the mix by cophybench's pick.
func clientOps(seed int64, client, n int, mix []mixEntry) []op {
	rng := clientRand(seed, client)
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	ops := make([]op, n)
	for i := range ops {
		switch pick(rng, mix, total) {
		case "ingest":
			ops[i] = ingestOp(rng)
		case "whatif":
			ops[i] = whatifOp(rng)
		default:
			ops[i] = recommendOp()
		}
	}
	return ops
}

// pick is cophybench's: one mix entry by weight.
func pick(rng *rand.Rand, mix []mixEntry, total int) string {
	n := rng.Intn(total)
	for _, m := range mix {
		if n -= m.weight; n < 0 {
			return m.kind
		}
	}
	return mix[len(mix)-1].kind
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only static request shapes are marshalled
	}
	return string(b)
}
