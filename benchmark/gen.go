package main

import (
	"fmt"
	"strings"
)

// adhocPerPass is the number of fresh statements in an adhoc_compile pass.
const adhocPerPass = 100

// adhocGen draws never-repeating statements over the micro schema plus
// the second dimension g: 0-2 join edges, 1-3 OR terms, 1-3 aggregates
// (sum, count, min, max), optional GROUP BY and HAVING, fresh literals.
// Every statement text is emitted once, so each execution parses,
// synthesizes, samples, binds and runs.
type adhocGen struct {
	r      rng
	groups int // cardinality of r_c
	seen   map[string]bool
}

func newAdhocGen(seed uint64, groups int) *adhocGen {
	return &adhocGen{r: rng(seed ^ 0xa0761d6478bd642f), groups: groups, seen: map[string]bool{}}
}

// adhocCol is a value column and the exclusive upper end of its domain.
type adhocCol struct {
	name string
	card int
}

var adhocCols = map[string][]adhocCol{
	"r": {{"r_a", 101}, {"r_b", 101}, {"r_x", 100}},
	"s": {{"s_x", 100}},
	"g": {{"g_v", 100}},
}

func (g *adhocGen) pass(p, n int) []*stmt {
	out := make([]*stmt, 0, n)
	for len(out) < n {
		sql := g.statement()
		if g.seen[sql] {
			continue
		}
		g.seen[sql] = true
		out = append(out, &stmt{id: fmt.Sprintf("p%03d.%02d", p, len(out)), sql: sql})
	}
	return out
}

func (g *adhocGen) col(tables []string) adhocCol {
	cols := adhocCols[tables[g.r.intn(len(tables))]]
	return cols[g.r.intn(len(cols))]
}

func (g *adhocGen) leaf(tables []string) string {
	c := g.col(tables)
	switch g.r.intn(4) {
	case 0:
		return fmt.Sprintf("%s < %d", c.name, g.r.intn(c.card))
	case 1:
		return fmt.Sprintf("%s >= %d", c.name, g.r.intn(c.card))
	case 2:
		lo := g.r.intn(c.card)
		return fmt.Sprintf("%s between %d and %d", c.name, lo, lo+g.r.intn(c.card-lo))
	default:
		return fmt.Sprintf("r_c < %d", g.r.intn(g.groups))
	}
}

func (g *adhocGen) statement() string {
	tables, joins := []string{"r"}, []string(nil)
	switch g.r.intn(4) {
	case 1:
		tables, joins = []string{"r", "s"}, []string{"r_fk = s_pk"}
	case 2:
		tables, joins = []string{"r", "g"}, []string{"r_c = g_pk"}
	case 3:
		tables, joins = []string{"r", "s", "g"}, []string{"r_fk = s_pk", "r_c = g_pk"}
	}

	terms := make([]string, 1+g.r.intn(3))
	for i := range terms {
		terms[i] = g.leaf(tables)
		if g.r.intn(3) == 0 {
			terms[i] = "(" + terms[i] + " and " + g.leaf(tables) + ")"
		}
	}
	pred := strings.Join(terms, " or ")
	if len(terms) > 1 {
		pred = "(" + pred + ")"
	}

	aggs := make([]string, 1+g.r.intn(3))
	for i := range aggs {
		c := g.col(tables)
		switch g.r.intn(5) {
		case 0:
			aggs[i] = fmt.Sprintf("count(*) as a%d", i)
		case 1:
			aggs[i] = fmt.Sprintf("min(%s) as a%d", c.name, i)
		case 2:
			aggs[i] = fmt.Sprintf("max(%s) as a%d", c.name, i)
		case 3:
			aggs[i] = fmt.Sprintf("sum(%s * %s) as a%d", c.name, g.col(tables).name, i)
		default:
			aggs[i] = fmt.Sprintf("sum(%s) as a%d", c.name, i)
		}
	}

	// Group keys have at most 101 values: a 1K-row result allocates ten
	// times what the statement's compilation does, and a few of them per
	// pass made allocs_per_stmt differ by seed.
	key := ""
	if g.r.intn(2) == 0 {
		key = g.col(tables).name
	}
	var b strings.Builder
	b.WriteString("select ")
	if key != "" {
		b.WriteString(key + ", ")
	}
	b.WriteString(strings.Join(aggs, ", ") + " from " + strings.Join(tables, ", "))
	b.WriteString(" where " + strings.Join(append(joins, pred), " and "))
	if key != "" {
		b.WriteString(" group by " + key)
		switch g.r.intn(5) {
		case 0:
			fmt.Fprintf(&b, " having count(*) > %d", g.r.intn(20))
		case 1:
			fmt.Fprintf(&b, " having a0 > %d", g.r.intn(50))
		}
	}
	return b.String()
}
