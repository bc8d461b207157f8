package sql

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/volcano"
)

// TestExpressionRoundTrip generates random expression trees, renders them
// with expr's String method, re-parses the SQL through the full pipeline,
// and checks the re-parsed predicate selects exactly the same rows — a
// parser/printer/evaluator consistency property.
func TestExpressionRoundTrip(t *testing.T) {
	db := roundTripDB(t)
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 300; iter++ {
		e := randBoolExpr(rng, 0)
		sqlText := fmt.Sprintf("select count(*) from rt where %s", e.String())

		// Reference: bind and evaluate the original tree directly.
		tab := db.Table("rt")
		if err := expr.Bind(e, expr.Columns(tab)); err != nil {
			t.Fatalf("bind %s: %v", e, err)
		}
		var want int64
		for i := 0; i < tab.Rows(); i++ {
			if expr.Eval(e, i, nil) != 0 {
				want++
			}
		}

		p, err := Compile(sqlText, db)
		if err != nil {
			t.Fatalf("re-parse %q: %v", sqlText, err)
		}
		res, err := volcano.Run(context.Background(), p, db)
		if err != nil {
			t.Fatalf("run %q: %v", sqlText, err)
		}
		if got := res.Rows[0][0]; got != want {
			t.Fatalf("round trip diverged for %q: got %d, want %d", sqlText, got, want)
		}
	}
}

func roundTripDB(t *testing.T) *storage.Database {
	t.Helper()
	n := 500
	a := make([]int64, n)
	bcol := make([]int64, n)
	s := make([]string, n)
	words := []string{"alpha", "beta", "gamma", "delta"}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		a[i] = int64(rng.Intn(21) - 10)
		bcol[i] = int64(rng.Intn(21) - 10)
		s[i] = words[rng.Intn(len(words))]
	}
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("rt",
		storage.Compress("a", a, storage.LogInt),
		storage.Compress("b", bcol, storage.LogInt),
		storage.NewStrings("s", s),
	))
	return db
}

// randIntExpr generates a random integer-valued expression over columns
// a/b and small constants. Division is avoided (divide-by-zero) and depth
// is bounded.
func randIntExpr(rng *rand.Rand, depth int) expr.Expr {
	if depth > 2 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return expr.NewCol("a")
		case 1:
			return expr.NewCol("b")
		default:
			return &expr.Const{Val: int64(rng.Intn(11) - 5)}
		}
	}
	ops := []expr.ArithOp{expr.Add, expr.Sub, expr.Mul}
	return &expr.Arith{
		Op: ops[rng.Intn(len(ops))],
		L:  randIntExpr(rng, depth+1),
		R:  randIntExpr(rng, depth+1),
	}
}

// randBoolExpr generates a random predicate.
func randBoolExpr(rng *rand.Rand, depth int) expr.Expr {
	if depth > 2 {
		return randCmp(rng, depth)
	}
	switch rng.Intn(6) {
	case 0:
		return &expr.Logic{Op: expr.And, Args: []expr.Expr{
			randBoolExpr(rng, depth+1), randBoolExpr(rng, depth+1),
		}}
	case 1:
		return &expr.Logic{Op: expr.Or, Args: []expr.Expr{
			randBoolExpr(rng, depth+1), randBoolExpr(rng, depth+1),
		}}
	case 2:
		return &expr.Logic{Op: expr.Not, Args: []expr.Expr{randBoolExpr(rng, depth+1)}}
	case 3:
		return &expr.Between{
			X:  randIntExpr(rng, depth+1),
			Lo: &expr.Const{Val: int64(rng.Intn(6) - 5)},
			Hi: &expr.Const{Val: int64(rng.Intn(6))},
		}
	case 4:
		items := []expr.Expr{
			&expr.Const{Val: int64(rng.Intn(5))},
			&expr.Const{Val: int64(rng.Intn(5) - 5)},
		}
		return &expr.In{X: randIntExpr(rng, depth+1), List: items}
	default:
		return randCmp(rng, depth)
	}
}

func randCmp(rng *rand.Rand, depth int) expr.Expr {
	// Occasionally compare strings.
	if rng.Intn(5) == 0 {
		ops := []expr.CmpOp{expr.EQ, expr.NE}
		words := []string{"alpha", "beta", "gamma", "delta", "absent"}
		return &expr.Cmp{
			Op: ops[rng.Intn(len(ops))],
			L:  expr.NewCol("s"),
			R:  &expr.StrConst{Val: words[rng.Intn(len(words))]},
		}
	}
	ops := []expr.CmpOp{expr.LT, expr.LE, expr.GT, expr.GE, expr.EQ, expr.NE}
	return &expr.Cmp{
		Op: ops[rng.Intn(len(ops))],
		L:  randIntExpr(rng, depth+1),
		R:  randIntExpr(rng, depth+1),
	}
}

// TestParserNeverPanics feeds mutated fragments of valid SQL to the
// parser; it must fail cleanly, never panic.
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		"select count(*) from rt where a < 5 and s like 'a%'",
		"select a, sum(b) from rt group by a order by a desc limit 3",
		"select sum(case when a < 0 then b else 0 end) from rt",
		"select count(*) from rt where a between 1 and 2 or b in (1, 2)",
	}
	rng := rand.New(rand.NewSource(123))
	db := roundTripDB(t)
	for iter := 0; iter < 3000; iter++ {
		src := []byte(seeds[rng.Intn(len(seeds))])
		// Mutate: truncate, splice, or corrupt bytes.
		switch rng.Intn(3) {
		case 0:
			src = src[:rng.Intn(len(src)+1)]
		case 1:
			if len(src) > 0 {
				src[rng.Intn(len(src))] = byte(rng.Intn(128))
			}
		case 2:
			i, j := rng.Intn(len(src)), rng.Intn(len(src))
			src = append(append([]byte{}, src[:i]...), src[j:]...)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			p, err := Compile(string(src), db)
			if err == nil {
				// Compiled mutants must also execute cleanly or error.
				_, _ = volcano.Run(context.Background(), p, db)
			}
		}()
	}
}
