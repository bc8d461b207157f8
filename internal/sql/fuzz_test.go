package sql

import (
	"testing"

	"github.com/reprolab/swole/internal/storage"
)

// FuzzParse: whatever text arrives, Compile over a small catalog returns a
// plan or an error, and never panics. The seeds are this package's
// statements, good and bad, and the SQL the serving layer's FuzzQueryBody
// corpus holds, over r/dim and over t(a, b).
func FuzzParse(f *testing.F) {
	for _, q := range append([]string{
		"select sum(r_a), count(*) from r where r_x < 13",
		"select r_c, sum(r_a) as total from r group by r_c order by total desc, r_c limit 3",
		"select sum(r_a) as s, r_c from r group by r_c",
		"select count(*) from r where r_x between 10 and 20 or r_s like 'red%' and not (r_x in (1, 2, 3))",
		"select r_x, r_a * 2 as dbl from r where r_x < 5",
		"select sum(r_a) from dim, r where d_pk = r_fk and d_x < 50 and r_x < 50",
		"select r_fk, sum(r_a) from r, dim where r_fk = d_pk and d_x < 50 group by r_fk",
		"select count(*) from r, dim where r_fk = d_pk and r_x < d_x",
		"select sum(case when r_x < 50 then r_a else 0 end) from r where r_s = 'it''s'",
		"select min(r_a), max(r_a), avg(r_a) from r where r_x >= 2.50",
		"SELECT a, SUM(b) FROM t WHERE a < 7 OR b > 4000 GROUP BY a HAVING COUNT(*) > 1",
		"SELECT a, SUM(b) FROM t WHERE a < 7 OR b GROUP BY a",
		"SELECT a, SUM(*) FROM t WHERE a < 7 OR b  GROUP BY a HAVING COUNT(*) > 1",
		"SELECT a, b FROM t WHERE a = 3 ORDER BY b",
		"SELECT MIN(a), MAX(b), AVG(b) FROM t WHERE NOT (a < 5)",
		"SELECT a, SUM(b) FROM t WHERE a IN (b - 4000, a / 0, 7) GROUP BY a",
		"SELECT SUM(b / (a - 5)) FROM t WHERE b / (a - 5) > 1",
		"SELECT '\u0000' FROM t",
		"SELECT A(0000",
	}, badStatements...) {
		f.Add(q)
	}
	db := testDB(f)
	db.AddTable(storage.MustNewTable("t",
		storage.Compress("a", []int64{1, 5, 7}, storage.LogInt),
		storage.Compress("b", []int64{4000, 4001, 9}, storage.LogInt)))
	f.Fuzz(func(t *testing.T, q string) {
		if p, err := Compile(q, db); (p == nil) == (err == nil) {
			t.Fatalf("Compile(%q) = %v, %v: want a plan or an error", q, p, err)
		}
	})
}
