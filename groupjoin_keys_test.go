package swole

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestGroupjoinParentKeys: a groupjoin over parents whose primary keys are
// not their row positions — 1..N with N a multiple of 64 and not, negative,
// strided, shuffled — answers as the interpreter does, in ascending key
// order, cold, warm and under every technique it can be forced onto, at one
// worker and four. A plan that indexes a bitmap by key value instead of by
// position returns a group too many here, or reads past the bitmap.
func TestGroupjoinParentKeys(t *testing.T) {
	perm := rand.New(rand.NewSource(3)).Perm(1000)
	for _, c := range []struct {
		name string
		n    int
		key  func(i int) int64
	}{
		{"1..100", 100, func(i int) int64 { return int64(i + 1) }},
		{"1..128", 128, func(i int) int64 { return int64(i + 1) }},
		{"1..102400", 102_400, func(i int) int64 { return int64(i + 1) }},
		{"-50..49", 100, func(i int) int64 { return int64(i - 50) }},
		{"1000+3i", 100, func(i int) int64 { return 1000 + 3*int64(i) }},
		{"shuffled", 1000, func(i int) int64 { return int64(perm[i] + 1) }},
	} {
		d := parentKeysDB(t, c.n, c.key)
		for _, q := range []string{
			"select c_fk, sum(c_a) as s from c, p where c_fk = p_pk and p_x < 5 group by c_fk",
			"select c_fk, count(*) as n, avg(c_a) as m from c, p where c_fk = p_pk and p_x < 5 group by c_fk having count(*) > 1",
		} {
			for _, workers := range []int{1, 4} {
				d.SetWorkers(workers)
				tag := fmt.Sprintf("keys %s workers=%d", c.name, workers)
				checkEveryPath(t, d, q, tag)
				res, _, err := d.QuerySwole(q)
				if err != nil {
					t.Fatal(err)
				}
				if !keysAscending(res.Rows(), 1) {
					t.Errorf("%s %q: groups out of key order", tag, q)
				}
			}
		}
		d.Close()
	}
}

// parentKeysDB is a parent p of n rows, row i keyed key(i) with p_x =
// 9 - i*37 mod 10 — the last of 100 rows fails p_x < 5 — and a child c of
// 20,000 rows referencing parents at random.
func parentKeysDB(t *testing.T, n int, key func(i int) int64) *DB {
	t.Helper()
	r := rand.New(rand.NewSource(int64(n)))
	pk, px := make([]int64, n), make([]int64, n)
	for i := range pk {
		pk[i], px[i] = key(i), int64(9-i*37%10)
	}
	fk, a := make([]int64, 20_000), make([]int64, 20_000)
	for i := range fk {
		fk[i], a[i] = pk[r.Intn(n)], r.Int63n(100)
	}
	d := NewDB()
	if err := d.CreateTable("p", IntColumn("p_pk", pk), IntColumn("p_x", px)); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("c", IntColumn("c_fk", fk), IntColumn("c_a", a)); err != nil {
		t.Fatal(err)
	}
	if err := d.AddForeignKey("c", "c_fk", "p", "p_pk"); err != nil {
		t.Fatal(err)
	}
	smallMorsels(d)
	return d
}
