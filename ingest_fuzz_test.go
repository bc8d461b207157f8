package swole

import (
	"testing"

	"github.com/reprolab/swole/internal/ingest"
)

// FuzzIngestBody sends arbitrary CSV bodies through DB.AppendCSV, under the
// strict and the skip policy, into a small table holding every field kind.
// Every body gets a report or an error and never a panic; a refused batch
// appends nothing, and an accepted one adds exactly its Accepted rows to
// count(*) — on the interpreter and on a plan the append made stale. The
// seeds are the bodies of the ingestion kernel's tests and of the /ingest
// handler's.
func FuzzIngestBody(f *testing.F) {
	for _, body := range []string{
		// DB.AppendCSV's tests, over this table.
		"10,9.99,1996-03-15,europe\n20,1.50,1996-04-01,asia\n",
		"10,9.99,1996-03-15,europe\nbad,1.50,1996-04-01,asia\n",
		"10,9.99,1996-03-15,europe\nbad,1.50,1996-04-01,asia\n20,0.25,1996-05-01,mars\n30,1.00,1996-06-01,asia\n",
		// internal/ingest's kernel tests.
		"1,2.50,2020-01-02,red\n-7,3,1999-12-31,blue\n",
		"1,\"comma,value\"\n\"2\",\"quote\"\"value\"\n3,\"line\nvalue\"\n",
		"1,1.00,2020-01-01,red\nbad,1.00,2020-01-01,red\n3,1.00,2020-01-01,red\n",
		"\n1,1.00,2020-01-01,red\r\n\r\n\n2,2.00,2020-01-02,blue",
		"1,1.00,2020-01-01,red\n2,2.00\n3,3.00,2020-01-03,green,extra\n4,4.00,2020-01-04,blue\n",
		"10,1.25,2020-06-15,green\n\"20\",2.50,2021-01-01,\"red\"\n30,0.75,1999-02-28,blue\n",
		"1,1.00,2020-01-01,\"red",
		"\n\r\n1,2,3\nx,y\n",
		// The /ingest handler's tests.
		"1,1000000\n2,1000001\n",
		"5,5\nnope,6\n",
		"",
	} {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, skip bool) {
		d := appendTestDB(t)
		defer d.Close()
		const q = "select count(*) from sales"
		if _, _, err := d.QuerySwole(q); err != nil { // a plan for the append to make stale
			t.Fatal(err)
		}
		before := d.db.Table("sales").Rows()
		policy := IngestStrict
		if skip {
			policy = IngestSkip
		}
		rep, err := d.AppendCSV("sales", body, policy)
		if rep.Accepted < 0 || rep.Rejected < 0 || len(rep.Errors) > ingest.MaxRowErrors {
			t.Fatalf("report %+v", rep)
		}
		if err != nil && rep.Accepted != 0 {
			t.Fatalf("refused batch (%v) reports %d rows accepted", err, rep.Accepted)
		}
		want := int64(before + rep.Accepted)
		base, err := d.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := d.QuerySwole(q)
		if err != nil {
			t.Fatal(err)
		}
		if b, s := base.Rows()[0][0], res.Rows()[0][0]; b != want || s != want {
			t.Fatalf("count(*) after %+v: interpreter %d, engine %d, want %d + %d", rep, b, s, before, rep.Accepted)
		}
	})
}
