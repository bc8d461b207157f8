// Command tpchgen generates the built-in TPC-H-alike dataset and prints
// its shape: row counts, column physical types after compression, memory
// footprint, and the selectivities the paper's queries depend on.
//
// Usage:
//
//	tpchgen -sf 0.1
//	tpchgen -sf 0.1 -q "select count(*) from orders"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/reprolab/swole/internal/sql"
	"github.com/reprolab/swole/internal/tpch"
	"github.com/reprolab/swole/internal/volcano"
)

func main() {
	sf := flag.Float64("sf", 0.1, "scale factor (paper: 10)")
	query := flag.String("q", "", "optional SQL to run against the dataset")
	flag.Parse()

	d := tpch.Generate(*sf)
	fmt.Printf("TPC-H-alike dataset at SF %g\n\n", *sf)
	fmt.Printf("%-10s %10s %12s\n", "table", "rows", "bytes")
	total := 0
	for _, name := range []string{"region", "nation", "supplier", "customer", "part", "orders", "lineitem"} {
		t := d.DB.MustTable(name)
		fmt.Printf("%-10s %10d %12d\n", name, t.Rows(), t.MemBytes())
		total += t.MemBytes()
	}
	fmt.Printf("%-10s %10s %12d\n\n", "total", "", total)

	fmt.Println("lineitem columns (null suppression + dictionary encoding):")
	for _, c := range d.DB.MustTable("lineitem").Columns {
		fmt.Printf("  %s\n", c)
	}

	if *query != "" {
		// The interpreted reference engine over the dataset in hand, as
		// swole.DB.Query runs it.
		res, err := run(*query, d)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tpchgen:", err)
			os.Exit(1)
		}
		fmt.Printf("\n%s\n", res.Format(20))
	}
}

func run(q string, d *tpch.Data) (*volcano.Result, error) {
	p, err := sql.Compile(q, d.DB)
	if err != nil {
		return nil, err
	}
	return volcano.Run(context.Background(), p, d.DB)
}
