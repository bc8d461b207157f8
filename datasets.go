package swole

import (
	"github.com/reprolab/swole/internal/codegen"
	"github.com/reprolab/swole/internal/micro"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/tpch"
)

// LoadTPCH generates the built-in TPC-H-alike dataset at the given scale
// factor (the paper evaluates at SF 10; 0.1 is a comfortable laptop
// scale) and returns it as a DB ready for Query/QuerySwole. Foreign keys
// are pre-registered.
func LoadTPCH(sf float64) *DB {
	d := tpch.Generate(sf)
	return newDBWith(d.DB)
}

// MicroConfig sizes the paper's Figure 7 microbenchmark dataset.
type MicroConfig struct {
	Rows      int // tuples in R (paper: 100M)
	DimRows   int // tuples in S (paper: 1K or 1M)
	GroupKeys int // cardinality of r_c (paper: 10 .. 10M)
	Seed      uint64
}

// LoadMicro generates the Figure 7 microbenchmark tables R and S as a DB.
func LoadMicro(cfg MicroConfig) (*DB, error) {
	if cfg.Rows <= 0 {
		cfg.Rows = 1_000_000
	}
	if cfg.DimRows <= 0 {
		cfg.DimRows = 1_000
	}
	if cfg.GroupKeys <= 0 {
		cfg.GroupKeys = 1_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	m := micro.Generate(micro.Config{NR: cfg.Rows, NS: cfg.DimRows, CCard: cfg.GroupKeys, Seed: cfg.Seed})
	db := NewDB()
	if err := db.CreateTable("r",
		microColumn("r_a", m.A), microColumn("r_b", m.B), microColumn("r_x", m.X), microColumn("r_y", m.Y),
		microColumn("r_c", m.C), microColumn("r_fk", m.FK),
	); err != nil {
		return nil, err
	}
	if err := db.CreateTable("s", microColumn("s_pk", m.SPK), microColumn("s_x", m.SX)); err != nil {
		return nil, err
	}
	if err := db.AddForeignKey("r", "r_fk", "s", "s_pk"); err != nil {
		return nil, err
	}
	return db, nil
}

// microColumn builds an integer column straight from the generator's
// stored width: one copy, at the width null suppression picks.
func microColumn[T int8 | int32](name string, vals []T) Column {
	return Column{col: storage.Compress(name, vals, storage.LogInt)}
}

// GenerateCode emits the Go source that the named strategy's code
// generator would produce for a SQL statement (single-table aggregation
// shapes). Strategies: "data-centric", "hybrid", "rof", "value-masking",
// "key-masking", "access-merging".
func (d *DB) GenerateCode(q, strategy string) (string, error) {
	p, err := d.Plan(q)
	if err != nil {
		return "", err
	}
	cq, err := codegenQuery(p)
	if err != nil {
		return "", err
	}
	var s codegen.Strategy
	switch strategy {
	case "data-centric", "datacentric":
		s = codegen.DataCentric
	case "hybrid":
		s = codegen.Hybrid
	case "rof":
		s = codegen.ROF
	case "value-masking":
		s = codegen.ValueMasking
	case "key-masking":
		s = codegen.KeyMasking
	case "access-merging":
		s = codegen.AccessMerging
	default:
		return "", errUnknownStrategy(strategy)
	}
	return codegen.Generate(cq, s)
}

type errUnknownStrategy string

func (e errUnknownStrategy) Error() string { return "swole: unknown strategy " + string(e) }

// FormatDate renders a day-number value from a Result row.
func FormatDate(days int64) string { return storage.FormatDate(int32(days)) }

// FormatDecimal renders a fixed-point value from a Result row.
func FormatDecimal(v int64) string { return storage.FormatDecimal(v) }
