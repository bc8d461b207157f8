package tpch

import "github.com/reprolab/swole/internal/storage"

// partTypeVocab returns the complete vocabulary for dictionary stability.
func partTypeVocab() []string {
	out := make([]string, 0, len(typeSyl1)*len(typeSyl2)*len(typeSyl3))
	for _, a := range typeSyl1 {
		for _, b := range typeSyl2 {
			for _, c := range typeSyl3 {
				out = append(out, a+" "+b+" "+c)
			}
		}
	}
	return out
}

func brandVocab() []string {
	out := make([]string, 0, 25)
	for m := 1; m <= 5; m++ {
		for n := 1; n <= 5; n++ {
			out = append(out, "Brand#"+string(rune('0'+m))+string(rune('0'+n)))
		}
	}
	return out
}

func containerVocab() []string {
	out := make([]string, 0, len(containers1)*len(containers2))
	for _, a := range containers1 {
		for _, b := range containers2 {
			out = append(out, a+" "+b)
		}
	}
	return out
}

// buildColumns assembles the column-store Database from the typed slices,
// each column built straight from its stored width, and adds the
// foreign-key indexes.
func (d *Data) buildColumns() {
	dense := func(name string, n int) *storage.Column {
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(i)
		}
		return storage.Compress(name, vals, storage.LogInt)
	}
	li := &d.Lineitem
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("region",
		dense("r_regionkey", regionRows),
		storage.NewCodes("r_name", d.Region.NameDict, d.Region.Name)))
	db.AddTable(storage.MustNewTable("nation",
		dense("n_nationkey", nationRows),
		storage.NewCodes("n_name", d.Nation.NameDict, d.Nation.Name),
		storage.Compress("n_regionkey", d.Nation.RegionKey, storage.LogInt)))
	db.AddTable(storage.MustNewTable("supplier",
		dense("s_suppkey", len(d.Supplier.NationKey)),
		storage.Compress("s_nationkey", d.Supplier.NationKey, storage.LogInt)))
	db.AddTable(storage.MustNewTable("customer",
		dense("c_custkey", len(d.Customer.MktSegment)),
		storage.NewCodes("c_mktsegment", d.Customer.SegDict, d.Customer.MktSegment),
		storage.Compress("c_nationkey", d.Customer.NationKey, storage.LogInt)))
	db.AddTable(storage.MustNewTable("part",
		dense("p_partkey", len(d.Part.Type)),
		storage.NewCodes("p_type", d.Part.TypeDict, d.Part.Type),
		storage.NewCodes("p_brand", d.Part.BrandDict, d.Part.Brand),
		storage.NewCodes("p_container", d.Part.ContDict, d.Part.Container),
		storage.Compress("p_size", d.Part.Size, storage.LogInt)))
	db.AddTable(storage.MustNewTable("orders",
		dense("o_orderkey", len(d.Orders.CustKey)),
		storage.Compress("o_custkey", d.Orders.CustKey, storage.LogInt),
		storage.Compress("o_orderdate", d.Orders.OrderDate, storage.LogDate),
		storage.NewCodes("o_orderpriority", d.Orders.PrioDict, d.Orders.OrderPriority),
		storage.Compress("o_shippriority", d.Orders.ShipPriority, storage.LogInt),
		storage.NewCodes("o_comment", d.Orders.CommentDict, d.Orders.Comment)))
	db.AddTable(storage.MustNewTable("lineitem",
		storage.Compress("l_orderkey", li.OrderKey, storage.LogInt),
		storage.Compress("l_partkey", li.PartKey, storage.LogInt),
		storage.Compress("l_suppkey", li.SuppKey, storage.LogInt),
		storage.Compress("l_quantity", li.Quantity, storage.LogInt),
		storage.Compress("l_extendedprice", li.ExtendedPrice, storage.LogDecimal),
		storage.Compress("l_discount", li.Discount, storage.LogDecimal),
		storage.Compress("l_tax", li.Tax, storage.LogDecimal),
		storage.NewCodes("l_returnflag", li.FlagDict, li.ReturnFlag),
		storage.NewCodes("l_linestatus", li.StatusDict, li.LineStatus),
		storage.Compress("l_shipdate", li.ShipDate, storage.LogDate),
		storage.Compress("l_commitdate", li.CommitDate, storage.LogDate),
		storage.Compress("l_receiptdate", li.ReceiptDate, storage.LogDate),
		storage.NewCodes("l_shipinstruct", li.InstructDict, li.ShipInstruct),
		storage.NewCodes("l_shipmode", li.ModeDict, li.ShipMode)))

	// Foreign-key indexes: referential integrity checking mandates them
	// (Section III-D), and they are the only auxiliary structures allowed
	// by the paper's methodology.
	for _, fk := range [][4]string{
		{"nation", "n_regionkey", "region", "r_regionkey"},
		{"supplier", "s_nationkey", "nation", "n_nationkey"},
		{"customer", "c_nationkey", "nation", "n_nationkey"},
		{"orders", "o_custkey", "customer", "c_custkey"},
		{"lineitem", "l_orderkey", "orders", "o_orderkey"},
		{"lineitem", "l_partkey", "part", "p_partkey"},
		{"lineitem", "l_suppkey", "supplier", "s_suppkey"},
	} {
		if err := db.AddFKIndex(fk[0], fk[1], fk[2], fk[3]); err != nil {
			panic(err)
		}
	}
	d.DB = db
}
