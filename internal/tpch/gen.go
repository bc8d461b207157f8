// Package tpch implements a deterministic TPC-H-alike workload: a dbgen
// substitute producing the eight tables with the column distributions the
// paper's eight evaluated queries (Q1, Q3, Q4, Q5, Q6, Q13, Q14, Q19)
// depend on, and each query under Figure 6's strategies: logical plans for
// the interpreted Volcano baseline (the HyPer sanity-check substitute), a
// hand-written data-centric kernel, and hybrid and SWOLE as the engine's own
// plans wherever the plan synthesizer accepts the query — hand-written only
// where it does not (see DESIGN.md substitution 1).
//
// Scale: the paper runs SF 10 (60M lineitem rows). Row counts here scale
// linearly with SF; tests use tiny SFs and the benchmark harness reads
// SWOLE_SF (default 0.1). Selectivity targets match the paper's per-query
// discussion: Q1 ~98%, Q4 ~4% on orders, Q6 ~2%, Q13 ~98%, Q14 ~1% of
// lineitem.
package tpch

import (
	"fmt"
	"sync"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/storage"
)

// Row counts per unit scale factor (TPC-H spec).
const (
	regionRows       = 5
	nationRows       = 25
	supplierPerSF    = 10_000
	customerPerSF    = 150_000
	ordersPerSF      = 1_500_000
	partPerSF        = 200_000
	lineitemPerOrder = 4 // uniform 1..7 in dbgen; expectation 4
)

// Dates span the dbgen range; cutDate is dbgen's "current date", which
// splits lineitems into returned/shipped and open ones. Parsed once here:
// the lineitem loop compares against it twice a row.
var (
	startDate = storage.MustParseDate("1992-01-01")
	endDate   = storage.MustParseDate("1998-08-02")
	cutDate   = storage.MustParseDate("1995-06-17")
)

// Data holds the generated tables twice: as typed slices for the
// hand-specialized kernels (which, like generated code, are written
// against the physical schema) and as a column-store Database for the
// Volcano engine and the engine plans.
type Data struct {
	SF float64
	DB *storage.Database

	// engine compiles the engine plans over DB; made on first use.
	engineOnce sync.Once
	engine     *core.Engine

	Region struct {
		Name     []int8 // dict codes
		NameDict *storage.Dict
	}
	Nation struct {
		Name      []int8
		RegionKey []int8
		NameDict  *storage.Dict
	}
	Supplier struct {
		NationKey []int8
	}
	Customer struct {
		MktSegment []int8
		NationKey  []int8
		SegDict    *storage.Dict
	}
	Part struct {
		Type      []int16 // 150 distinct types exceed int8
		Brand     []int8
		Container []int8
		Size      []int8
		TypeDict  *storage.Dict
		BrandDict *storage.Dict
		ContDict  *storage.Dict
	}
	Orders struct {
		CustKey       []int32
		OrderDate     []int32
		OrderPriority []int8
		ShipPriority  []int8
		Comment       []int32 // dict codes; high cardinality
		CommentDict   *storage.Dict
		PrioDict      *storage.Dict
	}
	Lineitem struct {
		OrderKey      []int32
		PartKey       []int32
		SuppKey       []int32
		Quantity      []int8
		ExtendedPrice []int32 // fixed-point cents
		Discount      []int8  // hundredths: 0..10
		Tax           []int8  // hundredths: 0..8
		ReturnFlag    []int8
		LineStatus    []int8
		ShipDate      []int32
		CommitDate    []int32
		ReceiptDate   []int32
		ShipInstruct  []int8
		ShipMode      []int8
		FlagDict      *storage.Dict
		StatusDict    *storage.Dict
		InstructDict  *storage.Dict
		ModeDict      *storage.Dict
	}
}

// TableRows returns the row counts (region, nation, supplier, customer,
// part, orders, lineitem) for a scale factor.
func TableRows(sf float64) (nRegion, nNation, nSupp, nCust, nPart, nOrders, nLineitem int) {
	nRegion, nNation = regionRows, nationRows
	nSupp = atLeast(int(float64(supplierPerSF)*sf), 10)
	nCust = atLeast(int(float64(customerPerSF)*sf), 20)
	nPart = atLeast(int(float64(partPerSF)*sf), 20)
	nOrders = atLeast(int(float64(ordersPerSF)*sf), 50)
	nLineitem = nOrders * lineitemPerOrder
	return
}

func atLeast(v, lo int) int {
	if v < lo {
		return lo
	}
	return v
}

// Vocabulary, following dbgen's value sets.
var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
	// nationRegion maps nation -> region per the TPC-H spec.
	nationRegion = []int8{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}

	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

	typeSyl1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}

	containers1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containers2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}

	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipModes     = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}

	commentWords = []string{
		"carefully", "quickly", "furiously", "slyly", "blithely", "deposits",
		"packages", "accounts", "pinto", "beans", "foxes", "ideas", "theodolites",
		"instructions", "dependencies", "excuses", "platelets", "asymptotes",
		"courts", "dolphins", "sleep", "wake", "nag", "haggle", "boost", "detect",
		"among", "above", "after", "final", "regular", "express", "unusual",
		"ironic", "pending", "bold", "even", "silent",
	}
)

// splitmix64 is the shared deterministic PRNG.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// rangeIn returns a uniform value in [lo, hi].
func (s *splitmix64) rangeIn(lo, hi int) int { return lo + s.intn(hi-lo+1) }

// Generate builds the dataset at the given scale factor, deterministically.
func Generate(sf float64) *Data {
	rng := splitmix64(20200417)
	_, _, nSupp, nCust, nPart, nOrders, _ := TableRows(sf)
	d := &Data{SF: sf}

	// region / nation
	d.Region.Name = make([]int8, regionRows)
	regionStrs := make([]string, regionRows)
	copy(regionStrs, regionNames)
	d.Nation.Name = make([]int8, nationRows)
	d.Nation.RegionKey = append([]int8{}, nationRegion...)
	nationStrs := make([]string, nationRows)
	copy(nationStrs, nationNames)

	// supplier
	d.Supplier.NationKey = make([]int8, nSupp)
	for i := range d.Supplier.NationKey {
		d.Supplier.NationKey[i] = int8(rng.intn(nationRows))
	}

	// customer
	d.Customer.MktSegment = make([]int8, nCust)
	d.Customer.NationKey = make([]int8, nCust)
	custSegStrs := make([]string, nCust)
	for i := 0; i < nCust; i++ {
		seg := rng.intn(len(segments))
		custSegStrs[i] = segments[seg]
		d.Customer.NationKey[i] = int8(rng.intn(nationRows))
	}

	// part
	d.Part.Size = make([]int8, nPart)
	partTypeStrs := make([]string, nPart)
	partBrandStrs := make([]string, nPart)
	partContStrs := make([]string, nPart)
	for i := 0; i < nPart; i++ {
		partTypeStrs[i] = typeSyl1[rng.intn(len(typeSyl1))] + " " +
			typeSyl2[rng.intn(len(typeSyl2))] + " " + typeSyl3[rng.intn(len(typeSyl3))]
		partBrandStrs[i] = fmt.Sprintf("Brand#%d%d", rng.rangeIn(1, 5), rng.rangeIn(1, 5))
		partContStrs[i] = containers1[rng.intn(len(containers1))] + " " +
			containers2[rng.intn(len(containers2))]
		d.Part.Size[i] = int8(rng.rangeIn(1, 50))
	}

	// orders
	d.Orders.CustKey = make([]int32, nOrders)
	d.Orders.OrderDate = make([]int32, nOrders)
	d.Orders.ShipPriority = make([]int8, nOrders)
	orderPrioStrs := make([]string, nOrders)
	orderCommentStrs := make([]string, nOrders)
	dateSpan := int(endDate-startDate) + 1
	for i := 0; i < nOrders; i++ {
		d.Orders.CustKey[i] = int32(rng.intn(nCust))
		d.Orders.OrderDate[i] = startDate + int32(rng.intn(dateSpan))
		orderPrioStrs[i] = priorities[rng.intn(len(priorities))]
		orderCommentStrs[i] = genComment(&rng)
	}

	// lineitem: 1..7 lines per order, expectation tuned to lineitemPerOrder.
	li := &d.Lineitem
	estimate := nOrders * lineitemPerOrder
	liFlagStrs := make([]string, 0, estimate)
	liStatusStrs := make([]string, 0, estimate)
	liInstrStrs := make([]string, 0, estimate)
	liModeStrs := make([]string, 0, estimate)
	for o := 0; o < nOrders; o++ {
		lines := rng.rangeIn(1, 2*lineitemPerOrder-1)
		odate := d.Orders.OrderDate[o]
		for l := 0; l < lines; l++ {
			li.OrderKey = append(li.OrderKey, int32(o))
			li.PartKey = append(li.PartKey, int32(rng.intn(nPart)))
			li.SuppKey = append(li.SuppKey, int32(rng.intn(nSupp)))
			qty := rng.rangeIn(1, 50)
			li.Quantity = append(li.Quantity, int8(qty))
			price := int32(qty * rng.rangeIn(90_000, 110_000) / 50)
			li.ExtendedPrice = append(li.ExtendedPrice, price)
			li.Discount = append(li.Discount, int8(rng.rangeIn(0, 10)))
			li.Tax = append(li.Tax, int8(rng.rangeIn(0, 8)))
			ship := odate + int32(rng.rangeIn(1, 121))
			li.ShipDate = append(li.ShipDate, ship)
			li.CommitDate = append(li.CommitDate, odate+int32(rng.rangeIn(30, 90)))
			li.ReceiptDate = append(li.ReceiptDate, ship+int32(rng.rangeIn(1, 30)))
			// Return flag: R or A for received in the past, N otherwise
			// (dbgen keys this off receipt date vs the 1995-06-17 cut).
			if li.ReceiptDate[len(li.ReceiptDate)-1] <= cutDate {
				if rng.intn(2) == 0 {
					liFlagStrs = append(liFlagStrs, "R")
				} else {
					liFlagStrs = append(liFlagStrs, "A")
				}
			} else {
				liFlagStrs = append(liFlagStrs, "N")
			}
			if ship <= cutDate {
				liStatusStrs = append(liStatusStrs, "F")
			} else {
				liStatusStrs = append(liStatusStrs, "O")
			}
			liInstrStrs = append(liInstrStrs, shipInstructs[rng.intn(len(shipInstructs))])
			liModeStrs = append(liModeStrs, shipModes[rng.intn(len(shipModes))])
		}
	}

	d.buildColumns(regionStrs, nationStrs, custSegStrs, partTypeStrs,
		partBrandStrs, partContStrs, orderPrioStrs, orderCommentStrs,
		liFlagStrs, liStatusStrs, liInstrStrs, liModeStrs)
	return d
}

// genComment produces a short pseudo-text comment; about 2% contain the
// "special ... requests" sequence that TPC-H Q13 excludes.
func genComment(rng *splitmix64) string {
	n := rng.rangeIn(4, 8)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += commentWords[rng.intn(len(commentWords))]
	}
	if rng.intn(50) == 0 {
		out = out + " special packages requests"
	}
	return out
}
