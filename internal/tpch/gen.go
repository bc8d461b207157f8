// Package tpch implements a deterministic TPC-H-alike workload: a dbgen
// substitute producing the eight tables with the column distributions the
// paper's eight evaluated queries (Q1, Q3, Q4, Q5, Q6, Q13, Q14, Q19)
// depend on, and each query under Figure 6's strategies: logical plans for
// the interpreted Volcano baseline (the HyPer sanity-check substitute), a
// hand-written data-centric kernel, and hybrid and SWOLE as the engine's own
// plans wherever the plan synthesizer accepts the query — hand-written only
// where it does not (see DESIGN.md substitution 1).
//
// The generator emits what the column store keeps: each string column is
// drawn as its code in the order-preserving dictionary of its vocabulary
// (each comment as a key that orders as its text, the keys numbered by one
// radix sort: no string is compared), and every column is built from its
// typed slice at the width it is stored at, with no per-row string and no
// int64 copy on the way.
//
// Scale: the paper runs SF 10 (60M lineitem rows). Row counts here scale
// linearly with SF; tests use tiny SFs and the benchmark harness reads
// SWOLE_SF (default 0.1). Selectivity targets match the paper's per-query
// discussion: Q1 ~98%, Q4 ~4% on orders, Q6 ~2%, Q13 ~98%, Q14 ~1% of
// lineitem.
package tpch

import (
	"slices"
	"sync"
	"unsafe"

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
// Volcano engine and the engine plans. The typed slices are what Generate
// draws, string columns included as their dictionary codes (each *Dict
// field is the column's dictionary); the Database's columns are one copy
// of each, narrowed where null suppression allows (the dates to int16).
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

	// A received line is R or A with equal odds, an open one N.
	returnFlags   = []string{"R", "A", "N"}
	lineStatuses  = []string{"F", "O"}
	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipModes     = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}

	// A comment is minCommentWords to maxCommentWords words, and about one
	// in fifty ends in commentSuffix, the sequence TPC-H Q13 excludes.
	commentWords = [...]string{
		"carefully", "quickly", "furiously", "slyly", "blithely", "deposits",
		"packages", "accounts", "pinto", "beans", "foxes", "ideas", "theodolites",
		"instructions", "dependencies", "excuses", "platelets", "asymptotes",
		"courts", "dolphins", "sleep", "wake", "nag", "haggle", "boost", "detect",
		"among", "above", "after", "final", "regular", "express", "unusual",
		"ironic", "pending", "bold", "even", "silent",
	}
	commentSuffix = [...]string{"special", "packages", "requests"}

	// commentToken lists the comment tokens, the words and the suffix's two
	// words that are not among them, in byte order after "": a token's index
	// is its digit in a comment key, and digit 0 ends the comment.
	// wordDigit[i] is commentWords[i]'s digit, suffixDigit[i]
	// commentSuffix[i]'s.
	commentToken = rankTokens()
	wordDigit    = digitsOf(commentWords[:])
	suffixDigit  = digitsOf(commentSuffix[:])
)

const (
	minCommentWords  = 4
	maxCommentWords  = 8
	maxCommentTokens = maxCommentWords + len(commentSuffix)

	// commentRadix is the base of a comment key: one digit per token (the
	// words, "special" and "requests"; the suffix's "packages" is a word)
	// and the end digit 0.
	commentRadix = uint64(len(commentWords) + 2 + 1)
)

func rankTokens() []string {
	tokens := slices.Concat([]string{""}, commentWords[:], commentSuffix[:])
	slices.Sort(tokens)
	tokens = slices.Compact(tokens)
	if uint64(len(tokens)) != commentRadix {
		panic("tpch: comment tokens do not match commentRadix")
	}
	return tokens
}

func digitsOf(words []string) []uint64 {
	digits := make([]uint64, len(words))
	for i, w := range words {
		d, _ := slices.BinarySearch(commentToken, w)
		digits[i] = uint64(d)
	}
	return digits
}

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
// A draw of vocabulary position i stores that position's code in the
// vocabulary's dictionary. A comment is drawn as its key (genComment), whose
// order is its text's, so one radix sort of the keys numbers the comments
// (commentDict) and only the distinct ones are rendered as text.
func Generate(sf float64) *Data {
	rng := splitmix64(20200417)
	_, _, nSupp, nCust, nPart, nOrders, _ := TableRows(sf)
	d := &Data{SF: sf}
	li := &d.Lineitem
	vocab := func(dict **storage.Dict, words []string) []int32 {
		var code []int32
		*dict, code = storage.BuildDict(words)
		return code
	}
	regionCode := vocab(&d.Region.NameDict, regionNames)
	nationCode := vocab(&d.Nation.NameDict, nationNames)
	segCode := vocab(&d.Customer.SegDict, segments)
	typeCode := vocab(&d.Part.TypeDict, partTypeVocab())
	brandCode := vocab(&d.Part.BrandDict, brandVocab())
	contCode := vocab(&d.Part.ContDict, containerVocab())
	prioCode := vocab(&d.Orders.PrioDict, priorities)
	flagCode := vocab(&li.FlagDict, returnFlags)
	statusCode := vocab(&li.StatusDict, lineStatuses)
	instrCode := vocab(&li.InstructDict, shipInstructs)
	modeCode := vocab(&li.ModeDict, shipModes)

	// region / nation
	d.Region.Name = make([]int8, regionRows)
	for i := range d.Region.Name {
		d.Region.Name[i] = int8(regionCode[i])
	}
	d.Nation.Name = make([]int8, nationRows)
	for i := range d.Nation.Name {
		d.Nation.Name[i] = int8(nationCode[i])
	}
	d.Nation.RegionKey = append([]int8{}, nationRegion...)

	// supplier
	d.Supplier.NationKey = make([]int8, nSupp)
	for i := range d.Supplier.NationKey {
		d.Supplier.NationKey[i] = int8(rng.intn(nationRows))
	}

	// customer
	d.Customer.MktSegment = make([]int8, nCust)
	d.Customer.NationKey = make([]int8, nCust)
	for i := 0; i < nCust; i++ {
		d.Customer.MktSegment[i] = int8(segCode[rng.intn(len(segments))])
		d.Customer.NationKey[i] = int8(rng.intn(nationRows))
	}

	// part: the vocabularies enumerate their syllables outermost first.
	d.Part.Type = make([]int16, nPart)
	d.Part.Brand = make([]int8, nPart)
	d.Part.Container = make([]int8, nPart)
	d.Part.Size = make([]int8, nPart)
	for i := 0; i < nPart; i++ {
		t1 := rng.intn(len(typeSyl1))
		t2 := rng.intn(len(typeSyl2))
		t3 := rng.intn(len(typeSyl3))
		d.Part.Type[i] = int16(typeCode[(t1*len(typeSyl2)+t2)*len(typeSyl3)+t3])
		b1 := rng.rangeIn(1, 5)
		b2 := rng.rangeIn(1, 5)
		d.Part.Brand[i] = int8(brandCode[(b1-1)*5+b2-1])
		c1 := rng.intn(len(containers1))
		c2 := rng.intn(len(containers2))
		d.Part.Container[i] = int8(contCode[c1*len(containers2)+c2])
		d.Part.Size[i] = int8(rng.rangeIn(1, 50))
	}

	// orders
	d.Orders.CustKey = make([]int32, nOrders)
	d.Orders.OrderDate = make([]int32, nOrders)
	d.Orders.OrderPriority = make([]int8, nOrders)
	d.Orders.ShipPriority = make([]int8, nOrders)
	comments := make([]comment, nOrders)
	dateSpan := int(endDate-startDate) + 1
	for i := 0; i < nOrders; i++ {
		d.Orders.CustKey[i] = int32(rng.intn(nCust))
		d.Orders.OrderDate[i] = startDate + int32(rng.intn(dateSpan))
		d.Orders.OrderPriority[i] = int8(prioCode[rng.intn(len(priorities))])
		key, size := genComment(&rng)
		comments[i] = comment{key: key, row: int32(i), size: int32(size)}
	}
	d.Orders.CommentDict, d.Orders.Comment = commentDict(comments)

	// lineitem: 1..7 lines per order, expectation tuned to lineitemPerOrder.
	// The slices are sized for the expected count plus 1/64, which no
	// scale that matters exceeds: the count's standard deviation is
	// 2·sqrt(nOrders) lines, 0.09% of it at SF 0.2.
	expected := nOrders * lineitemPerOrder
	capacity := expected + expected/64
	for _, s := range []*[]int32{&li.OrderKey, &li.PartKey, &li.SuppKey, &li.ExtendedPrice,
		&li.ShipDate, &li.CommitDate, &li.ReceiptDate} {
		*s = make([]int32, 0, capacity)
	}
	for _, s := range []*[]int8{&li.Quantity, &li.Discount, &li.Tax, &li.ReturnFlag,
		&li.LineStatus, &li.ShipInstruct, &li.ShipMode} {
		*s = make([]int8, 0, capacity)
	}
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
			receipt := ship + int32(rng.rangeIn(1, 30))
			li.ReceiptDate = append(li.ReceiptDate, receipt)
			// Return flag: R or A for received in the past, N otherwise
			// (dbgen keys this off receipt date vs the 1995-06-17 cut);
			// flag and status index returnFlags and lineStatuses.
			flag := 2 // N
			if receipt <= cutDate {
				flag = rng.intn(2) // R or A
			}
			li.ReturnFlag = append(li.ReturnFlag, int8(flagCode[flag]))
			status := 1 // O
			if ship <= cutDate {
				status = 0 // F
			}
			li.LineStatus = append(li.LineStatus, int8(statusCode[status]))
			li.ShipInstruct = append(li.ShipInstruct, int8(instrCode[rng.intn(len(shipInstructs))]))
			li.ShipMode = append(li.ShipMode, int8(modeCode[rng.intn(len(shipModes))]))
		}
	}

	d.buildColumns()
	return d
}

// genComment draws a short pseudo-text comment and returns its key and
// its length in bytes. The key is the comment's tokens as base-commentRadix
// digits, the first token most significant, padded with end digits to
// maxCommentTokens. The separator ' ' sorts below every byte of every
// token, so keys order as the texts do, and equal keys are equal texts.
func genComment(rng *splitmix64) (key uint64, size int) {
	n := rng.rangeIn(minCommentWords, maxCommentWords)
	size = n - 1
	for i := 0; i < n; i++ {
		w := rng.intn(len(commentWords))
		key = key*commentRadix + wordDigit[w]
		size += len(commentWords[w])
	}
	if rng.intn(50) == 0 {
		for i, w := range commentSuffix {
			key = key*commentRadix + suffixDigit[i]
			size += 1 + len(w)
		}
		n += len(commentSuffix)
	}
	for ; n < maxCommentTokens; n++ {
		key *= commentRadix
	}
	return key, size
}

// comment is one order's comment: its key, its order's row and its length.
type comment struct {
	key       uint64
	row, size int32
}

// commentDict sorts the comments by key and numbers the distinct keys as
// codes in one walk, then renders the distinct comments in code order into
// one byte arena of exactly their size, which becomes one string that every
// value is a slice of. A key's digits decode as two independent chains, its
// high five digits and its low six. The values arrive ascending, so
// storage.NewDict takes them without a sort.
func commentDict(comments []comment) (*storage.Dict, []int32) {
	comments = sortComments(comments)
	codes := make([]int32, len(comments))
	distinct, size := comments[:0], 0
	for _, c := range comments {
		if len(distinct) == 0 || c.key != distinct[len(distinct)-1].key {
			distinct = append(distinct, c)
			size += int(c.size)
		}
		codes[c.row] = int32(len(distinct) - 1)
	}
	const low = commentRadix * commentRadix * commentRadix * commentRadix * commentRadix * commentRadix
	text := make([]byte, 0, size)
	for _, c := range distinct {
		var digits [maxCommentTokens]uint64
		hi, lo := c.key/low, c.key%low
		for j := range 6 {
			digits[len(digits)-1-j], lo = lo%commentRadix, lo/commentRadix
			if j < len(digits)-6 {
				digits[len(digits)-7-j], hi = hi%commentRadix, hi/commentRadix
			}
		}
		for j, d := range digits {
			if d == 0 {
				break
			}
			if j > 0 {
				text = append(text, ' ')
			}
			text = append(text, commentToken[d]...)
		}
	}
	if len(text) != size {
		panic("tpch: comment sizes disagree with their texts")
	}
	arena, values := unsafe.String(unsafe.SliceData(text), size), make([]string, len(distinct))
	for i, off := 0, 0; i < len(distinct); i++ {
		values[i], off = arena[off:off+int(distinct[i].size)], off+int(distinct[i].size)
	}
	return storage.NewDict(values), codes
}

// sortComments sorts comments by key with a least-significant-digit radix
// sort, radixBits of the key a pass, and returns the sorted slice (comments
// or its scratch copy). The histograms of every pass are counted in one walk
// first; a pass whose digit all keys share moves nothing and is skipped.
func sortComments(comments []comment) []comment {
	const (
		radixBits = 8
		passes    = (64 + radixBits - 1) / radixBits
		mask      = 1<<radixBits - 1
	)
	var counts [passes][1 << radixBits]int
	for _, c := range comments {
		for p := range counts {
			counts[p][c.key>>(p*radixBits)&mask]++
		}
	}
	src, dst := comments, make([]comment, len(comments))
	for p := range counts {
		shift, at := p*radixBits, &counts[p]
		if len(src) == 0 || at[src[0].key>>shift&mask] == len(src) {
			continue
		}
		sum := 0
		for d, n := range at {
			at[d], sum = sum, sum+n
		}
		for _, c := range src {
			d := c.key >> shift & mask
			dst[at[d]] = c
			at[d]++
		}
		src, dst = dst, src
	}
	return src
}
