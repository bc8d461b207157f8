package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
)

// answer is an order-insensitive digest of a result's rows. The compiled
// engine emits groups in key order and the interpreter in first-seen
// order, so rows are hashed one by one and the hashes added.
type answer struct {
	Rows int
	Sum  uint64
}

func (a answer) String() string { return fmt.Sprintf("%d:%016x", a.Rows, a.Sum) }

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rowHash(row []int64) uint64 {
	h := uint64(len(row)) + 0x9e3779b97f4a7c15
	for _, v := range row {
		h = mix(h ^ uint64(v))
	}
	return h
}

func digestRows(rows [][]int64) answer {
	a := answer{Rows: len(rows)}
	for _, r := range rows {
		a.Sum += rowHash(r)
	}
	return a
}

// digestPairs digests a core.GroupResult's interleaved (key, sum) layout.
func digestPairs(flat []int64) answer {
	a := answer{Rows: len(flat) / 2}
	for i := 0; i+1 < len(flat); i += 2 {
		a.Sum += rowHash(flat[i : i+2])
	}
	return a
}

// fold combines the answers of a statement list, in order, into one.
func fold(as []answer) answer {
	out := answer{Rows: len(as)}
	for _, a := range as {
		out.Sum = mix(out.Sum ^ a.Sum ^ uint64(a.Rows))
	}
	return out
}

// The golden file holds the interpreted oracle's answers for defaultSeed.
// It is only ever written by -regen-golden, from DB.Query.

//go:embed golden.json
var goldenJSON []byte

type golden struct {
	Seed    uint64            `json:"seed"`
	Entries map[string]string `json:"entries"`
}

func loadGolden() (*golden, error) {
	g := &golden{Entries: map[string]string{}}
	if len(goldenJSON) == 0 {
		return g, nil
	}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// goldenKey names one checked unit: a statement (or, for adhoc_compile,
// a whole pass) of a workload at a table state. The hash of the SQL text
// makes an entry miss, not lie, if a generator changes.
func goldenKey(workload, state, unit string, sqls ...string) string {
	h := fnv.New64a()
	for _, s := range sqls {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%s|%s|%s|%08x", workload, state, unit, uint32(h.Sum64()))
}

func (g *golden) lookup(seed uint64, key string) (answer, bool) {
	if g == nil || seed != g.Seed {
		return answer{}, false
	}
	v, ok := g.Entries[key]
	if !ok {
		return answer{}, false
	}
	var a answer
	if _, err := fmt.Sscanf(v, "%d:%x", &a.Rows, &a.Sum); err != nil {
		return answer{}, false
	}
	return a, true
}

func (g *golden) save(path string) error {
	b, err := json.MarshalIndent(g, "", " ") // map keys come out sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
