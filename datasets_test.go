package swole

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"testing"

	"github.com/reprolab/swole/internal/storage"
)

// TestLoadMicroDigest pins LoadMicro's two tables bit for bit: an FNV-1a
// digest of every column's name, Kind, Log and values matches the constant
// recorded when the loader last changed its output.
func TestLoadMicroDigest(t *testing.T) {
	for _, c := range []struct {
		cfg  MicroConfig
		want uint64
	}{
		{MicroConfig{Rows: 20_000, DimRows: 200, GroupKeys: 10, Seed: 7}, 0x23e2ffb7856d9c6a},
		{MicroConfig{Rows: 50_000, DimRows: 1000, GroupKeys: 100_000, Seed: 3}, 0x86df60ea9b8d8050},
	} {
		d, err := LoadMicro(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		put := func(v any) {
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range []string{"r", "s"} {
			tab := d.db.Table(name)
			io.WriteString(h, tab.Name)
			for _, col := range tab.Columns {
				io.WriteString(h, col.Name)
				put([2]int64{int64(col.Kind), int64(col.Log)})
				switch col.Kind {
				case storage.KindInt8:
					put(col.I8)
				case storage.KindInt16:
					put(col.I16)
				case storage.KindInt32:
					put(col.I32)
				default:
					put(col.I64)
				}
				if col.Dict != nil {
					t.Fatalf("%s: micro columns carry no dictionary", col.Name)
				}
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%+v: digest %#x, want %#x", c.cfg, got, c.want)
		}
	}
}
